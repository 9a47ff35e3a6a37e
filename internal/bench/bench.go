// Package bench contains the small helpers shared by every benchmark's host
// code: OpenCL and CUDA environment setup and OpenCL C source synthesis for
// the JIT path. Inputs are drawn through core.RunContext.RandomF32 and
// RandomI32.
package bench

import (
	"fmt"
	"strings"

	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/sim"
)

// CLSource synthesises an OpenCL C translation-unit skeleton declaring the
// given kernels. The executable bodies live in the kernels registry (the
// simulated driver resolves them by name at clBuildProgram time); the source
// text exists so the OpenCL path exercises the real create-program/build/
// create-kernel flow with its JIT cost.
func CLSource(names ...string) string {
	var b strings.Builder
	b.WriteString("// Auto-generated OpenCL C skeleton for VComputeBench.\n")
	for _, n := range names {
		p, err := kernels.Lookup(n)
		if err != nil {
			fmt.Fprintf(&b, "__kernel void %s() {}\n", n)
			continue
		}
		var params []string
		for i := 0; i < p.Bindings; i++ {
			params = append(params, fmt.Sprintf("__global float* buf%d", i))
		}
		for i := 0; i < p.PushConstantWords; i++ {
			params = append(params, fmt.Sprintf("int arg%d", i))
		}
		fmt.Fprintf(&b, "__attribute__((reqd_work_group_size(%d,%d,%d)))\n",
			p.LocalSize.X, p.LocalSize.Y, p.LocalSize.Z)
		fmt.Fprintf(&b, "__kernel void %s(%s) { /* body resolved by the device compiler */ }\n",
			n, strings.Join(params, ", "))
	}
	return b.String()
}

// CLEnv is a ready-to-use OpenCL context/queue/program on one device.
type CLEnv struct {
	Context *opencl.Context
	Queue   *opencl.CommandQueue
	Program *opencl.Program
}

// SetupOpenCL creates the OpenCL context, a profiling command queue and a
// built program containing the named kernels.
func SetupOpenCL(host *sim.Host, dev *hw.Device, kernelNames ...string) (*CLEnv, error) {
	plats, err := opencl.GetPlatforms(host, dev)
	if err != nil {
		return nil, err
	}
	devices, err := plats[0].GetDevices()
	if err != nil {
		return nil, err
	}
	ctx, err := opencl.CreateContext(devices[0])
	if err != nil {
		return nil, err
	}
	queue, err := ctx.CreateCommandQueue(opencl.CommandQueueProperties{Profiling: true})
	if err != nil {
		return nil, err
	}
	prog, err := ctx.CreateProgramWithSource(CLSource(kernelNames...))
	if err != nil {
		return nil, err
	}
	if err := prog.Build("-cl-mad-enable"); err != nil {
		return nil, err
	}
	return &CLEnv{Context: ctx, Queue: queue, Program: prog}, nil
}

// CUDAEnv is a ready-to-use CUDA context/module/stream on one device.
type CUDAEnv struct {
	Context *cuda.Context
	Module  *cuda.Module
	Stream  *cuda.Stream
}

// SetupCUDA initialises the CUDA runtime on the device.
func SetupCUDA(host *sim.Host, dev *hw.Device) (*CUDAEnv, error) {
	ctx, err := cuda.NewContext(host, dev)
	if err != nil {
		return nil, err
	}
	return &CUDAEnv{Context: ctx, Module: ctx.LoadModule(), Stream: ctx.DefaultStream()}, nil
}

// DivUp returns ceil(a/b).
func DivUp(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// AbsDiff returns |a-b| for float32 values as float64.
func AbsDiff(a, b float32) float64 {
	d := float64(a) - float64(b)
	if d < 0 {
		return -d
	}
	return d
}
