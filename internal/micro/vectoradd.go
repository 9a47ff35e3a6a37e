package micro

import (
	"fmt"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/vulkan/vkutil"
)

// The vector-addition microbenchmark of §IV-A: Z[i] = X[i] + Y[i] for one
// million elements in the paper's Listing 1.
func init() {
	core.Register(core.Descriptor{
		Name:        "vectoradd",
		Family:      core.FamilyMicro,
		Application: "Element-wise addition of two vectors (the paper's Listing 1 example)",
		Dwarf:       "Dense Linear Algebra",
		Domain:      "Microbenchmark",
		Rank:        1,
		APIs:        hw.AllAPIs(),
		Workloads:   vectorAddWorkloads,
		Traffic:     vectorAddTraffic,
		Run:         runVectorAdd,
	})
}

// vectorAddTraffic models the kernel exactly: two 4-byte loads and one 4-byte
// store per element, one dispatch.
func vectorAddTraffic(w core.Workload) core.Traffic {
	n := float64(w.Param("n", 1<<20))
	return core.Traffic{GlobalLoadBytes: 8 * n, GlobalStoreBytes: 4 * n, Dispatches: 1}
}

func vectorAddWorkloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "256K", Params: map[string]int{"n": 256 << 10}},
			{Label: "1M", Params: map[string]int{"n": 1 << 20}},
		}
	}
	return []core.Workload{
		{Label: "1M", Params: map[string]int{"n": 1 << 20}},
		{Label: "4M", Params: map[string]int{"n": 4 << 20}},
		{Label: "16M", Params: map[string]int{"n": 16 << 20}},
	}
}

func runVectorAdd(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 1<<20)
	x := ctx.RandomF32(ctx.Seed, n, -1, 1)
	y := ctx.RandomF32(ctx.Seed+1, n, -1, 1)

	var (
		z          []float32
		kernelTime hw.Measurement
		err        error
	)
	switch ctx.API {
	case hw.APIVulkan:
		z, kernelTime, err = vectorAddVulkan(ctx, n, x, y)
	case hw.APICUDA:
		z, kernelTime, err = vectorAddCUDA(ctx, n, x, y)
	case hw.APIOpenCL:
		z, kernelTime, err = vectorAddOpenCL(ctx, n, x, y)
	default:
		return nil, fmt.Errorf("vectoradd: unsupported API %s", ctx.API)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Validate {
		xf, yf := kernels.WordsToF32(x), kernels.WordsToF32(y)
		for i := range z {
			if bench.AbsDiff(z[i], xf[i]+yf[i]) > 1e-5 {
				return nil, fmt.Errorf("vectoradd: element %d: got %v want %v", i, z[i], xf[i]+yf[i])
			}
		}
	}
	res := ctx.Result(kernelTime)
	res.Dispatches = 1
	res.Checksum = core.ChecksumF32(z)
	return res, nil
}

func vectorAddVulkan(ctx *core.RunContext, n int, x, y kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := vkutil.Setup(ctx.Host, ctx.Device)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Close()

	size := int64(n) * 4
	bufX, err := env.NewDeviceBuffer(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bufX.Free()
	bufY, err := env.NewDeviceBuffer(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bufY.Free()
	bufZ, err := env.NewDeviceBuffer(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bufZ.Free()
	if err := env.Upload(bufX, x); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := env.Upload(bufY, y); err != nil {
		return nil, hw.Measurement{}, err
	}

	pipe, err := env.NewComputePipeline(KernelVectorAdd)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	set, err := env.NewBoundSet(pipe, bufX, bufY, bufZ)
	if err != nil {
		return nil, hw.Measurement{}, err
	}

	cb, err := env.NewCommandBuffer()
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.Begin(); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.CmdBindPipeline(vkutil.BindCompute, pipe.Pipeline); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.CmdBindDescriptorSets(vkutil.BindCompute, pipe.Layout, set); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.CmdPushConstants(pipe.Layout, 0, kernels.Words{uint32(n)}); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.CmdDispatch(bench.DivUp(n, 256), 1, 1); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := cb.End(); err != nil {
		return nil, hw.Measurement{}, err
	}

	sw := ctx.Stopwatch()
	if _, err := env.SubmitAndWait(cb); err != nil {
		return nil, hw.Measurement{}, err
	}
	kernelTime := sw.Elapsed()

	z, err := env.DownloadF32(bufZ)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	return z[:n], kernelTime, nil
}

func vectorAddCUDA(ctx *core.RunContext, n int, x, y kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := bench.SetupCUDA(ctx.Host, ctx.Device)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	size := int64(n) * 4
	dX, err := env.Context.Malloc(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Context.Free(dX)
	dY, err := env.Context.Malloc(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Context.Free(dY)
	dZ, err := env.Context.Malloc(size)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Context.Free(dZ)
	if err := env.Context.MemcpyHtoD(dX, x); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := env.Context.MemcpyHtoD(dY, y); err != nil {
		return nil, hw.Measurement{}, err
	}
	k, err := env.Module.GetKernel(KernelVectorAdd)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	sw := ctx.Stopwatch()
	err = env.Stream.Launch(k, kernels.D1(bench.DivUp(n, 256)), kernels.D1(256), cuda.Args{
		Buffers: []*cuda.DevicePtr{dX, dY, dZ},
		Values:  kernels.Words{uint32(n)},
	})
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	env.Stream.Synchronize()
	kernelTime := sw.Elapsed()

	out := make(kernels.Words, n)
	if err := env.Context.MemcpyDtoH(out, dZ); err != nil {
		return nil, hw.Measurement{}, err
	}
	return kernels.WordsToF32(out), kernelTime, nil
}

func vectorAddOpenCL(ctx *core.RunContext, n int, x, y kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := bench.SetupOpenCL(ctx.Host, ctx.Device, KernelVectorAdd)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	size := int64(n) * 4
	bX, err := env.Context.CreateBuffer(opencl.MemReadOnly|opencl.MemCopyHostPtr, size, x)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bX.Release()
	bY, err := env.Context.CreateBuffer(opencl.MemReadOnly|opencl.MemCopyHostPtr, size, y)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bY.Release()
	bZ, err := env.Context.CreateBuffer(opencl.MemReadWrite, size, nil)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bZ.Release()

	k, err := env.Program.CreateKernel(KernelVectorAdd)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgBuffer(0, bX); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgBuffer(1, bY); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgBuffer(2, bZ); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgU32(3, uint32(n)); err != nil {
		return nil, hw.Measurement{}, err
	}

	global := kernels.D1(bench.DivUp(n, 256) * 256)
	sw := ctx.Stopwatch()
	if _, err := env.Queue.EnqueueNDRangeKernel(k, global, kernels.D1(256)); err != nil {
		return nil, hw.Measurement{}, err
	}
	env.Queue.Finish()
	kernelTime := sw.Elapsed()

	out := make(kernels.Words, n)
	if _, err := env.Queue.EnqueueReadBuffer(bZ, true, out); err != nil {
		return nil, hw.Measurement{}, err
	}
	return kernels.WordsToF32(out), kernelTime, nil
}
