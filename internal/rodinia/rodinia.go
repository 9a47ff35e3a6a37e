// Package rodinia contains the shared host-side execution engine used by the
// nine VComputeBench ports of the Rodinia suite (Table I).
//
// Every benchmark expresses its computation as an Algorithm: a set of device
// buffers plus a sequence of phases, each phase being a list of kernel Steps.
// Steps may be marked SyncAfter at iteration boundaries where the classical
// multi-kernel method must return control to the CPU to honour inter-workgroup
// data dependencies (§IV-C).
//
// The three executors translate that structure into the host-code style the
// paper compares:
//
//   - Vulkan records the whole phase into a single command buffer, replacing
//     each SyncAfter with a vkCmdPipelineBarrier, and submits once — the
//     paper's key Vulkan-specific optimisation. Algorithms implementing
//     SeparateSubmits (backprop, nn, nw per §V-A2) instead submit one command
//     buffer per step.
//   - CUDA launches each step with cudaLaunchKernel and synchronises at every
//     SyncAfter, paying the kernel launch overhead per iteration.
//   - OpenCL enqueues each step with clEnqueueNDRangeKernel and calls clFinish
//     at every SyncAfter.
//
// The measured kernel time is the host time of the whole phase loop, matching
// the paper's methodology of timing the compute section on the CPU and
// excluding data transfers and program build.
package rodinia

import (
	"fmt"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

// BufferSpec declares one device buffer of an algorithm.
type BufferSpec struct {
	// Name is used in error messages.
	Name string
	// Init is the initial contents; nil means zero-initialised.
	Init kernels.Words
	// Words is the buffer length in 32-bit words when Init is nil.
	Words int
}

func (b BufferSpec) words() int {
	if b.Init != nil {
		return len(b.Init)
	}
	return b.Words
}

// Step is one kernel dispatch.
type Step struct {
	// Kernel is the registered kernel entry point.
	Kernel string
	// Groups is the dispatch size in workgroups.
	Groups kernels.Dim3
	// Buffers lists the algorithm buffer indices bound at bindings 0..n-1.
	Buffers []int
	// Push holds the kernel's scalar arguments / push constants.
	Push kernels.Words
	// SyncAfter marks an iteration boundary: the multi-kernel method requires
	// control to return to the host after this step (CUDA/OpenCL synchronise;
	// Vulkan records a pipeline barrier instead).
	SyncAfter bool
}

// IO lets an algorithm read back or update device buffers between phases
// (e.g. the bfs termination flag). The transfers are charged to the simulated
// clocks like any other copy.
type IO interface {
	Read(buffer int) (kernels.Words, error)
	Write(buffer int, data kernels.Words) error
}

// Algorithm describes a benchmark's device-side computation.
type Algorithm interface {
	// Buffers declares the device buffers.
	Buffers() []BufferSpec
	// Kernels lists every kernel entry point the algorithm may dispatch; the
	// executors build pipelines / programs for them before timing starts.
	Kernels() []string
	// NextPhase returns the steps of the given phase (0-based) or an empty
	// slice when the algorithm is done. Most algorithms emit a single phase;
	// data-dependent loops (bfs) emit one phase per level and use io to read
	// the termination flag.
	NextPhase(phase int, io IO) ([]Step, error)
}

// SeparateSubmits is implemented by algorithms whose Vulkan port submits each
// step in its own command buffer (the paper's approach for workloads without
// inter-iteration dependencies).
type SeparateSubmits interface {
	SeparateSubmits() bool
}

// Output is the result of executing an algorithm.
type Output struct {
	// KernelTime is the host-measured time of the phase loop.
	KernelTime hw.Measurement
	// Dispatches is the number of kernel launches / dispatches.
	Dispatches int
	// Buffers holds the final contents of the requested buffers.
	Buffers map[int]kernels.Words
}

// maxPhases bounds runaway data-dependent loops.
const maxPhases = 1 << 20

// Run executes the algorithm with the API selected by the run context and
// returns the requested output buffers.
func Run(ctx *core.RunContext, alg Algorithm, outputs []int) (*Output, error) {
	switch ctx.API {
	case hw.APIVulkan:
		return runVulkan(ctx, alg, outputs)
	case hw.APICUDA:
		return runCUDA(ctx, alg, outputs)
	case hw.APIOpenCL:
		return runOpenCL(ctx, alg, outputs)
	default:
		return nil, fmt.Errorf("rodinia: unsupported API %s", ctx.API)
	}
}

func separate(alg Algorithm) bool {
	if s, ok := alg.(SeparateSubmits); ok {
		return s.SeparateSubmits()
	}
	return false
}

// ---------------------------------------------------------------------------
// Vulkan executor
// ---------------------------------------------------------------------------

type vkIO struct {
	env     *vkutil.Env
	buffers []*vkutil.Buffer
}

func (io *vkIO) Read(buffer int) (kernels.Words, error) {
	if buffer < 0 || buffer >= len(io.buffers) {
		return nil, fmt.Errorf("rodinia: read of unknown buffer %d", buffer)
	}
	return io.env.Download(io.buffers[buffer])
}

func (io *vkIO) Write(buffer int, data kernels.Words) error {
	if buffer < 0 || buffer >= len(io.buffers) {
		return fmt.Errorf("rodinia: write of unknown buffer %d", buffer)
	}
	return io.env.Upload(io.buffers[buffer], data)
}

func runVulkan(ctx *core.RunContext, alg Algorithm, outputs []int) (*Output, error) {
	env, err := vkutil.Setup(ctx.Host, ctx.Device)
	if err != nil {
		return nil, err
	}
	defer env.Close()

	specs := alg.Buffers()
	buffers := make([]*vkutil.Buffer, len(specs))
	for i, spec := range specs {
		b, err := env.NewDeviceBuffer(int64(spec.words()) * 4)
		if err != nil {
			return nil, fmt.Errorf("rodinia: allocating %q: %w", spec.Name, err)
		}
		defer b.Free()
		buffers[i] = b
		if spec.Init != nil {
			if err := env.Upload(b, spec.Init); err != nil {
				return nil, fmt.Errorf("rodinia: uploading %q: %w", spec.Name, err)
			}
		}
	}

	pipelines := make(map[string]*vkutil.Pipeline)
	for _, name := range alg.Kernels() {
		p, err := env.NewComputePipeline(name)
		if err != nil {
			return nil, err
		}
		pipelines[name] = p
	}
	// Descriptor sets are cached per (kernel, buffer combination).
	sets := make(map[string]*vulkan.DescriptorSet)
	setFor := func(step Step) (*vulkan.DescriptorSet, *vkutil.Pipeline, error) {
		pipe, ok := pipelines[step.Kernel]
		if !ok {
			return nil, nil, fmt.Errorf("rodinia: step uses undeclared kernel %q", step.Kernel)
		}
		key := step.Kernel
		for _, b := range step.Buffers {
			key += fmt.Sprintf("/%d", b)
		}
		if s, ok := sets[key]; ok {
			return s, pipe, nil
		}
		args := make([]*vkutil.Buffer, len(step.Buffers))
		for i, b := range step.Buffers {
			if b < 0 || b >= len(buffers) {
				return nil, nil, fmt.Errorf("rodinia: step binds unknown buffer %d", b)
			}
			args[i] = buffers[b]
		}
		s, err := env.NewBoundSet(pipe, args...)
		if err != nil {
			return nil, nil, err
		}
		sets[key] = s
		return s, pipe, nil
	}

	io := &vkIO{env: env, buffers: buffers}
	out := &Output{Buffers: make(map[int]kernels.Words)}
	sep := separate(alg)

	sw := ctx.Stopwatch()
	for phase := 0; phase < maxPhases; phase++ {
		steps, err := alg.NextPhase(phase, io)
		if err != nil {
			return nil, err
		}
		if len(steps) == 0 {
			break
		}
		if sep {
			// One command buffer per step, submitted immediately.
			for _, step := range steps {
				set, pipe, err := setFor(step)
				if err != nil {
					return nil, err
				}
				cb, err := env.NewCommandBuffer()
				if err != nil {
					return nil, err
				}
				if err := recordStep(cb, pipe, set, step); err != nil {
					return nil, err
				}
				if err := cb.End(); err != nil {
					return nil, err
				}
				if _, err := env.SubmitAndWait(cb); err != nil {
					return nil, err
				}
				out.Dispatches++
			}
			continue
		}

		// The paper's single-command-buffer optimisation: record every
		// iteration of the phase into one command buffer, separate them with
		// memory barriers and pay a single submission overhead.
		cb, err := env.NewCommandBuffer()
		if err != nil {
			return nil, err
		}
		var lastKernel string
		var lastSetKey *vulkan.DescriptorSet
		started := false
		for i, step := range steps {
			set, pipe, err := setFor(step)
			if err != nil {
				return nil, err
			}
			if !started {
				if err := cb.Begin(); err != nil {
					return nil, err
				}
				started = true
			}
			if step.Kernel != lastKernel {
				if err := cb.CmdBindPipeline(vkutil.BindCompute, pipe.Pipeline); err != nil {
					return nil, err
				}
				lastKernel = step.Kernel
				lastSetKey = nil
			}
			if set != lastSetKey {
				if err := cb.CmdBindDescriptorSets(vkutil.BindCompute, pipe.Layout, set); err != nil {
					return nil, err
				}
				lastSetKey = set
			}
			if len(step.Push) > 0 {
				if err := cb.CmdPushConstants(pipe.Layout, 0, step.Push); err != nil {
					return nil, err
				}
			}
			if err := cb.CmdDispatch(step.Groups.X, step.Groups.Y, step.Groups.Z); err != nil {
				return nil, err
			}
			out.Dispatches++
			if i != len(steps)-1 {
				if err := cb.CmdPipelineBarrier(vulkan.PipelineStageComputeShaderBit, vulkan.PipelineStageComputeShaderBit,
					vulkan.MemoryBarrier{SrcAccessMask: vulkan.AccessShaderWriteBit, DstAccessMask: vulkan.AccessShaderReadBit}); err != nil {
					return nil, err
				}
			}
		}
		if err := cb.End(); err != nil {
			return nil, err
		}
		if _, err := env.SubmitAndWait(cb); err != nil {
			return nil, err
		}
	}
	out.KernelTime = sw.Elapsed()

	for _, idx := range outputs {
		w, err := io.Read(idx)
		if err != nil {
			return nil, err
		}
		out.Buffers[idx] = w
	}
	return out, nil
}

// recordStep records one step into a fresh command buffer (separate-submit
// mode).
func recordStep(cb *vulkan.CommandBuffer, pipe *vkutil.Pipeline, set *vulkan.DescriptorSet, step Step) error {
	if err := cb.Begin(); err != nil {
		return err
	}
	if err := cb.CmdBindPipeline(vkutil.BindCompute, pipe.Pipeline); err != nil {
		return err
	}
	if err := cb.CmdBindDescriptorSets(vkutil.BindCompute, pipe.Layout, set); err != nil {
		return err
	}
	if len(step.Push) > 0 {
		if err := cb.CmdPushConstants(pipe.Layout, 0, step.Push); err != nil {
			return err
		}
	}
	if err := cb.CmdDispatch(step.Groups.X, step.Groups.Y, step.Groups.Z); err != nil {
		return err
	}
	return nil
}

// ---------------------------------------------------------------------------
// CUDA executor
// ---------------------------------------------------------------------------

type cudaIO struct {
	env     *bench.CUDAEnv
	buffers []*cuda.DevicePtr
}

func (io *cudaIO) Read(buffer int) (kernels.Words, error) {
	if buffer < 0 || buffer >= len(io.buffers) {
		return nil, fmt.Errorf("rodinia: read of unknown buffer %d", buffer)
	}
	out := make(kernels.Words, io.buffers[buffer].Size()/4)
	if err := io.env.Context.MemcpyDtoH(out, io.buffers[buffer]); err != nil {
		return nil, err
	}
	return out, nil
}

func (io *cudaIO) Write(buffer int, data kernels.Words) error {
	if buffer < 0 || buffer >= len(io.buffers) {
		return fmt.Errorf("rodinia: write of unknown buffer %d", buffer)
	}
	return io.env.Context.MemcpyHtoD(io.buffers[buffer], data)
}

func runCUDA(ctx *core.RunContext, alg Algorithm, outputs []int) (*Output, error) {
	env, err := bench.SetupCUDA(ctx.Host, ctx.Device)
	if err != nil {
		return nil, err
	}
	specs := alg.Buffers()
	buffers := make([]*cuda.DevicePtr, len(specs))
	for i, spec := range specs {
		ptr, err := env.Context.Malloc(int64(spec.words()) * 4)
		if err != nil {
			return nil, fmt.Errorf("rodinia: cudaMalloc %q: %w", spec.Name, err)
		}
		defer env.Context.Free(ptr)
		buffers[i] = ptr
		if spec.Init != nil {
			if err := env.Context.MemcpyHtoD(ptr, spec.Init); err != nil {
				return nil, err
			}
		}
	}
	funcs := make(map[string]*cuda.Kernel)
	for _, name := range alg.Kernels() {
		k, err := env.Module.GetKernel(name)
		if err != nil {
			return nil, err
		}
		funcs[name] = k
	}

	io := &cudaIO{env: env, buffers: buffers}
	out := &Output{Buffers: make(map[int]kernels.Words)}

	sw := ctx.Stopwatch()
	for phase := 0; phase < maxPhases; phase++ {
		steps, err := alg.NextPhase(phase, io)
		if err != nil {
			return nil, err
		}
		if len(steps) == 0 {
			break
		}
		for _, step := range steps {
			k, ok := funcs[step.Kernel]
			if !ok {
				return nil, fmt.Errorf("rodinia: step uses undeclared kernel %q", step.Kernel)
			}
			args := cuda.Args{Values: step.Push}
			for _, b := range step.Buffers {
				if b < 0 || b >= len(buffers) {
					return nil, fmt.Errorf("rodinia: step binds unknown buffer %d", b)
				}
				args.Buffers = append(args.Buffers, buffers[b])
			}
			if err := env.Stream.Launch(k, step.Groups, k.Program().LocalSize, args); err != nil {
				return nil, err
			}
			out.Dispatches++
			if step.SyncAfter {
				// The multi-kernel method: control returns to the CPU at every
				// iteration boundary.
				env.Stream.Synchronize()
			}
		}
		env.Stream.Synchronize()
	}
	out.KernelTime = sw.Elapsed()

	for _, idx := range outputs {
		w, err := io.Read(idx)
		if err != nil {
			return nil, err
		}
		out.Buffers[idx] = w
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// OpenCL executor
// ---------------------------------------------------------------------------

type clIO struct {
	env     *bench.CLEnv
	buffers []*opencl.Mem
}

func (io *clIO) Read(buffer int) (kernels.Words, error) {
	if buffer < 0 || buffer >= len(io.buffers) {
		return nil, fmt.Errorf("rodinia: read of unknown buffer %d", buffer)
	}
	out := make(kernels.Words, io.buffers[buffer].Size()/4)
	if _, err := io.env.Queue.EnqueueReadBuffer(io.buffers[buffer], true, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (io *clIO) Write(buffer int, data kernels.Words) error {
	if buffer < 0 || buffer >= len(io.buffers) {
		return fmt.Errorf("rodinia: write of unknown buffer %d", buffer)
	}
	_, err := io.env.Queue.EnqueueWriteBuffer(io.buffers[buffer], true, data)
	return err
}

func runOpenCL(ctx *core.RunContext, alg Algorithm, outputs []int) (*Output, error) {
	env, err := bench.SetupOpenCL(ctx.Host, ctx.Device, alg.Kernels()...)
	if err != nil {
		return nil, err
	}
	specs := alg.Buffers()
	buffers := make([]*opencl.Mem, len(specs))
	for i, spec := range specs {
		m, err := env.Context.CreateBuffer(opencl.MemReadWrite|opencl.MemCopyHostPtr, int64(spec.words())*4, spec.Init)
		if err != nil {
			return nil, fmt.Errorf("rodinia: clCreateBuffer %q: %w", spec.Name, err)
		}
		defer m.Release()
		buffers[i] = m
	}
	kernelObjs := make(map[string]*opencl.Kernel)
	for _, name := range alg.Kernels() {
		k, err := env.Program.CreateKernel(name)
		if err != nil {
			return nil, err
		}
		kernelObjs[name] = k
	}

	io := &clIO{env: env, buffers: buffers}
	out := &Output{Buffers: make(map[int]kernels.Words)}

	sw := ctx.Stopwatch()
	for phase := 0; phase < maxPhases; phase++ {
		steps, err := alg.NextPhase(phase, io)
		if err != nil {
			return nil, err
		}
		if len(steps) == 0 {
			break
		}
		for _, step := range steps {
			k, ok := kernelObjs[step.Kernel]
			if !ok {
				return nil, fmt.Errorf("rodinia: step uses undeclared kernel %q", step.Kernel)
			}
			for i, b := range step.Buffers {
				if b < 0 || b >= len(buffers) {
					return nil, fmt.Errorf("rodinia: step binds unknown buffer %d", b)
				}
				if err := k.SetArgBuffer(i, buffers[b]); err != nil {
					return nil, err
				}
			}
			prog := k.Program()
			for i, v := range step.Push {
				if err := k.SetArgU32(prog.Bindings+i, v); err != nil {
					return nil, err
				}
			}
			local := prog.LocalSize
			global := kernels.Dim3{X: step.Groups.X * local.X, Y: step.Groups.Y * local.Y, Z: step.Groups.Z * local.Z}
			if _, err := env.Queue.EnqueueNDRangeKernel(k, global, local); err != nil {
				return nil, err
			}
			out.Dispatches++
			if step.SyncAfter {
				env.Queue.Finish()
			}
		}
		env.Queue.Finish()
	}
	out.KernelTime = sw.Elapsed()

	for _, idx := range outputs {
		w, err := io.Read(idx)
		if err != nil {
			return nil, err
		}
		out.Buffers[idx] = w
	}
	return out, nil
}
