package micro

import (
	"fmt"
	"math"
	"slices"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/cuda"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/opencl"
	"vcomputebench/internal/vulkan"
	"vcomputebench/internal/vulkan/vkutil"
)

// The strided-memory-access microbenchmark of §V-A1: a fixed number of work
// items each read one element at a configurable stride, and the achieved
// bandwidth (useful bytes / kernel time) is reported per stride. It produces
// Figures 1 and 3.
func init() {
	core.Register(core.Descriptor{
		Name:        "membandwidth",
		Family:      core.FamilyMicro,
		Application: "Strided memory access bandwidth sweep (Figures 1 and 3)",
		Dwarf:       "Structured Grid",
		Domain:      "Microbenchmark",
		Rank:        0,
		APIs:        hw.AllAPIs(),
		Workloads:   memBandwidthWorkloads,
		Run:         runMemBandwidth,
		// The CUDA path adds a warm-up launch (memBandwidthCUDA). The
		// suite still shares the triple's dispatch memo: the warm-up and
		// the timed launches take their counters from the Vulkan cell's.
		PerAPIDeviceWork: true,
	})
}

// ExtraBandwidthGBps is the Result.Extra key under which membandwidth reports
// the achieved bandwidth (an alias of the canonical core key).
const ExtraBandwidthGBps = core.ExtraBandwidthGBps

// Default thread counts and iteration count of the bandwidth sweep.
const (
	desktopBandwidthThreads = 512 << 10
	mobileBandwidthThreads  = 128 << 10
	bandwidthIterations     = 8
)

// DesktopStrides are the stride values on the x-axis of Figure 1.
func DesktopStrides() []int { return []int{1, 4, 8, 12, 16, 20, 24, 28, 32} }

// MobileStrides are the stride values on the x-axis of Figure 3.
func MobileStrides() []int { return []int{1, 2, 4, 6, 8, 10, 12, 14, 16} }

// classStrides returns the strides of the class's figure.
func classStrides(class hw.Class) []int {
	if class == hw.ClassMobile {
		return MobileStrides()
	}
	return DesktopStrides()
}

// memBandwidthWorkloads returns one workload per stride.
func memBandwidthWorkloads(class hw.Class) []core.Workload {
	threads := desktopBandwidthThreads
	if class == hw.ClassMobile {
		threads = mobileBandwidthThreads
	}
	strides := classStrides(class)
	out := make([]core.Workload, 0, len(strides))
	for _, s := range strides {
		out = append(out, core.Workload{
			Label:  fmt.Sprintf("%d", s),
			Params: map[string]int{"stride": s, "threads": threads, "iterations": bandwidthIterations},
		})
	}
	return out
}

func runMemBandwidth(ctx *core.RunContext) (*core.Result, error) {
	stride := ctx.Workload.Param("stride", 1)
	threads := ctx.Workload.Param("threads", desktopBandwidthThreads)
	iters := ctx.Workload.Param("iterations", bandwidthIterations)
	if stride < 1 {
		return nil, fmt.Errorf("membandwidth: stride must be >= 1, got %d", stride)
	}
	// The input array is sized so that the maximum stride still addresses
	// distinct cache lines for every work item. Every stride reads a prefix
	// of one array: the cell asks for the sweep's longest prefix, so the
	// stream is drawn once at its full length instead of regrown and copied
	// as the strides rise. A cell run alone draws the whole sweep's array
	// too (16M words on a desktop part, 2M on a mobile one).
	nIn := threads * stride
	sweep := threads * max(stride, slices.Max(classStrides(ctx.Platform.Profile.Class)))
	in := ctx.RandomF32(ctx.Seed, sweep, 0, 1)[:nIn:nIn]

	var (
		out        []float32
		kernelTime hw.Measurement
		err        error
	)
	switch ctx.API {
	case hw.APIVulkan:
		out, kernelTime, err = memBandwidthVulkan(ctx, threads, nIn, stride, iters, in)
	case hw.APICUDA:
		out, kernelTime, err = memBandwidthCUDA(ctx, threads, nIn, stride, iters, in)
	case hw.APIOpenCL:
		out, kernelTime, err = memBandwidthOpenCL(ctx, threads, nIn, stride, iters, in)
	default:
		return nil, fmt.Errorf("membandwidth: unsupported API %s", ctx.API)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Validate {
		for i := 0; i < threads; i++ {
			want := math.Float32frombits(in[(i*stride)%nIn])
			if out[i] != want {
				return nil, fmt.Errorf("membandwidth: element %d: got %v want %v", i, out[i], want)
			}
		}
	}

	// Useful traffic per iteration: one 4-byte read and one 4-byte write per
	// work item. The extra is declared as a throughput (bytes over kernel
	// time) so snapshot replay recomputes it from the replayed kernel time.
	usefulBytes := float64(threads) * 8 * float64(iters)
	res := ctx.Result(kernelTime)
	res.Dispatches = iters
	res.Checksum = core.ChecksumF32(out)
	res.SetExtraThroughput(ExtraBandwidthGBps, usefulBytes)
	return res, nil
}

func memBandwidthVulkan(ctx *core.RunContext, threads, nIn, stride, iters int, in kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := vkutil.Setup(ctx.Host, ctx.Device)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Close()

	bufIn, err := env.NewDeviceBuffer(int64(nIn) * 4)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bufIn.Free()
	bufOut, err := env.NewDeviceBuffer(int64(threads) * 4)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bufOut.Free()
	if err := env.Upload(bufIn, in); err != nil {
		return nil, hw.Measurement{}, err
	}

	pipe, err := env.NewComputePipeline(KernelStridedRead)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	set, err := env.NewBoundSet(pipe, bufIn, bufOut)
	if err != nil {
		return nil, hw.Measurement{}, err
	}

	// All iterations are recorded into a single command buffer; the stride is
	// provided through push constants before each dispatch (§V-B1) and a
	// memory barrier separates iterations.
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
	groups := bench.DivUp(threads, 256)
	for it := 0; it < iters; it++ {
		if err := cb.CmdPushConstants(pipe.Layout, 0, kernels.Words{uint32(stride), uint32(nIn)}); err != nil {
			return nil, hw.Measurement{}, err
		}
		if err := cb.CmdDispatch(groups, 1, 1); err != nil {
			return nil, hw.Measurement{}, err
		}
		if it != iters-1 {
			if err := cb.CmdPipelineBarrier(vulkan.PipelineStageComputeShaderBit, vulkan.PipelineStageComputeShaderBit,
				vulkan.MemoryBarrier{SrcAccessMask: vulkan.AccessShaderWriteBit, DstAccessMask: vulkan.AccessShaderReadBit}); err != nil {
				return nil, hw.Measurement{}, err
			}
		}
	}
	if err := cb.End(); err != nil {
		return nil, hw.Measurement{}, err
	}

	// Bandwidth is derived from device-side execution time (the sum of the
	// dispatch execution spans, including the per-iteration push-constant /
	// descriptor costs charged by the driver), matching how the bandwidth
	// figures exclude host launch overhead.
	stats, err := env.SubmitAndWait(cb)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	kernelTime := stats.KernelTime()

	out, err := env.DownloadF32(bufOut)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	return out[:threads], kernelTime, nil
}

func memBandwidthCUDA(ctx *core.RunContext, threads, nIn, stride, iters int, in kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := bench.SetupCUDA(ctx.Host, ctx.Device)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	dIn, err := env.Context.Malloc(int64(nIn) * 4)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Context.Free(dIn)
	dOut, err := env.Context.Malloc(int64(threads) * 4)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer env.Context.Free(dOut)
	if err := env.Context.MemcpyHtoD(dIn, in); err != nil {
		return nil, hw.Measurement{}, err
	}
	k, err := env.Module.GetKernel(KernelStridedRead)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	args := cuda.Args{
		Buffers: []*cuda.DevicePtr{dIn, dOut},
		Values:  kernels.Words{uint32(stride), uint32(nIn)},
	}
	grid := kernels.D1(bench.DivUp(threads, 256))
	// One warm-up launch so the timed region starts with the device hot and
	// the first-launch latency is excluded, as bandwidth microbenchmarks do.
	if err := env.Stream.Launch(k, grid, kernels.D1(256), args); err != nil {
		return nil, hw.Measurement{}, err
	}
	env.Stream.Synchronize()
	evStart := env.Context.EventCreate()
	evEnd := env.Context.EventCreate()
	evStart.Record(env.Stream)
	for it := 0; it < iters; it++ {
		if err := env.Stream.Launch(k, grid, kernels.D1(256), args); err != nil {
			return nil, hw.Measurement{}, err
		}
	}
	evEnd.Record(env.Stream)
	env.Stream.Synchronize()
	kernelTime, err := evEnd.Elapsed(evStart)
	if err != nil {
		return nil, hw.Measurement{}, err
	}

	out := make(kernels.Words, threads)
	if err := env.Context.MemcpyDtoH(out, dOut); err != nil {
		return nil, hw.Measurement{}, err
	}
	return kernels.WordsToF32(out), kernelTime, nil
}

func memBandwidthOpenCL(ctx *core.RunContext, threads, nIn, stride, iters int, in kernels.Words) ([]float32, hw.Measurement, error) {
	env, err := bench.SetupOpenCL(ctx.Host, ctx.Device, KernelStridedRead)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	bIn, err := env.Context.CreateBuffer(opencl.MemReadOnly|opencl.MemCopyHostPtr, int64(nIn)*4, in)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bIn.Release()
	bOut, err := env.Context.CreateBuffer(opencl.MemReadWrite, int64(threads)*4, nil)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	defer bOut.Release()

	k, err := env.Program.CreateKernel(KernelStridedRead)
	if err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgBuffer(0, bIn); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgBuffer(1, bOut); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgU32(2, uint32(stride)); err != nil {
		return nil, hw.Measurement{}, err
	}
	if err := k.SetArgU32(3, uint32(nIn)); err != nil {
		return nil, hw.Measurement{}, err
	}

	global := kernels.D1(bench.DivUp(threads, 256) * 256)
	evs := make([]*opencl.Event, iters)
	for it := range evs {
		if evs[it], err = env.Queue.EnqueueNDRangeKernel(k, global, kernels.D1(256)); err != nil {
			return nil, hw.Measurement{}, err
		}
	}
	kernelTime := opencl.Duration(evs...)
	env.Queue.Finish()

	out := make(kernels.Words, threads)
	if _, err := env.Queue.EnqueueReadBuffer(bOut, true, out); err != nil {
		return nil, hw.Measurement{}, err
	}
	return kernels.WordsToF32(out), kernelTime, nil
}
