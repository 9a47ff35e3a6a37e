// Package reduction implements a parallel sum reduction, an extension
// workload beyond the paper's Table I suite. Each pass reduces 512 elements
// per 256-invocation workgroup through a shared-memory tree; passes repeat on
// the partial sums until one element remains. The dependent multi-pass
// structure makes it launch-overhead-sensitive like the paper's dynamic
// programming workloads, while the shared-memory tree exercises local memory.
package reduction

import (
	"fmt"
	"math"

	"vcomputebench/internal/bench"
	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

const (
	kernelName    = "reduction_sum"
	groupSize     = 256
	elemsPerGroup = 2 * groupSize
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:                kernelName,
		LocalSize:           kernels.D1(groupSize),
		Bindings:            2,
		ReadOnly:            1 << 0,
		PushConstantWords:   1,
		SharedWordsPerGroup: groupSize,
		Fn:                  reductionKernel,
	})
	glsl.RegisterSource(kernelName, glslReduction)
	core.Register(core.Descriptor{
		Name:        "reduction",
		Family:      core.FamilyExtension,
		Application: "Multi-pass parallel sum reduction with a shared-memory tree",
		Dwarf:       "MapReduce",
		Domain:      "Data Analytics",
		Rank:        1,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Traffic:     traffic,
		Run:         run,
	})
}

// reductionKernel sums 512 input elements per workgroup: every invocation
// loads two elements, then a shared-memory tree halves the active invocations
// each step, and invocation 0 stores the group's sum.
// Bindings: in, out (one element per group). Push: n.
func reductionKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	in := wg.Buffer(0)
	out := wg.Buffer(1)
	shared := wg.SharedF32(groupSize)
	base := wg.ID().X * elemsPerGroup

	// Phase 1: each invocation loads its two elements (guarded, so the global
	// load count is exactly n across the dispatch).
	wg.ForEach(func(inv *kernels.Invocation) {
		i := base + 2*inv.LocalX()
		var s float32
		if i < n {
			s = in.LoadF32(inv, i)
		}
		if i+1 < n {
			s += in.LoadF32(inv, i+1)
			inv.ALU(1)
		}
		shared[inv.LocalX()] = s
		wg.LocalOp(1)
	})
	wg.Barrier()

	// Tree reduction: the stride halves each step, with a barrier between
	// steps as in the classic CUDA reduction kernel.
	for stride := groupSize / 2; stride > 0; stride /= 2 {
		s := stride
		wg.ForEach(func(inv *kernels.Invocation) {
			j := inv.LocalX()
			if j < s {
				shared[j] += shared[j+s]
				wg.LocalOp(2)
				inv.ALU(1)
			}
		})
		wg.Barrier()
	}

	wg.ForEach(func(inv *kernels.Invocation) {
		if inv.LocalX() == 0 {
			out.StoreF32(inv, wg.ID().X, shared[0])
		}
	})
}

// passes returns the element count entering each reduction pass.
func passes(n int) []int {
	var out []int
	for n > 1 {
		out = append(out, n)
		n = bench.DivUp(n, elemsPerGroup)
	}
	return out
}

// traffic models the kernel exactly: every pass loads each of its n_k input
// elements once and stores one partial sum per workgroup.
func traffic(w core.Workload) core.Traffic {
	var loads, stores float64
	var dispatches int
	for _, n := range passes(w.Param("n", 1<<20)) {
		loads += float64(n)
		stores += float64(bench.DivUp(n, elemsPerGroup))
		dispatches++
	}
	return core.Traffic{GlobalLoadBytes: 4 * loads, GlobalStoreBytes: 4 * stores, Dispatches: dispatches}
}

func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "64K", Params: map[string]int{"n": 64 << 10}},
			{Label: "256K", Params: map[string]int{"n": 256 << 10}},
		}
	}
	return []core.Workload{
		{Label: "256K", Params: map[string]int{"n": 256 << 10}},
		{Label: "1M", Params: map[string]int{"n": 1 << 20}},
		{Label: "4M", Params: map[string]int{"n": 4 << 20}},
	}
}

type algorithm struct {
	n     int
	input kernels.Words
}

func (a *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "data", Init: a.input},
		{Name: "partial", Words: bench.DivUp(a.n, elemsPerGroup)},
	}
}

func (a *algorithm) Kernels() []string { return []string{kernelName} }

func (a *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	var steps []rodinia.Step
	src, dst := 0, 1
	for _, n := range passes(a.n) {
		steps = append(steps, rodinia.Step{
			Kernel:    kernelName,
			Groups:    kernels.D1(bench.DivUp(n, elemsPerGroup)),
			Buffers:   []int{src, dst},
			Push:      kernels.Words{uint32(n)},
			SyncAfter: true, // each pass consumes the previous pass's output
		})
		src, dst = dst, src
	}
	return steps, nil
}

// finalBuffer is the buffer holding the total after all passes.
func (a *algorithm) finalBuffer() int { return len(passes(a.n)) % 2 }

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 1<<20)
	input := ctx.RandomF32(ctx.Seed, n, -1, 1)
	alg := &algorithm{n: n, input: input}

	out, err := rodinia.Run(ctx, alg, []int{alg.finalBuffer()})
	if err != nil {
		return nil, err
	}
	total := kernels.WordsToF32(out.Buffers[alg.finalBuffer()])[0]

	if ctx.Validate {
		want := 0.0
		for _, v := range kernels.WordsToF32(input) {
			want += float64(v)
		}
		scale := math.Max(math.Abs(want), 1)
		if math.Abs(float64(total)-want)/scale > 1e-3 {
			return nil, fmt.Errorf("reduction: sum = %v, want %v", total, want)
		}
	}
	t := traffic(ctx.Workload)
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32([]float32{total})
	res.SetExtraThroughput(core.ExtraBandwidthGBps, t.GlobalBytes())
	return res, nil
}

const glslReduction = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) readonly buffer In  { float data[]; };
layout(std430, set = 0, binding = 1) buffer Out { float part[]; };
layout(push_constant) uniform Params { uint n; } p;
shared float sdata[256];
void main() {
    uint tid = gl_LocalInvocationID.x;
    uint i = gl_WorkGroupID.x * 512u + 2u * tid;
    float s = 0.0;
    if (i < p.n)      s  = data[i];
    if (i + 1u < p.n) s += data[i + 1u];
    sdata[tid] = s;
    barrier();
    for (uint stride = 128u; stride > 0u; stride >>= 1u) {
        if (tid < stride) sdata[tid] += sdata[tid + stride];
        barrier();
    }
    if (tid == 0u) part[gl_WorkGroupID.x] = sdata[0];
}
`
