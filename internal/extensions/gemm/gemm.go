// Package gemm implements a tiled dense matrix multiplication C = A x B, an
// extension workload beyond the paper's Table I suite. A single dispatch of
// 16x16 workgroups stages square tiles of A and B through shared memory and
// accumulates one output element per invocation, the standard blocked GEMM
// every GPU programming model ships as its first shared-memory example. It is
// the most compute-bound workload in the zoo, so API launch overheads matter
// least here.
package gemm

import (
	"fmt"
	"math"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

const (
	kernelName = "gemm_tiled"
	tile       = 16
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:                kernelName,
		LocalSize:           kernels.D2(tile, tile),
		Bindings:            3,
		ReadOnly:            1<<0 | 1<<1,
		PushConstantWords:   1,
		SharedWordsPerGroup: 3 * tile * tile,
		Fn:                  gemmKernel,
	})
	glsl.RegisterSource(kernelName, glslGEMM)
	core.Register(core.Descriptor{
		Name:        "gemm",
		Family:      core.FamilyExtension,
		Application: "Tiled dense matrix multiplication staged through shared memory",
		Dwarf:       "Dense Linear Algebra",
		Domain:      "Linear Algebra",
		Rank:        0,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Traffic:     traffic,
		Run:         run,
	})
}

// gemmKernel computes one 16x16 tile of C per workgroup: for each of the n/16
// tile steps it stages a tile of A and a tile of B into shared memory, then
// every invocation accumulates the 16-element dot-product contribution into
// its shared accumulator slot. The matrix order must be a multiple of the tile
// size, so every load is in-range and the traffic model is exact.
// Bindings: A, B, C (all n x n, row-major). Push: n.
func gemmKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	a := wg.Buffer(0)
	b := wg.Buffer(1)
	c := wg.Buffer(2)
	tileA := wg.SharedF32(tile * tile)
	tileB := wg.SharedF32(tile * tile)
	acc := wg.SharedF32(tile * tile)
	row0 := wg.ID().Y * tile
	col0 := wg.ID().X * tile

	for t := 0; t < n/tile; t++ {
		t := t
		wg.ForEach(func(inv *kernels.Invocation) {
			li, lj := inv.LocalY(), inv.LocalX()
			tileA[li*tile+lj] = a.LoadF32(inv, (row0+li)*n+t*tile+lj)
			tileB[li*tile+lj] = b.LoadF32(inv, (t*tile+li)*n+col0+lj)
			wg.LocalOp(2)
		})
		wg.Barrier()
		wg.ForEach(func(inv *kernels.Invocation) {
			li, lj := inv.LocalY(), inv.LocalX()
			sum := acc[li*tile+lj]
			for e := 0; e < tile; e++ {
				sum += tileA[li*tile+e] * tileB[e*tile+lj]
			}
			acc[li*tile+lj] = sum
			wg.LocalOp(2*tile + 2)
			inv.ALU(2 * tile)
		})
		wg.Barrier()
	}

	wg.ForEach(func(inv *kernels.Invocation) {
		li, lj := inv.LocalY(), inv.LocalX()
		c.StoreF32(inv, (row0+li)*n+col0+lj, acc[li*tile+lj])
	})
}

// traffic models the kernel exactly: each of the n/16 tile steps loads one
// element of A and one of B per invocation (2 * n^2 * n/16 loads in total),
// and each output element is stored once, all in one dispatch.
func traffic(w core.Workload) core.Traffic {
	n := float64(w.Param("n", 128))
	return core.Traffic{
		GlobalLoadBytes:  4 * 2 * n * n * (n / tile),
		GlobalStoreBytes: 4 * n * n,
		Dispatches:       1,
	}
}

// workloads: the label is the matrix order; all orders are multiples of the
// 16x16 tile.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "64", Params: map[string]int{"n": 64}},
			{Label: "128", Params: map[string]int{"n": 128}},
		}
	}
	return []core.Workload{
		{Label: "128", Params: map[string]int{"n": 128}},
		{Label: "256", Params: map[string]int{"n": 256}},
	}
}

type algorithm struct {
	n    int
	a, b kernels.Words
}

func (g *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "A", Init: g.a},
		{Name: "B", Init: g.b},
		{Name: "C", Words: g.n * g.n},
	}
}

func (g *algorithm) Kernels() []string { return []string{kernelName} }

func (g *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	groups := g.n / tile
	return []rodinia.Step{{
		Kernel:  kernelName,
		Groups:  kernels.D2(groups, groups),
		Buffers: []int{0, 1, 2},
		Push:    kernels.Words{uint32(g.n)},
	}}, nil
}

// reference computes C = A x B on the CPU in float64.
func reference(n int, a, b []float32) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			av := float64(a[i*n+k])
			for j := 0; j < n; j++ {
				out[i*n+j] += av * float64(b[k*n+j])
			}
		}
	}
	return out
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 128)
	if n%tile != 0 {
		return nil, fmt.Errorf("gemm: order %d is not a multiple of the tile size %d", n, tile)
	}
	a := ctx.RandomF32(ctx.Seed, n*n, -1, 1)
	b := ctx.RandomF32(ctx.Seed+1, n*n, -1, 1)
	alg := &algorithm{n: n, a: a, b: b}

	out, err := rodinia.Run(ctx, alg, []int{2})
	if err != nil {
		return nil, err
	}
	cOut := kernels.WordsToF32(out.Buffers[2])[:n*n]

	if ctx.Validate {
		want := reference(n, kernels.WordsToF32(a), kernels.WordsToF32(b))
		for i := range want {
			scale := math.Max(math.Abs(want[i]), 1)
			if math.Abs(float64(cOut[i])-want[i])/scale > 1e-3 {
				return nil, fmt.Errorf("gemm: element %d = %v, want %v", i, cOut[i], want[i])
			}
		}
	}
	t := traffic(ctx.Workload)
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32(cOut)
	res.SetExtraThroughput(core.ExtraBandwidthGBps, t.GlobalBytes())
	return res, nil
}

const glslGEMM = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) readonly buffer MatA { float A[]; };
layout(std430, set = 0, binding = 1) readonly buffer MatB { float B[]; };
layout(std430, set = 0, binding = 2) buffer MatC { float C[]; };
layout(push_constant) uniform Params { uint n; } p;
shared float tileA[16][16];
shared float tileB[16][16];
void main() {
    uint li = gl_LocalInvocationID.y, lj = gl_LocalInvocationID.x;
    uint row = gl_WorkGroupID.y * 16u + li;
    uint col = gl_WorkGroupID.x * 16u + lj;
    float acc = 0.0;
    for (uint t = 0u; t < p.n / 16u; ++t) {
        tileA[li][lj] = A[row * p.n + t * 16u + lj];
        tileB[li][lj] = B[(t * 16u + li) * p.n + col];
        barrier();
        for (uint e = 0u; e < 16u; ++e) acc += tileA[li][e] * tileB[e][lj];
        barrier();
    }
    C[row * p.n + col] = acc;
}
`
