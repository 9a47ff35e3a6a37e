// Package nw implements the Needleman-Wunsch benchmark of Table I (dwarf:
// Dynamic Programming, domain: Bioinformatics). It fills the global-alignment
// score matrix of two DNA sequences in 16x16 blocks, processing one
// anti-diagonal of blocks per kernel launch: a first pass walks the diagonals
// of the upper-left triangle and a second pass the lower-right triangle, as
// the Rodinia needle kernels do.
//
// Following §V-A2, the Vulkan port submits each diagonal step in its own
// command buffer rather than batching them, so the three APIs end up close to
// each other on this workload.
package nw

import (
	"fmt"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

// blockSize is the Rodinia needle tile size.
const blockSize = 16

const kernelName = "nw_kernel"

// Scoring constants: simplified substitution scores standing in for the
// BLOSUM62 table used by Rodinia, and the gap penalty.
const (
	matchScore    = 5
	mismatchScore = -3
	gapPenalty    = 10
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:                kernelName,
		LocalSize:           kernels.D1(blockSize),
		Bindings:            3,
		PushConstantWords:   4,
		SharedWordsPerGroup: (blockSize + 1) * (blockSize + 1),
		Fn:                  nwKernel,
	})
	glsl.RegisterSource(kernelName, glslNW)
	core.Register(core.Descriptor{
		Name:        "nw",
		Family:      core.FamilyRodinia,
		Application: "Needleman-Wunsch DNA sequence alignment scoring (Rodinia nw)",
		Dwarf:       "Dynamic Programming",
		Domain:      "Bioinformatics",
		Rank:        7,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// nwKernel processes one anti-diagonal of 16x16 blocks of the score matrix.
// Push constants: dim (n+1), number of row/col blocks nb, diagonal index,
// pass (1 = upper-left triangle, 2 = lower-right triangle).
// Bindings: score matrix F ((n+1)^2 ints), sequence 1 (rows), sequence 2
// (columns).
func nwKernel(wg *kernels.Workgroup) {
	dim := int(wg.PushU32(0))
	nb := int(wg.PushU32(1))
	diag := int(wg.PushU32(2))
	pass := int(wg.PushU32(3))
	f := wg.Buffer(0)
	seq1 := wg.Buffer(1)
	seq2 := wg.Buffer(2)

	g := wg.ID().X
	var br, bc int
	if pass == 1 {
		br = g
		bc = diag - g
	} else {
		br = diag + g
		bc = nb - 1 + diag - br
	}
	if br < 0 || bc < 0 || br >= nb || bc >= nb {
		return
	}
	rowBase := 1 + br*blockSize
	colBase := 1 + bc*blockSize

	// The block's internal wavefront is carried by the first invocation; the
	// block is small enough that the Rodinia shared-memory wavefront and this
	// sequential sweep touch the same global data.
	wg.ForEach(func(inv *kernels.Invocation) {
		if inv.LocalIndex() != 0 {
			return
		}
		for y := 0; y < blockSize; y++ {
			r := rowBase + y
			a := seq1.LoadI32(inv, r)
			for x := 0; x < blockSize; x++ {
				c := colBase + x
				b := seq2.LoadI32(inv, c)
				s := int32(mismatchScore)
				if a == b {
					s = matchScore
				}
				nw := f.LoadI32(inv, (r-1)*dim+c-1) + s
				up := f.LoadI32(inv, (r-1)*dim+c) - gapPenalty
				left := f.LoadI32(inv, r*dim+c-1) - gapPenalty
				best := nw
				if up > best {
					best = up
				}
				if left > best {
					best = left
				}
				f.StoreI32(inv, r*dim+c, best)
				inv.ALU(6)
			}
		}
	})
	wg.Barrier()
}

type algorithm struct {
	n    int // sequence length; matrix dimension is n+1
	seq1 kernels.Words
	seq2 kernels.Words
}

func (a *algorithm) dim() int { return a.n + 1 }

func (a *algorithm) Buffers() []rodinia.BufferSpec {
	dim := a.dim()
	f := make(kernels.Words, dim*dim)
	for i := 1; i < dim; i++ {
		f[i*dim] = uint32(int32(-i * gapPenalty))
		f[i] = uint32(int32(-i * gapPenalty))
	}
	s1 := make(kernels.Words, dim)
	s2 := make(kernels.Words, dim)
	copy(s1[1:], a.seq1)
	copy(s2[1:], a.seq2)
	return []rodinia.BufferSpec{
		{Name: "score", Init: f},
		{Name: "seq1", Init: s1},
		{Name: "seq2", Init: s2},
	}
}

func (a *algorithm) Kernels() []string { return []string{kernelName} }

// SeparateSubmits implements rodinia.SeparateSubmits (§V-A2).
func (a *algorithm) SeparateSubmits() bool { return true }

func (a *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	nb := a.n / blockSize
	dim := a.dim()
	var steps []rodinia.Step
	for d := 0; d < nb; d++ {
		steps = append(steps, rodinia.Step{
			Kernel:    kernelName,
			Groups:    kernels.D1(d + 1),
			Buffers:   []int{0, 1, 2},
			Push:      kernels.Words{uint32(dim), uint32(nb), uint32(d), 1},
			SyncAfter: true,
		})
	}
	for d := 1; d < nb; d++ {
		steps = append(steps, rodinia.Step{
			Kernel:    kernelName,
			Groups:    kernels.D1(nb - d),
			Buffers:   []int{0, 1, 2},
			Push:      kernels.Words{uint32(dim), uint32(nb), uint32(d), 2},
			SyncAfter: true,
		})
	}
	return steps, nil
}

// reference fills the same score matrix on the CPU.
func reference(n int, seq1, seq2 []int32) []int32 {
	dim := n + 1
	f := make([]int32, dim*dim)
	for i := 1; i < dim; i++ {
		f[i*dim] = int32(-i * gapPenalty)
		f[i] = int32(-i * gapPenalty)
	}
	for r := 1; r < dim; r++ {
		for c := 1; c < dim; c++ {
			s := int32(mismatchScore)
			if seq1[r-1] == seq2[c-1] {
				s = matchScore
			}
			best := f[(r-1)*dim+c-1] + s
			if up := f[(r-1)*dim+c] - gapPenalty; up > best {
				best = up
			}
			if left := f[r*dim+c-1] - gapPenalty; left > best {
				best = left
			}
			f[r*dim+c] = best
		}
	}
	return f
}

// workloads: Sequence lengths are scaled down from
// the paper's 4K/8K/16K (see EXPERIMENTS.md).
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "512", Params: map[string]int{"n": 512}},
			{Label: "1K", Params: map[string]int{"n": 1 << 10}},
		}
	}
	return []core.Workload{
		{Label: "1K", Params: map[string]int{"n": 1 << 10}},
		{Label: "2K", Params: map[string]int{"n": 2 << 10}},
		{Label: "4K", Params: map[string]int{"n": 4 << 10}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 1<<10)
	if n%blockSize != 0 {
		return nil, fmt.Errorf("nw: sequence length %d is not a multiple of the block size %d", n, blockSize)
	}
	seq1 := ctx.RandomI32(ctx.Seed, n, 1, 21)
	seq2 := ctx.RandomI32(ctx.Seed+1, n, 1, 21)
	alg := &algorithm{n: n, seq1: seq1, seq2: seq2}

	out, err := rodinia.Run(ctx, alg, []int{0})
	if err != nil {
		return nil, err
	}
	score := kernels.WordsToI32(out.Buffers[0])

	if ctx.Validate {
		want := reference(n, kernels.WordsToI32(seq1), kernels.WordsToI32(seq2))
		for i := range want {
			if score[i] != want[i] {
				return nil, fmt.Errorf("nw: cell %d = %d, want %d", i, score[i], want[i])
			}
		}
	}
	dim := n + 1
	final := float32(score[dim*dim-1])
	sample := []float32{final, float32(score[dim+1]), float32(score[(dim-1)*dim/2])}
	return &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(sample),
	}, nil
}

const glslNW = `#version 450
layout(local_size_x = 16) in;
layout(std430, set = 0, binding = 0) buffer Score { int f[]; };
layout(std430, set = 0, binding = 1) buffer Seq1  { int seq1[]; };
layout(std430, set = 0, binding = 2) buffer Seq2  { int seq2[]; };
layout(push_constant) uniform Params { uint dim; uint nb; uint diag; uint pass; } p;
void main() { /* anti-diagonal block wavefront; see nw_kernel in internal/kernels */ }
`
