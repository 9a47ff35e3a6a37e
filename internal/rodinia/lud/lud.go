// Package lud implements the LU Decomposition benchmark of Table I (dwarf:
// Dense Linear Algebra, domain: Linear Algebra). It factors a dense matrix
// into lower and upper triangular factors using the Rodinia blocked algorithm:
// per block step a diagonal kernel, a perimeter kernel and an internal kernel,
// with a data dependency between steps.
//
// The many small dependent launches make it one of the workloads with the
// best Vulkan speedups in Figures 2 and 4.
package lud

import (
	"fmt"
	"math"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/rodinia"
)

// blockSize is the Rodinia LUD tile size.
const blockSize = 16

// Kernel entry points.
const (
	kernelDiagonal  = "lud_diagonal"
	kernelPerimeter = "lud_perimeter"
	kernelInternal  = "lud_internal"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:                kernelDiagonal,
		LocalSize:           kernels.D1(blockSize),
		Bindings:            1,
		PushConstantWords:   2,
		SharedWordsPerGroup: blockSize * blockSize,
		Fn:                  diagonalKernel,
	})
	glsl.RegisterSource(kernelDiagonal, glslDiagonal)
	kernels.MustRegister(&kernels.Program{
		Name:                kernelPerimeter,
		LocalSize:           kernels.D1(blockSize),
		Bindings:            1,
		PushConstantWords:   2,
		SharedWordsPerGroup: 2 * blockSize * blockSize,
		Fn:                  perimeterKernel,
	})
	glsl.RegisterSource(kernelPerimeter, glslPerimeter)
	kernels.MustRegister(&kernels.Program{
		Name:                kernelInternal,
		LocalSize:           kernels.D2(blockSize, blockSize),
		Bindings:            1,
		PushConstantWords:   2,
		SharedWordsPerGroup: 2 * blockSize * blockSize,
		Fn:                  internalKernel,
	})
	glsl.RegisterSource(kernelInternal, glslInternal)
	core.Register(core.Descriptor{
		Name:        "lud",
		Family:      core.FamilyRodinia,
		Application: "Blocked LU decomposition of a dense matrix (Rodinia lud)",
		Dwarf:       "Dense Linear Algebra",
		Domain:      "Linear Algebra",
		Rank:        5,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Exclusions: []core.PaperExclusion{
			{Platform: platforms.IDAdreno506, API: hw.APIOpenCL, Reason: "OpenCL driver issue reported in §V-B2"},
		},
		Run: run,
	})
}

// diagonalKernel factors the diagonal block (t,t) in place (Doolittle, no
// pivoting). A single workgroup executes it; the sequential dependence chain
// is carried by the first invocation.
func diagonalKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	t := int(wg.PushU32(1))
	a := wg.Buffer(0)
	base := t * blockSize
	wg.ForEach(func(inv *kernels.Invocation) {
		if inv.LocalIndex() != 0 {
			return
		}
		for k := 0; k < blockSize; k++ {
			pivot := a.LoadF32(inv, (base+k)*n+base+k)
			for i := k + 1; i < blockSize; i++ {
				l := a.LoadF32(inv, (base+i)*n+base+k) / pivot
				a.StoreF32(inv, (base+i)*n+base+k, l)
				inv.ALU(1)
				for j := k + 1; j < blockSize; j++ {
					v := a.LoadF32(inv, (base+i)*n+base+j)
					u := a.LoadF32(inv, (base+k)*n+base+j)
					a.StoreF32(inv, (base+i)*n+base+j, v-l*u)
					inv.ALU(2)
				}
			}
		}
	})
	wg.Barrier()
}

// perimeterKernel updates one row block (t, c) and one column block (c, t)
// for c = t+1+groupID. Thread j handles column j of the row block and row j of
// the column block.
func perimeterKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	t := int(wg.PushU32(1))
	a := wg.Buffer(0)
	c := t + 1 + wg.ID().X
	tb := t * blockSize
	cb := c * blockSize
	wg.ForEach(func(inv *kernels.Invocation) {
		j := inv.LocalX()
		// Row block (t, c): forward substitution with the unit lower factor of
		// the diagonal block.
		for k := 0; k < blockSize; k++ {
			akj := a.LoadF32(inv, (tb+k)*n+cb+j)
			for i := k + 1; i < blockSize; i++ {
				l := a.LoadF32(inv, (tb+i)*n+tb+k)
				v := a.LoadF32(inv, (tb+i)*n+cb+j)
				a.StoreF32(inv, (tb+i)*n+cb+j, v-l*akj)
				inv.ALU(2)
			}
		}
		// Column block (c, t): solve against the upper factor of the diagonal
		// block.
		for k := 0; k < blockSize; k++ {
			sum := a.LoadF32(inv, (cb+j)*n+tb+k)
			for m := 0; m < k; m++ {
				lm := a.LoadF32(inv, (cb+j)*n+tb+m)
				um := a.LoadF32(inv, (tb+m)*n+tb+k)
				sum -= lm * um
				inv.ALU(2)
			}
			ukk := a.LoadF32(inv, (tb+k)*n+tb+k)
			a.StoreF32(inv, (cb+j)*n+tb+k, sum/ukk)
			inv.ALU(1)
		}
	})
	wg.Barrier()
}

// internalKernel updates the trailing blocks: A(r,c) -= A(r,t) * A(t,c).
func internalKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	t := int(wg.PushU32(1))
	a := wg.Buffer(0)
	r := t + 1 + wg.ID().Y
	c := t + 1 + wg.ID().X
	tb := t * blockSize
	rb := r * blockSize
	cb := c * blockSize
	wg.ForEach(func(inv *kernels.Invocation) {
		x := inv.LocalX()
		y := inv.LocalY()
		sum := float32(0)
		for k := 0; k < blockSize; k++ {
			l := a.LoadF32(inv, (rb+y)*n+tb+k)
			u := a.LoadF32(inv, (tb+k)*n+cb+x)
			sum += l * u
			inv.ALU(2)
		}
		v := a.LoadF32(inv, (rb+y)*n+cb+x)
		a.StoreF32(inv, (rb+y)*n+cb+x, v-sum)
		inv.ALU(1)
	})
	wg.Barrier()
}

type algorithm struct {
	n int
	a []float32
}

func (l *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{{Name: "A", Init: kernels.F32ToWords(l.a)}}
}

func (l *algorithm) Kernels() []string {
	return []string{kernelDiagonal, kernelPerimeter, kernelInternal}
}

func (l *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	nb := l.n / blockSize
	push := func(t int) kernels.Words { return kernels.Words{uint32(l.n), uint32(t)} }
	var steps []rodinia.Step
	for t := 0; t < nb-1; t++ {
		rem := nb - t - 1
		steps = append(steps,
			rodinia.Step{Kernel: kernelDiagonal, Groups: kernels.D1(1), Buffers: []int{0}, Push: push(t)},
			rodinia.Step{Kernel: kernelPerimeter, Groups: kernels.D1(rem), Buffers: []int{0}, Push: push(t)},
			rodinia.Step{Kernel: kernelInternal, Groups: kernels.D2(rem, rem), Buffers: []int{0}, Push: push(t), SyncAfter: true},
		)
	}
	steps = append(steps, rodinia.Step{
		Kernel: kernelDiagonal, Groups: kernels.D1(1), Buffers: []int{0}, Push: push(nb - 1), SyncAfter: true,
	})
	return steps, nil
}

// generate builds a diagonally dominant matrix so factoring without pivoting
// is stable, as the Rodinia input generator does.
func generate(n int) []float32 {
	a := make([]float32, n*n)
	lambda := -0.001
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			a[i*n+j] = float32(10.0 * math.Exp(lambda*float64(d)))
		}
	}
	return a
}

// reference performs the unblocked in-place factorisation on the CPU.
func reference(n int, src []float32) []float32 {
	a := append([]float32(nil), src...)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			a[i*n+k] /= a[k*n+k]
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= a[i*n+k] * a[k*n+j]
			}
		}
	}
	return a
}

// workloads: Matrix orders are scaled down from the
// paper's 256/512/2048 to keep functional simulation tractable (see
// EXPERIMENTS.md).
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
		{Label: "384", Params: map[string]int{"n": 384}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 128)
	if n%blockSize != 0 {
		return nil, fmt.Errorf("lud: matrix order %d is not a multiple of the block size %d", n, blockSize)
	}
	a := generate(n)
	alg := &algorithm{n: n, a: a}

	out, err := rodinia.Run(ctx, alg, []int{0})
	if err != nil {
		return nil, err
	}
	factored := kernels.WordsToF32(out.Buffers[0])

	if ctx.Validate {
		want := reference(n, a)
		for i := range want {
			diff := math.Abs(float64(factored[i] - want[i]))
			scale := math.Abs(float64(want[i])) + 1
			if diff/scale > 1e-3 {
				return nil, fmt.Errorf("lud: element %d = %v, want %v", i, factored[i], want[i])
			}
		}
	}
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32(factored)
	return res, nil
}

const glslDiagonal = `#version 450
layout(local_size_x = 16) in;
layout(std430, set = 0, binding = 0) buffer A { float a[]; };
layout(push_constant) uniform Params { uint n; uint t; } p;
void main() { /* in-place LU of the diagonal block (t,t); see lud_diagonal in internal/kernels */ }
`

const glslPerimeter = `#version 450
layout(local_size_x = 16) in;
layout(std430, set = 0, binding = 0) buffer A { float a[]; };
layout(push_constant) uniform Params { uint n; uint t; } p;
void main() { /* perimeter row/column block update; see lud_perimeter */ }
`

const glslInternal = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) buffer A { float a[]; };
layout(push_constant) uniform Params { uint n; uint t; } p;
void main() { /* trailing submatrix update A(r,c) -= A(r,t)*A(t,c); see lud_internal */ }
`
