// Package gaussian implements the Gaussian Elimination benchmark of Table I
// (dwarf: Dense Linear Algebra, domain: Linear Algebra). It solves a dense
// linear system Ax = b by forward elimination on the device (the Rodinia Fan1
// and Fan2 kernels, one pair per column) followed by back substitution on the
// host.
//
// The algorithm is iterative with a data dependency between columns, so the
// CUDA/OpenCL implementations must return to the host after every column
// (multi-kernel method) while the Vulkan implementation records every column
// into one command buffer separated by memory barriers — the workload family
// with the largest Vulkan speedups in Figure 2.
package gaussian

import (
	"fmt"
	"math"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

// Kernel entry points.
const (
	kernelFan1 = "gaussian_fan1"
	kernelFan2 = "gaussian_fan2"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelFan1,
		LocalSize:         kernels.D1(256),
		Bindings:          2,
		ReadOnly:          1 << 1,
		PushConstantWords: 2,
		Fn:                fan1Kernel,
	})
	glsl.RegisterSource(kernelFan1, glslFan1)
	kernels.MustRegister(&kernels.Program{
		Name:              kernelFan2,
		LocalSize:         kernels.D2(16, 16),
		Bindings:          3,
		ReadOnly:          1 << 0,
		PushConstantWords: 2,
		Fn:                fan2Kernel,
	})
	glsl.RegisterSource(kernelFan2, glslFan2)
	core.Register(core.Descriptor{
		Name:        "gaussian",
		Family:      core.FamilyRodinia,
		Application: "Gaussian elimination solver for dense linear systems (Rodinia gaussian)",
		Dwarf:       "Dense Linear Algebra",
		Domain:      "Linear Algebra",
		Rank:        3,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// fan1Kernel computes the multiplier column for elimination step t:
// M[i][t] = A[i][t] / A[t][t] for rows i > t.
func fan1Kernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	t := int(wg.PushU32(1))
	m := wg.Buffer(0)
	a := wg.Buffer(1)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= n-1-t {
			return
		}
		row := t + 1 + i
		pivot := a.LoadF32(inv, t*n+t)
		v := a.LoadF32(inv, row*n+t)
		m.StoreF32(inv, row*n+t, v/pivot)
		inv.ALU(1)
	})
}

// fan2Kernel updates the trailing submatrix and right-hand side for step t.
func fan2Kernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	t := int(wg.PushU32(1))
	m := wg.Buffer(0)
	a := wg.Buffer(1)
	b := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		xidx := inv.GlobalX() // row offset below the pivot
		yidx := inv.GlobalY() // column offset from the pivot
		if xidx >= n-1-t || yidx >= n-t {
			return
		}
		row := t + 1 + xidx
		col := t + yidx
		mult := m.LoadF32(inv, row*n+t)
		av := a.LoadF32(inv, row*n+col)
		pv := a.LoadF32(inv, t*n+col)
		a.StoreF32(inv, row*n+col, av-mult*pv)
		inv.ALU(2)
		if yidx == 0 {
			bv := b.LoadF32(inv, row)
			bt := b.LoadF32(inv, t)
			b.StoreF32(inv, row, bv-mult*bt)
			inv.ALU(2)
		}
	})
}

// algorithm drives the n-1 elimination steps.
type algorithm struct {
	n int
	a []float32
	b []float32
}

func (g *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "M", Words: g.n * g.n},
		{Name: "A", Init: kernels.F32ToWords(g.a)},
		{Name: "B", Init: kernels.F32ToWords(g.b)},
	}
}

func (g *algorithm) Kernels() []string { return []string{kernelFan1, kernelFan2} }

func (g *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	var steps []rodinia.Step
	for t := 0; t < g.n-1; t++ {
		remRows := g.n - 1 - t
		remCols := g.n - t
		steps = append(steps,
			rodinia.Step{
				Kernel:  kernelFan1,
				Groups:  kernels.D1((remRows + 255) / 256),
				Buffers: []int{0, 1},
				Push:    kernels.Words{uint32(g.n), uint32(t)},
			},
			rodinia.Step{
				Kernel:  kernelFan2,
				Groups:  kernels.D2((remRows+15)/16, (remCols+15)/16),
				Buffers: []int{0, 1, 2},
				Push:    kernels.Words{uint32(g.n), uint32(t)},
				// Iteration boundary: the next column depends on this one.
				SyncAfter: true,
			},
		)
	}
	return steps, nil
}

// generate builds a diagonally dominant system so elimination without
// pivoting is numerically stable, following the Rodinia input generator.
func generate(seed int64, n int) (a, b []float32) {
	a = make([]float32, n*n)
	b = make([]float32, n)
	lambda := -0.01
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			coe := 10.0 * math.Exp(lambda*float64(d))
			a[i*n+j] = float32(coe)
		}
		b[i] = 1.0
	}
	_ = seed
	return a, b
}

// backSubstitute solves the upper-triangular system left after elimination.
func backSubstitute(n int, a, b []float32) []float32 {
	x := make([]float32, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i*n+j] * x[j]
		}
		x[i] = sum / a[i*n+i]
	}
	return x
}

// referenceSolve performs the whole elimination and substitution on the CPU.
func referenceSolve(n int, a, b []float32) []float32 {
	ac := append([]float32(nil), a...)
	bc := append([]float32(nil), b...)
	for t := 0; t < n-1; t++ {
		for i := t + 1; i < n; i++ {
			mult := ac[i*n+t] / ac[t*n+t]
			for j := t; j < n; j++ {
				ac[i*n+j] -= mult * ac[t*n+j]
			}
			bc[i] -= mult * bc[t]
		}
	}
	return backSubstitute(n, ac, bc)
}

// workloads: The desktop matrix orders are scaled
// down from the paper's 208/1024/2048 to keep functional simulation tractable
// (see EXPERIMENTS.md); the trend across three increasing sizes is preserved.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "128", Params: map[string]int{"n": 128}},
			{Label: "256", Params: map[string]int{"n": 256}},
		}
	}
	return []core.Workload{
		{Label: "208", Params: map[string]int{"n": 208}},
		{Label: "320", Params: map[string]int{"n": 320}},
		{Label: "448", Params: map[string]int{"n": 448}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 208)
	a, b := generate(ctx.Seed, n)
	alg := &algorithm{n: n, a: a, b: b}

	out, err := rodinia.Run(ctx, alg, []int{1, 2})
	if err != nil {
		return nil, err
	}
	finalA := kernels.WordsToF32(out.Buffers[1])
	finalB := kernels.WordsToF32(out.Buffers[2])
	x := backSubstitute(n, finalA, finalB)

	if ctx.Validate {
		want := referenceSolve(n, a, b)
		for i := range x {
			if diff := math.Abs(float64(x[i] - want[i])); diff > 1e-2 {
				return nil, fmt.Errorf("gaussian: x[%d] = %v, want %v (diff %v)", i, x[i], want[i], diff)
			}
		}
	}
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32(x)
	return res, nil
}

const glslFan1 = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer M { float m[]; };
layout(std430, set = 0, binding = 1) readonly buffer A { float a[]; };
layout(push_constant) uniform Params { uint n; uint t; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.n - 1 - p.t) return;
    uint row = p.t + 1 + i;
    m[row * p.n + p.t] = a[row * p.n + p.t] / a[p.t * p.n + p.t];
}
`

const glslFan2 = `#version 450
layout(local_size_x = 16, local_size_y = 16) in;
layout(std430, set = 0, binding = 0) readonly buffer M { float m[]; };
layout(std430, set = 0, binding = 1) buffer A { float a[]; };
layout(std430, set = 0, binding = 2) buffer B { float b[]; };
layout(push_constant) uniform Params { uint n; uint t; } p;
void main() {
    uint xidx = gl_GlobalInvocationID.x;
    uint yidx = gl_GlobalInvocationID.y;
    if (xidx >= p.n - 1 - p.t || yidx >= p.n - p.t) return;
    uint row = p.t + 1 + xidx;
    uint col = p.t + yidx;
    float mult = m[row * p.n + p.t];
    a[row * p.n + col] -= mult * a[p.t * p.n + col];
    if (yidx == 0) { b[row] -= mult * b[p.t]; }
}
`
