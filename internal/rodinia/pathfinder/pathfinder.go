// Package pathfinder implements the PathFinder benchmark of Table I (dwarf:
// Dynamic Programming, domain: Grid Traversal). It computes, for a 2-D cost
// grid, the minimum accumulated cost of a path from the top row to every cell
// of the bottom row, processing one row per kernel launch with ping-ponged
// cost buffers.
//
// With ~100 very small dispatches separated by data dependencies it is the
// most launch-overhead-bound workload of the suite and shows the largest
// Vulkan speedups in Figures 2 and 4.
package pathfinder

import (
	"fmt"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

const kernelName = "pathfinder_kernel"

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelName,
		LocalSize:         kernels.D1(256),
		Bindings:          3,
		PushConstantWords: 2,
		Fn:                pathfinderKernel,
	})
	glsl.RegisterSource(kernelName, glslPathfinder)
	core.Register(core.Descriptor{
		Name:        "pathfinder",
		Family:      core.FamilyRodinia,
		Application: "Dynamic-programming search for the cheapest path through a 2-D grid (Rodinia pathfinder)",
		Dwarf:       "Dynamic Programming",
		Domain:      "Grid Traversal",
		Rank:        8,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// pathfinderKernel computes dst[j] = wall[row][j] + min(src[j-1], src[j], src[j+1]).
func pathfinderKernel(wg *kernels.Workgroup) {
	cols := int(wg.PushU32(0))
	row := int(wg.PushU32(1))
	wall := wg.Buffer(0)
	src := wg.Buffer(1)
	dst := wg.Buffer(2)
	wg.ForEach(func(inv *kernels.Invocation) {
		j := inv.GlobalX()
		if j >= cols {
			return
		}
		best := src.LoadI32(inv, j)
		if j > 0 {
			if l := src.LoadI32(inv, j-1); l < best {
				best = l
			}
		}
		if j < cols-1 {
			if r := src.LoadI32(inv, j+1); r < best {
				best = r
			}
		}
		w := wall.LoadI32(inv, row*cols+j)
		dst.StoreI32(inv, j, w+best)
		inv.ALU(4)
	})
}

type algorithm struct {
	rows, cols int
	wall       kernels.Words
}

// Buffers seeds the first result row with the wall's first row. Both specs
// share the wall's words: every upload copies them into device memory.
func (p *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "wall", Init: p.wall},
		{Name: "resultA", Init: p.wall[:p.cols:p.cols]},
		{Name: "resultB", Words: p.cols},
	}
}

func (p *algorithm) Kernels() []string { return []string{kernelName} }

func (p *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	groups := kernels.D1((p.cols + 255) / 256)
	var steps []rodinia.Step
	src, dst := 1, 2
	for row := 1; row < p.rows; row++ {
		steps = append(steps, rodinia.Step{
			Kernel:    kernelName,
			Groups:    groups,
			Buffers:   []int{0, src, dst},
			Push:      kernels.Words{uint32(p.cols), uint32(row)},
			SyncAfter: true,
		})
		src, dst = dst, src
	}
	return steps, nil
}

// finalBuffer is the buffer holding the result after rows-1 ping-pong steps.
func (p *algorithm) finalBuffer() int {
	if (p.rows-1)%2 == 1 {
		return 2
	}
	return 1
}

// reference computes the same dynamic program on the CPU.
func reference(rows, cols int, wall []int32) []int32 {
	src := make([]int32, cols)
	dst := make([]int32, cols)
	copy(src, wall[:cols])
	for row := 1; row < rows; row++ {
		for j := 0; j < cols; j++ {
			best := src[j]
			if j > 0 && src[j-1] < best {
				best = src[j-1]
			}
			if j < cols-1 && src[j+1] < best {
				best = src[j+1]
			}
			dst[j] = wall[row*cols+j] + best
		}
		src, dst = dst, src
	}
	return src
}

// workloads: the label is the number of columns as in Figure 2; the grid has
// 100 rows (Rodinia's default), i.e. 99 dependent kernel launches.
func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "512", Params: map[string]int{"cols": 512, "rows": 100}},
			{Label: "1024", Params: map[string]int{"cols": 1024, "rows": 100}},
		}
	}
	return []core.Workload{
		{Label: "10K", Params: map[string]int{"cols": 10_000, "rows": 100}},
		{Label: "50K", Params: map[string]int{"cols": 50_000, "rows": 100}},
		{Label: "100K", Params: map[string]int{"cols": 100_000, "rows": 100}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	cols := ctx.Workload.Param("cols", 10_000)
	rows := ctx.Workload.Param("rows", 100)
	wall := ctx.RandomI32(ctx.Seed, rows*cols, 0, 10)
	alg := &algorithm{rows: rows, cols: cols, wall: wall}

	out, err := rodinia.Run(ctx, alg, []int{alg.finalBuffer()})
	if err != nil {
		return nil, err
	}
	result := kernels.WordsToI32(out.Buffers[alg.finalBuffer()])[:cols]

	if ctx.Validate {
		want := reference(rows, cols, kernels.WordsToI32(wall))
		for j := range want {
			if result[j] != want[j] {
				return nil, fmt.Errorf("pathfinder: column %d = %d, want %d", j, result[j], want[j])
			}
		}
	}
	sum := make([]float32, len(result))
	for i, v := range result {
		sum[i] = float32(v)
	}
	return &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(sum),
	}, nil
}

const glslPathfinder = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer Wall { int wall[]; };
layout(std430, set = 0, binding = 1) buffer Src  { int src[]; };
layout(std430, set = 0, binding = 2) buffer Dst  { int dst[]; };
layout(push_constant) uniform Params { uint cols; uint row; } p;
void main() {
    uint j = gl_GlobalInvocationID.x;
    if (j >= p.cols) return;
    int best = src[j];
    if (j > 0)          best = min(best, src[j - 1]);
    if (j < p.cols - 1) best = min(best, src[j + 1]);
    dst[j] = wall[p.row * p.cols + j] + best;
}
`
