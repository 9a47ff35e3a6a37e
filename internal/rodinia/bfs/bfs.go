// Package bfs implements the Breadth-First Search benchmark of Table I
// (dwarf: Graph Traversal, domain: Graph Theory). It traverses a random graph
// level by level using the classic Rodinia two-kernel formulation: kernel 1
// expands the current frontier, kernel 2 builds the next frontier and raises a
// stop flag that the host reads back after every level.
//
// bfs is memory bound; the paper's CodeXL analysis found that the OpenCL
// driver compiler stages its repeated global loads in workgroup-local memory
// while the Vulkan compiler does not, which is why Vulkan shows a slowdown on
// this workload (§V-A2). The kernels are therefore flagged as local-memory
// candidates so that driver effect is reproduced by the timing model.
package bfs

import (
	"fmt"
	"math/rand"

	"vcomputebench/internal/core"
	"vcomputebench/internal/glsl"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/rodinia"
)

// Kernel entry points.
const (
	kernel1 = "bfs_kernel1"
	kernel2 = "bfs_kernel2"
)

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernel1,
		LocalSize:         kernels.D1(256),
		Bindings:          6,
		ReadOnly:          1<<0 | 1<<1 | 1<<4,
		PushConstantWords: 1,
		LocalMemCandidate: true,
		Exact:             true,
		Fn:                expandKernel,
	})
	glsl.RegisterSource(kernel1, glslKernel1)
	kernels.MustRegister(&kernels.Program{
		Name:              kernel2,
		LocalSize:         kernels.D1(256),
		Bindings:          4,
		PushConstantWords: 1,
		LocalMemCandidate: true,
		Exact:             true,
		Fn:                frontierKernel,
	})
	glsl.RegisterSource(kernel2, glslKernel2)
	core.Register(core.Descriptor{
		Name:        "bfs",
		Family:      core.FamilyRodinia,
		Application: "Level-synchronous breadth-first search over a random graph (Rodinia bfs)",
		Dwarf:       "Graph Traversal",
		Domain:      "Graph Theory",
		Rank:        0,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// expandKernel visits the neighbours of every node in the current frontier.
// Bindings: nodes (start,count pairs), edges, mask, updating_mask, visited,
// cost.
func expandKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	nodes := wg.Buffer(0)
	edges := wg.Buffer(1)
	mask := wg.Buffer(2)
	updating := wg.Buffer(3)
	visited := wg.Buffer(4)
	cost := wg.Buffer(5)
	wg.ForEach(func(inv *kernels.Invocation) {
		tid := inv.GlobalX()
		if tid >= n {
			return
		}
		if mask.LoadU32(inv, tid) == 0 {
			return
		}
		mask.StoreU32(inv, tid, 0)
		start := int(nodes.LoadU32(inv, 2*tid))
		count := int(nodes.LoadU32(inv, 2*tid+1))
		myCost := cost.LoadI32(inv, tid)
		for e := start; e < start+count; e++ {
			id := int(edges.LoadU32(inv, e))
			if visited.LoadU32(inv, id) == 0 {
				// Frontier nodes that share a neighbour store the same
				// values to it.
				cost.StoreU32Shared(inv, id, uint32(myCost+1))
				updating.StoreU32Shared(inv, id, 1)
			}
			inv.ALU(2)
		}
	})
}

// frontierKernel promotes the updating mask to the next frontier and raises
// the stop flag. Bindings: mask, updating_mask, visited, stop.
func frontierKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	mask := wg.Buffer(0)
	updating := wg.Buffer(1)
	visited := wg.Buffer(2)
	stop := wg.Buffer(3)
	wg.ForEach(func(inv *kernels.Invocation) {
		tid := inv.GlobalX()
		if tid >= n {
			return
		}
		if updating.LoadU32(inv, tid) == 0 {
			return
		}
		mask.StoreU32(inv, tid, 1)
		visited.StoreU32(inv, tid, 1)
		stop.StoreU32Shared(inv, 0, 1)
		updating.StoreU32(inv, tid, 0)
		inv.ALU(1)
	})
}

// graph is a CSR graph.
type graph struct {
	n     int
	start []uint32 // interleaved (start, count) pairs
	edges []uint32
}

// generate builds a random graph with average degree ~6, like the Rodinia
// graph generator.
func generate(seed int64, n int) *graph {
	//lint:allow(the graph seed is a fixed workload constant, so the generated topology is identical every run)
	rng := rand.New(rand.NewSource(seed))
	// Degrees are 2-7, so the edges never outgrow 7n.
	g := &graph{n: n, start: make([]uint32, 2*n), edges: make([]uint32, 0, 7*n)}
	for i := 0; i < n; i++ {
		deg := 2 + rng.Intn(6)
		g.start[2*i] = uint32(len(g.edges))
		g.start[2*i+1] = uint32(deg)
		for d := 0; d < deg; d++ {
			g.edges = append(g.edges, uint32(rng.Intn(n)))
		}
	}
	return g
}

// referenceBFS computes the level of every node from source 0 on the CPU.
func referenceBFS(g *graph) []int32 {
	cost := make([]int32, g.n)
	for i := range cost {
		cost[i] = -1
	}
	cost[0] = 0
	queue := []int{0}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		start := int(g.start[2*node])
		count := int(g.start[2*node+1])
		for e := start; e < start+count; e++ {
			id := int(g.edges[e])
			if cost[id] == -1 {
				cost[id] = cost[node] + 1
				queue = append(queue, id)
			}
		}
	}
	return cost
}

// Buffer indices of the algorithm.
const (
	bufNodes = iota
	bufEdges
	bufMask
	bufUpdating
	bufVisited
	bufCost
	bufStop
)

type algorithm struct {
	g *graph
}

func (b *algorithm) Buffers() []rodinia.BufferSpec {
	n := b.g.n
	mask := make(kernels.Words, n)
	visited := make(kernels.Words, n)
	cost := make([]int32, n)
	for i := range cost {
		cost[i] = -1
	}
	mask[0] = 1
	visited[0] = 1
	cost[0] = 0
	return []rodinia.BufferSpec{
		bufNodes:    {Name: "nodes", Init: kernels.U32ToWords(b.g.start)},
		bufEdges:    {Name: "edges", Init: kernels.U32ToWords(b.g.edges)},
		bufMask:     {Name: "mask", Init: mask},
		bufUpdating: {Name: "updating_mask", Words: n},
		bufVisited:  {Name: "visited", Init: visited},
		bufCost:     {Name: "cost", Init: kernels.I32ToWords(cost)},
		bufStop:     {Name: "stop", Words: 1},
	}
}

func (b *algorithm) Kernels() []string { return []string{kernel1, kernel2} }

func (b *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		// The multi-kernel loop termination: read the stop flag back to the
		// host after every level, as the Rodinia implementations do.
		stop, err := io.Read(bufStop)
		if err != nil {
			return nil, err
		}
		if stop[0] == 0 {
			return nil, nil
		}
		if err := io.Write(bufStop, kernels.Words{0}); err != nil {
			return nil, err
		}
	}
	if phase > b.g.n {
		return nil, fmt.Errorf("bfs: traversal did not terminate after %d levels", phase)
	}
	groups := kernels.D1((b.g.n + 255) / 256)
	push := kernels.Words{uint32(b.g.n)}
	return []rodinia.Step{
		{Kernel: kernel1, Groups: groups, Buffers: []int{bufNodes, bufEdges, bufMask, bufUpdating, bufVisited, bufCost}, Push: push},
		{Kernel: kernel2, Groups: groups, Buffers: []int{bufMask, bufUpdating, bufVisited, bufStop}, Push: push},
	}, nil
}

func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "4k", Params: map[string]int{"nodes": 4 << 10}},
			{Label: "16k", Params: map[string]int{"nodes": 16 << 10}},
			{Label: "64K", Params: map[string]int{"nodes": 64 << 10}},
			{Label: "256K", Params: map[string]int{"nodes": 256 << 10}},
		}
	}
	return []core.Workload{
		{Label: "4K", Params: map[string]int{"nodes": 4 << 10}},
		{Label: "64K", Params: map[string]int{"nodes": 64 << 10}},
		{Label: "1M", Params: map[string]int{"nodes": 1 << 20}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("nodes", 4<<10)
	g := generate(ctx.Seed, n)
	alg := &algorithm{g: g}

	out, err := rodinia.Run(ctx, alg, []int{bufCost})
	if err != nil {
		return nil, err
	}
	cost := kernels.WordsToI32(out.Buffers[bufCost])[:n]

	if ctx.Validate {
		want := referenceBFS(g)
		for i := range want {
			if cost[i] != want[i] {
				return nil, fmt.Errorf("bfs: node %d has level %d, want %d", i, cost[i], want[i])
			}
		}
	}
	asF := make([]float32, n)
	for i, v := range cost {
		asF[i] = float32(v)
	}
	res := ctx.Result(out.KernelTime)
	res.Dispatches = out.Dispatches
	res.Checksum = core.ChecksumF32(asF)
	return res, nil
}

const glslKernel1 = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) readonly buffer Nodes    { uint nodes[]; };
layout(std430, set = 0, binding = 1) readonly buffer Edges    { uint edges[]; };
layout(std430, set = 0, binding = 2) buffer Mask     { uint mask[]; };
layout(std430, set = 0, binding = 3) buffer Updating { uint updating[]; };
layout(std430, set = 0, binding = 4) readonly buffer Visited  { uint visited[]; };
layout(std430, set = 0, binding = 5) buffer Cost     { int cost[]; };
layout(push_constant) uniform Params { uint n; } p;
void main() {
    uint tid = gl_GlobalInvocationID.x;
    if (tid >= p.n || mask[tid] == 0u) return;
    mask[tid] = 0u;
    uint start = nodes[2u*tid], count = nodes[2u*tid+1u];
    for (uint e = start; e < start + count; e++) {
        uint id = edges[e];
        if (visited[id] == 0u) { cost[id] = cost[tid] + 1; updating[id] = 1u; }
    }
}
`

const glslKernel2 = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer Mask     { uint mask[]; };
layout(std430, set = 0, binding = 1) buffer Updating { uint updating[]; };
layout(std430, set = 0, binding = 2) buffer Visited  { uint visited[]; };
layout(std430, set = 0, binding = 3) buffer Stop     { uint stop[]; };
layout(push_constant) uniform Params { uint n; } p;
void main() {
    uint tid = gl_GlobalInvocationID.x;
    if (tid >= p.n || updating[tid] == 0u) return;
    mask[tid] = 1u; visited[tid] = 1u; stop[0] = 1u; updating[tid] = 0u;
}
`
