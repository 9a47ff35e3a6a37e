// Package nn implements the K-Nearest Neighbors benchmark of Table I (dwarf:
// Dense Linear Algebra, domain: Data Mining). A single kernel computes the
// Euclidean distance from a query point to every reference point
// (latitude/longitude records, as in Rodinia's hurricane data set); the host
// then selects the K closest records.
//
// With a single large dispatch and no inter-iteration dependencies, the three
// APIs perform nearly identically on this workload (§V-A2); the Vulkan port
// uses its own command buffer per dispatch.
package nn

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

const kernelName = "nn_euclid"

// K is the number of neighbours selected by the host, as in Rodinia's default.
const K = 5

func init() {
	kernels.MustRegister(&kernels.Program{
		Name:              kernelName,
		LocalSize:         kernels.D1(256),
		Bindings:          2,
		PushConstantWords: 3,
		Fn:                euclidKernel,
	})
	glsl.RegisterSource(kernelName, glslEuclid)
	core.Register(core.Descriptor{
		Name:        "nn",
		Family:      core.FamilyRodinia,
		Application: "K-nearest-neighbour search over latitude/longitude records (Rodinia nn)",
		Dwarf:       "Dense Linear Algebra",
		Domain:      "Data Mining",
		Rank:        6,
		APIs:        hw.AllAPIs(),
		Workloads:   workloads,
		Run:         run,
	})
}

// euclidKernel computes the distance from the query to every record.
// Bindings: locations (lat,lng pairs), distances. Push: n, latBits, lngBits.
func euclidKernel(wg *kernels.Workgroup) {
	n := int(wg.PushU32(0))
	lat := wg.PushF32(1)
	lng := wg.PushF32(2)
	locations := wg.Buffer(0)
	distances := wg.Buffer(1)
	wg.ForEach(func(inv *kernels.Invocation) {
		i := inv.GlobalX()
		if i >= n {
			return
		}
		dlat := locations.LoadF32(inv, 2*i) - lat
		dlng := locations.LoadF32(inv, 2*i+1) - lng
		d := float32(math.Sqrt(float64(dlat*dlat + dlng*dlng)))
		distances.StoreF32(inv, i, d)
		inv.ALU(6)
	})
}

type algorithm struct {
	n         int
	locations kernels.Words
	lat, lng  float32
}

func (a *algorithm) Buffers() []rodinia.BufferSpec {
	return []rodinia.BufferSpec{
		{Name: "locations", Init: a.locations},
		{Name: "distances", Words: a.n},
	}
}

func (a *algorithm) Kernels() []string { return []string{kernelName} }

// SeparateSubmits implements rodinia.SeparateSubmits: nn records its single
// kernel onto its own command buffer (§V-A2).
func (a *algorithm) SeparateSubmits() bool { return true }

func (a *algorithm) NextPhase(phase int, io rodinia.IO) ([]rodinia.Step, error) {
	if phase > 0 {
		return nil, nil
	}
	return []rodinia.Step{{
		Kernel:  kernelName,
		Groups:  kernels.D1((a.n + 255) / 256),
		Buffers: []int{0, 1},
		Push: kernels.Words{
			uint32(a.n),
			math.Float32bits(a.lat),
			math.Float32bits(a.lng),
		},
	}}, nil
}

// nearest returns the indices of the k smallest distances among the float32
// words, in (distance, index) order. It makes one pass and keeps a k-entry
// list in that order: a record enters only when it is strictly closer than
// the current k-th, so among equal distances the lower index is kept.
func nearest(distances kernels.Words, k int) []int {
	k = min(k, len(distances))
	if k <= 0 {
		return nil
	}
	best := make([]int, 0, k)
	var kth float32 // distance of best[k-1] once the list is full
	for i, w := range distances {
		d := math.Float32frombits(w)
		if len(best) == k {
			if !(d < kth) {
				continue
			}
			best = best[:k-1]
		}
		j := len(best)
		best = append(best, i)
		for ; j > 0 && d < math.Float32frombits(distances[best[j-1]]); j-- {
			best[j] = best[j-1]
		}
		best[j] = i
		kth = math.Float32frombits(distances[best[len(best)-1]])
	}
	return best
}

// checkNearest verifies a selection in O(n): it holds min(k, n) records in
// strictly increasing (distance, index) order, and no unselected record
// orders before the last selected one.
func checkNearest(distances []float32, best []int, k int) error {
	if want := min(k, len(distances)); len(best) != want {
		return fmt.Errorf("nn: selected %d records, want %d", len(best), want)
	}
	if len(best) == 0 {
		return nil
	}
	before := func(a, b int) bool {
		return distances[a] < distances[b] || (distances[a] == distances[b] && a < b)
	}
	for j := 1; j < len(best); j++ {
		if !before(best[j-1], best[j]) {
			return fmt.Errorf("nn: selection %d (record %d) does not order after record %d", j, best[j], best[j-1])
		}
	}
	last := best[len(best)-1]
	ahead := 0
	for i := range distances {
		if before(i, last) {
			ahead++
		}
	}
	if ahead != len(best)-1 {
		return fmt.Errorf("nn: %d records order before selected record %d, want %d", ahead, last, len(best)-1)
	}
	return nil
}

func workloads(class hw.Class) []core.Workload {
	if class == hw.ClassMobile {
		return []core.Workload{
			{Label: "256K", Params: map[string]int{"n": 256 << 10}},
			{Label: "8M", Params: map[string]int{"n": 8 << 20}},
		}
	}
	return []core.Workload{
		{Label: "256K", Params: map[string]int{"n": 256 << 10}},
		{Label: "8M", Params: map[string]int{"n": 8 << 20}},
		{Label: "16M", Params: map[string]int{"n": 16 << 20}},
	}
}

func run(ctx *core.RunContext) (*core.Result, error) {
	n := ctx.Workload.Param("n", 256<<10)
	locations := ctx.RandomF32(ctx.Seed, 2*n, 0, 90)
	alg := &algorithm{n: n, locations: locations, lat: 30, lng: 59}

	out, err := rodinia.Run(ctx, alg, []int{1})
	if err != nil {
		return nil, err
	}
	words := out.Buffers[1][:n]
	best := nearest(words, K)

	if ctx.Validate {
		distances := kernels.WordsToF32(words)
		locs := kernels.WordsToF32(locations)
		for i := 0; i < n; i++ {
			dlat := locs[2*i] - alg.lat
			dlng := locs[2*i+1] - alg.lng
			want := float32(math.Sqrt(float64(dlat*dlat + dlng*dlng)))
			if bench.AbsDiff(distances[i], want) > 1e-4 {
				return nil, fmt.Errorf("nn: distance %d = %v, want %v", i, distances[i], want)
			}
		}
		if err := checkNearest(distances, best, K); err != nil {
			return nil, err
		}
	}
	sel := make([]float32, 0, 2*len(best))
	for _, idx := range best {
		sel = append(sel, float32(idx), math.Float32frombits(words[idx]))
	}
	return &core.Result{
		KernelTime: out.KernelTime,
		TotalTime:  ctx.Now(),
		Dispatches: out.Dispatches,
		Checksum:   core.ChecksumF32(sel),
	}, nil
}

const glslEuclid = `#version 450
layout(local_size_x = 256) in;
layout(std430, set = 0, binding = 0) buffer Locations { float loc[]; };
layout(std430, set = 0, binding = 1) buffer Distances { float dist[]; };
layout(push_constant) uniform Params { uint n; float lat; float lng; } p;
void main() {
    uint i = gl_GlobalInvocationID.x;
    if (i >= p.n) return;
    float dlat = loc[2u*i] - p.lat, dlng = loc[2u*i+1u] - p.lng;
    dist[i] = sqrt(dlat*dlat + dlng*dlng);
}
`
