package experiments

import (
	"reflect"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
)

// namedBench is the minimal core.Benchmark stub orderBenchmarks needs.
type namedBench struct{ name string }

func (b namedBench) Name() string                       { return b.name }
func (b namedBench) Workloads(hw.Class) []core.Workload { return nil }
func (b namedBench) APIs() []hw.API                     { return nil }
func (b namedBench) Run(*core.RunContext) (*core.Result, error) {
	return nil, nil
}

func names(bs []core.Benchmark) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name()
	}
	return out
}

// TestOrderBenchmarksUnknownSortLast: a benchmark missing from FigureOrder()
// used to get rank 0 and collide with the real first benchmark (bfs),
// shuffling it to the front of the figure. Unknowns must sort after every
// ranked benchmark, keep their relative order, and be reported.
func TestOrderBenchmarksUnknownSortLast(t *testing.T) {
	in := []core.Benchmark{
		namedBench{"zzz-new"}, // unknown, listed first on purpose
		namedBench{"hotspot"},
		namedBench{"aaa-new"}, // unknown
		namedBench{"bfs"},     // the real rank-0 benchmark
		namedBench{"backprop"},
	}
	ordered, unranked := orderBenchmarks(in)
	wantOrder := []string{"bfs", "backprop", "hotspot", "zzz-new", "aaa-new"}
	if got := names(ordered); !reflect.DeepEqual(got, wantOrder) {
		t.Errorf("order = %v, want %v", got, wantOrder)
	}
	if want := []string{"zzz-new", "aaa-new"}; !reflect.DeepEqual(unranked, want) {
		t.Errorf("unranked = %v, want %v", unranked, want)
	}

	// All-known input: untouched and nothing reported.
	known := []core.Benchmark{namedBench{"nw"}, namedBench{"bfs"}}
	ordered, unranked = orderBenchmarks(known)
	if got := names(ordered); !reflect.DeepEqual(got, []string{"bfs", "nw"}) {
		t.Errorf("known order = %v", got)
	}
	if len(unranked) != 0 {
		t.Errorf("unranked = %v, want none", unranked)
	}
}
