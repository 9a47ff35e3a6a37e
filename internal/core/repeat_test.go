package core_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// goldenResult returns the cell of a golden document.
func goldenResult(t *testing.T, id, bench string, api hw.API, workload string) *core.Result {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", id+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Documents []struct {
			Results []*core.Result `json:"results"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	for _, d := range env.Documents {
		for _, r := range d.Results {
			if r.Benchmark == bench && r.API == api && r.Workload == workload {
				return r
			}
		}
	}
	t.Fatalf("golden %s has no %s/%s cell at %s", id, bench, api, workload)
	return nil
}

// TestBandwidthCellRepeats: the bandwidth sweep dispatches its kernel back to
// back over the buffers the previous dispatch left, so a cell executes its
// first dispatch and takes the rest from its device's memo: 1 of 8 through
// Vulkan, 1 of 9 through CUDA, whose warm-up launch comes first. Each result
// equals the golden document's cell.
func TestBandwidthCellRepeats(t *testing.T) {
	b, err := core.Get("membandwidth")
	if err != nil {
		t.Fatal(err)
	}
	p := platforms.GTX1050Ti()
	w := b.Workloads(p.Profile.Class)[0]
	r := core.Runner{Repetitions: 1, Seed: 42}
	for _, tc := range []struct {
		api        hw.API
		dispatches uint64
	}{{hw.APIVulkan, 8}, {hw.APICUDA, 9}} {
		e0, m0 := hw.DispatchCounts()
		res, err := r.Run(p, b, tc.api, w)
		if err != nil {
			t.Fatal(err)
		}
		e1, m1 := hw.DispatchCounts()
		if e1-e0 != 1 || m1-m0 != tc.dispatches-1 {
			t.Errorf("%s: %d executed, %d from the memo; want 1 and %d", tc.api, e1-e0, m1-m0, tc.dispatches-1)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var got core.Result
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if want := goldenResult(t, "fig1a", "membandwidth", tc.api, w.Label); !reflect.DeepEqual(&got, want) {
			t.Errorf("%s: result %+v, want the golden cell %+v", tc.api, &got, want)
		}
	}
}

// BenchmarkExecuteCell measures one whole cell through Runner.ExecuteCell,
// from a fresh device to the replayed Result, with no store: a bandwidth
// cell at the widest stride, whose dispatches repeat, through CUDA and
// through Vulkan's staging buffer (each allocates its own 64 MB input
// stream, which device memory aliases), and gaussian at its smallest mobile
// size, whose dispatches all differ.
func BenchmarkExecuteCell(b *testing.B) {
	for _, c := range []struct {
		bench, workload string
		api             hw.API
		platform        *platforms.Platform
	}{
		{"membandwidth", "32", hw.APICUDA, platforms.GTX1050Ti()},
		{"membandwidth", "32", hw.APIVulkan, platforms.GTX1050Ti()},
		{"gaussian", "128", hw.APIVulkan, platforms.Adreno506()},
	} {
		b.Run(c.bench+"_"+c.workload+"_"+string(c.api)+"_"+c.platform.ID, func(b *testing.B) {
			bench, err := core.Get(c.bench)
			if err != nil {
				b.Fatal(err)
			}
			i := slices.IndexFunc(bench.Workloads(c.platform.Profile.Class), func(w core.Workload) bool { return w.Label == c.workload })
			if i < 0 {
				b.Fatalf("%s has no workload %s on %s", c.bench, c.workload, c.platform.ID)
			}
			w := bench.Workloads(c.platform.Profile.Class)[i]
			r := core.Runner{Repetitions: 1, Seed: 42}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := r.ExecuteCell(context.Background(), c.platform, bench, c.api, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
