package core_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// TestSnapshotReplayConcurrent: a snapshot is replayed by many goroutines at
// once, as serve replays a shared stored snapshot for concurrent requests.
// A short snapshot (backprop, 2 dispatches) and a long one (gaussian, 254
// dispatches) are replayed in turn from 8 goroutines, 200 times each, under the
// recording platform and under one with overridden knobs, so pooled
// timelines pass between traces of different lengths and profiles. Every
// Result must equal the serial replay of the same snapshot and platform.
func TestSnapshotReplayConcurrent(t *testing.T) {
	adreno := platforms.Adreno506()
	knobbed := platforms.Adreno506()
	for api, drv := range knobbed.Profile.Drivers {
		drv.SyncLatency = 3*drv.SyncLatency + time.Microsecond
		drv.SubmitOverhead += 7 * time.Microsecond
		drv.DescriptorUpdateOverhead += time.Microsecond
		knobbed.Profile.Drivers[api] = drv
	}
	cache := core.NewSnapshotCache(0)
	r := &core.Runner{Seed: 42, Cache: cache}
	type replay struct {
		name string
		snap *core.Snapshot
		p    *platforms.Platform
		want *core.Result
	}
	var replays []replay
	for _, c := range []struct {
		benchmark, workload string
		api                 hw.API
	}{
		{"backprop", "208", hw.APIVulkan},
		{"gaussian", "128", hw.APIOpenCL},
	} {
		b, err := core.Get(c.benchmark)
		if err != nil {
			t.Fatal(err)
		}
		var w core.Workload
		for _, cand := range b.Workloads(adreno.Profile.Class) {
			if cand.Label == c.workload {
				w = cand
			}
		}
		if w.Label == "" {
			t.Fatalf("%s has no workload %q on %s", c.benchmark, c.workload, adreno.ID)
		}
		if _, err := r.Run(adreno, b, c.api, w); err != nil {
			t.Fatal(err)
		}
		snap, ok := cache.Get(r.CellKey(adreno, b, c.api, w))
		if !ok {
			t.Fatalf("%s/%s was not stored", c.benchmark, c.workload)
		}
		for i, p := range []*platforms.Platform{adreno, knobbed} {
			want, err := snap.Replay(p)
			if err != nil {
				t.Fatal(err)
			}
			name := c.benchmark + " as recorded"
			if i == 1 {
				name = c.benchmark + " with knobs"
				if want.TotalTime == replays[len(replays)-1].want.TotalTime {
					t.Fatalf("%s: the knob override leaves the total time at %v", name, want.TotalTime)
				}
			}
			replays = append(replays, replay{name, snap, p, want})
		}
	}

	const goroutines, rounds = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				rp := replays[(g+i)%len(replays)]
				got, err := rp.snap.Replay(rp.p)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, rp.want) {
					t.Errorf("goroutine %d, replay %d of %s: got kernel %v total %v, the serial replay %v and %v",
						g, i, rp.name, got.KernelTime, got.TotalTime, rp.want.KernelTime, rp.want.TotalTime)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
