package core

import (
	"fmt"
	"sync"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// keyBench is a minimal Benchmark for key construction (the key only reads
// Name and the workload label; this package cannot import real benchmarks
// without an import cycle).
type keyBench struct{ name string }

func (b keyBench) Name() string                   { return b.name }
func (keyBench) APIs() []hw.API                   { return hw.AllAPIs() }
func (keyBench) Run(*RunContext) (*Result, error) { return nil, nil }
func (keyBench) Workloads(class hw.Class) []Workload {
	return []Workload{{Label: "small"}, {Label: "large"}}
}

// testKey builds a baseline cache key for key-distinctness tests.
func testKey(t *testing.T) (SnapshotKey, *platforms.Platform, Benchmark) {
	t.Helper()
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b := keyBench{name: "fake"}
	r := &Runner{Repetitions: 3, Seed: 42}
	w := b.Workloads(p.Profile.Class)[0]
	return r.snapshotKey(p, b, hw.APIVulkan, w), p, b
}

// TestSnapshotKeyDistinguishesCells pins that every field that can change a
// cell's execution lands in the key: two cells differing in benchmark,
// workload, API, seed, validation or platform structure must never collide.
// The repetition count is not among them: a cell executes once at any count,
// so one entry serves every -reps.
func TestSnapshotKeyDistinguishesCells(t *testing.T) {
	base, p, b := testKey(t)

	variants := map[string]SnapshotKey{}
	add := func(name string, k SnapshotKey) {
		if k == base {
			t.Errorf("%s: key did not change", name)
		}
		for prev, pk := range variants {
			if pk == k {
				t.Errorf("%s collides with %s", name, prev)
			}
		}
		variants[name] = k
	}

	w := b.Workloads(p.Profile.Class)[0]
	w2 := b.Workloads(p.Profile.Class)[1]

	add("api", (&Runner{Repetitions: 3, Seed: 42}).snapshotKey(p, b, hw.APICUDA, w))
	add("workload", (&Runner{Repetitions: 3, Seed: 42}).snapshotKey(p, b, hw.APIVulkan, w2))
	add("seed", (&Runner{Repetitions: 3, Seed: 7}).snapshotKey(p, b, hw.APIVulkan, w))
	add("validate", (&Runner{Repetitions: 3, Seed: 42, Validate: true}).snapshotKey(p, b, hw.APIVulkan, w))

	add("benchmark", (&Runner{Repetitions: 3, Seed: 42}).snapshotKey(p, keyBench{name: "other"}, hw.APIVulkan, w))

	// A structural profile change (warp size feeds the coalescing model) must
	// change the fingerprint and therefore the key; a timing-knob change must
	// not, or sweeps would never hit the cache.
	structural := *p
	structural.Profile.WarpSize *= 2
	add("warp-size", (&Runner{Repetitions: 3, Seed: 42}).snapshotKey(&structural, b, hw.APIVulkan, w))

	timing := *p
	timing.Profile.Drivers = make(map[hw.API]hw.DriverProfile, len(p.Profile.Drivers))
	for api, drv := range p.Profile.Drivers {
		drv.KernelLaunchOverhead *= 10
		drv.CompilerEfficiency /= 2
		timing.Profile.Drivers[api] = drv
	}
	if k := (&Runner{Repetitions: 3, Seed: 42}).snapshotKey(&timing, b, hw.APIVulkan, w); k != base {
		t.Errorf("timing-only knob change altered the cache key:\n  %+v\n  %+v", k, base)
	}
	for _, reps := range []int{0, 1, 5} {
		if k := (&Runner{Repetitions: reps, Seed: 42}).snapshotKey(p, b, hw.APIVulkan, w); k != base {
			t.Errorf("repetition count %d altered the cache key:\n  %+v\n  %+v", reps, k, base)
		}
	}
}

// TestSnapshotCacheLRU pins the bound and the eviction/stat accounting.
func TestSnapshotCacheLRU(t *testing.T) {
	c := NewSnapshotCache(2)
	key := func(i int) SnapshotKey { return SnapshotKey{Benchmark: fmt.Sprintf("b%d", i)} }

	c.Put(key(1), &Snapshot{})
	c.Put(key(2), &Snapshot{})
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("key 1 evicted below capacity")
	}
	c.Put(key(3), &Snapshot{}) // evicts key 2 (least recently used after the get above)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("key 2 survived past the capacity bound")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Fatal("recently used key 1 was evicted instead of key 2")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries and 1 eviction", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 hits and 1 miss", st)
	}
}

// TestSnapshotCacheConcurrency hammers the cache from many goroutines; run
// with -race (CI does) it pins the concurrency safety the parallel suite
// scheduler relies on.
func TestSnapshotCacheConcurrency(t *testing.T) {
	c := NewSnapshotCache(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := SnapshotKey{Benchmark: fmt.Sprintf("b%d", (g+i)%16)}
				if _, ok := c.Get(k); !ok {
					c.Put(k, &Snapshot{})
				}
				if i%10 == 0 {
					_ = c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > 8 {
		t.Fatalf("cache exceeded its bound: %+v", st)
	}
}
