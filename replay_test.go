package vcomputebench_test

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"vcomputebench/internal/calibrate"
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// replayBenchmarks are the benchmarks the replay-determinism tests cover:
// every registered benchmark at its smallest workload, so every front-end
// call a benchmark makes is pinned. Between them they exercise every reading
// kind and binding path of the snapshot layer: host stopwatches (vectoradd),
// device-side observables (a Vulkan submission's dispatch-time sum, CUDA
// event timers, a loop summing OpenCL profiling events in membandwidth) and
// iterative phase loops with mid-measurement device readbacks (bfs).
var replayBenchmarks = core.Names()

func smallestWorkload(t *testing.T, b core.Benchmark, class hw.Class) core.Workload {
	t.Helper()
	ws := b.Workloads(class)
	if len(ws) == 0 {
		t.Fatalf("%s has no workloads for class %s", b.Name(), class)
	}
	return ws[0]
}

// runCell runs one cell with the given runner, skipping excluded combinations.
func runCell(t *testing.T, r *core.Runner, p *platforms.Platform, name string, api hw.API) (*core.Result, bool) {
	t.Helper()
	b, err := core.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, b, api, smallestWorkload(t, b, p.Profile.Class))
	if err != nil {
		var excl *core.ExclusionError
		if asExclusion(err, &excl) {
			return nil, false
		}
		t.Fatalf("%s/%s on %s: %v", name, api, p.ID, err)
	}
	return res, true
}

func asExclusion(err error, target **core.ExclusionError) bool {
	for err != nil {
		if e, ok := err.(*core.ExclusionError); ok {
			*target = e
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// requireSameResult asserts two results are identical in every field,
// including the JSON encoding the versioned results schema would emit.
func requireSameResult(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: results differ\n  executed: %+v\n  replayed: %+v", label, want, got)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(wj) != string(gj) {
		t.Fatalf("%s: JSON encodings differ\n  executed: %s\n  replayed: %s", label, wj, gj)
	}
}

// TestReplayMatchesExecution pins the execute/replay contract on every
// platform and API: a cell served from the snapshot cache (analytic replay)
// is byte-identical to the same cell executed fresh — durations, repetition
// statistics and achieved-bandwidth extras included. A fresh execution
// returns through replay too, after the runner's replay check compared that
// replay with what the run itself measured, so the chain from measured value
// to stored entry is covered end to end.
func TestReplayMatchesExecution(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; executing every cell twice under the race detector adds minutes, not coverage")
	}
	for _, p := range platforms.All() {
		for _, api := range p.Profile.SupportedAPIs() {
			for _, name := range replayBenchmarks {
				p, api, name := p, api, name
				t.Run(p.ID+"/"+string(api)+"/"+name, func(t *testing.T) {
					plain := &core.Runner{Repetitions: 2, Seed: 42}
					executed, ok := runCell(t, plain, p, name, api)
					if !ok {
						t.Skipf("%s/%s excluded on %s", name, api, p.ID)
					}

					cached := &core.Runner{Repetitions: 2, Seed: 42, Cache: core.NewSnapshotCache(0)}
					miss, _ := runCell(t, cached, p, name, api) // executes + snapshots
					hit, _ := runCell(t, cached, p, name, api)  // replays the snapshot

					st := cached.Cache.Stats()
					if st.Misses != 1 || st.Hits != 1 {
						t.Fatalf("cache stats = %+v, want exactly 1 miss then 1 hit", st)
					}
					requireSameResult(t, "execute vs cached-execute", executed, miss)
					requireSameResult(t, "execute vs replay", executed, hit)
				})
			}
		}
	}
}

// perturbKnobs returns a clone of the platform with every sweepable timing
// knob moved, exactly as a calibration sweep's candidate profiles do. Each of
// the 11 cost knobs moves by its own additive offset, so knobs whose value is
// zero move too and a spend valued under the wrong knob shows. The execution
// fingerprint is unchanged, so a snapshot recorded on the original platform
// replays under the clone.
func perturbKnobs(p *platforms.Platform) *platforms.Platform {
	cand := calibrate.ClonePlatform(p)
	for api, drv := range cand.Profile.Drivers {
		if !drv.Supported {
			continue
		}
		for i, knob := range []*time.Duration{
			&drv.KernelLaunchOverhead, &drv.SyncLatency, &drv.SubmitOverhead,
			&drv.CommandRecordOverhead, &drv.PipelineBindOverhead, &drv.BarrierOverhead,
			&drv.DescriptorUpdateOverhead, &drv.PushConstantOverhead, &drv.JITCompileTime,
			&drv.PipelineCreateTime, &drv.AllocOverhead,
		} {
			*knob += time.Duration(i+1) * 1300 * time.Nanosecond
		}
		drv.CompilerEfficiency *= 0.9
		drv.MemoryEfficiency *= 0.85
		if drv.ScatteredMemoryEfficiency > 0 {
			drv.ScatteredMemoryEfficiency *= 1.1
			if drv.ScatteredMemoryEfficiency > 1 {
				drv.ScatteredMemoryEfficiency = 1
			}
		}
		if drv.LocalMemoryAutoOpt {
			drv.LocalMemoryOptFactor *= 0.8
		}
		cand.Profile.Drivers[api] = drv
	}
	return cand
}

// TestReplayUnderModifiedProfile pins the property the calibration sweep
// rests on: replaying a snapshot under a candidate profile with different
// DriverProfile knob values is bit-identical to executing the full benchmark
// afresh under that candidate.
func TestReplayUnderModifiedProfile(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; see TestReplayMatchesExecution")
	}
	for _, p := range platforms.All() {
		perturbed := perturbKnobs(p)
		if fp, want := perturbed.Profile.ExecutionFingerprint(), p.Profile.ExecutionFingerprint(); fp != want {
			t.Fatalf("perturbing timing knobs changed the execution fingerprint:\n  %s\n  %s", fp, want)
		}
		cached := &core.Runner{Repetitions: 2, Seed: 42, Cache: core.NewSnapshotCache(0)}
		fresh := &core.Runner{Repetitions: 2, Seed: 42}
		for _, api := range p.Profile.SupportedAPIs() {
			for _, name := range replayBenchmarks {
				p, perturbed, api, name := p, perturbed, api, name
				t.Run(p.ID+"/"+string(api)+"/"+name, func(t *testing.T) {
					if _, ok := runCell(t, cached, p, name, api); !ok { // execute + snapshot on the base profile
						t.Skipf("%s/%s excluded on %s", name, api, p.ID)
					}
					replayed, _ := runCell(t, cached, perturbed, name, api) // cache hit: replay under moved knobs
					executed, _ := runCell(t, fresh, perturbed, name, api)  // ground truth: fresh run under moved knobs
					requireSameResult(t, "fresh-on-candidate vs replay-on-candidate", executed, replayed)
				})
			}
		}
	}
}

// TestSuiteCacheParallelDeterminism runs a full figure twice — serial without
// a cache, parallel with a shared cache primed by a previous run — and
// requires byte-identical JSON documents: the cache must not perturb results
// for any -parallel value.
func TestSuiteCacheParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDRX560)
	if err != nil {
		t.Fatal(err)
	}
	apis := []hw.API{hw.APIVulkan, hw.APIOpenCL}

	serial, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	cache := core.NewSnapshotCache(0)
	if _, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 1, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.BandwidthDocument("fig1b", p, apis, experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 8, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache stats = %+v, want the second run to be served entirely from the first", st)
	}

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("cached parallel run differs from serial uncached run:\n%s\n%s", sj, pj)
	}
}

// TestReplayIsFast is a sanity bound, not a benchmark: replaying a recorded
// cell must be orders of magnitude cheaper than executing it. It guards
// against a regression that silently reintroduces execution on the replay
// path (e.g. a cache miss caused by an unstable fingerprint).
func TestReplayIsFast(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("wall-clock bound is meaningless under the race detector's slowdown")
	}
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workloads(p.Profile.Class)[0]
	r := &core.Runner{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)}
	if _, err := r.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const replays = 50
	for i := 0; i < replays; i++ {
		if _, err := r.Run(p, b, hw.APIVulkan, w); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Cache.Stats(); st.Misses != 1 || st.Hits != replays {
		t.Fatalf("cache stats = %+v, want 1 miss and %d hits", st, replays)
	}
	if avg := time.Since(start) / replays; avg > 50*time.Millisecond {
		t.Fatalf("average replay took %v, want well under the cost of an execution", avg)
	}
}
