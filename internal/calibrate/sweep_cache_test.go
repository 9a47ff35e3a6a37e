package calibrate

import (
	"reflect"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// sweepTestKnobs keeps the cached-vs-uncached comparison affordable: one
// duration knob and one efficiency knob still drive several accepted moves.
func sweepTestKnobs() []Knob {
	return []Knob{
		{API: hw.APIOpenCL, Field: FieldKernelLaunchOverhead},
		{API: hw.APIVulkan, Field: FieldCompilerEfficiency},
	}
}

// TestSweepExecutesSuiteOnce pins the acceptance criterion of the
// counter-replay cache: a sweep of E evaluations performs exactly one full
// suite execution — every (benchmark, workload, API) cell of the platform's
// figures is a cache miss exactly once — and scores every candidate profile
// by replay. The invariant "lookups = evaluations x distinct cells" holds iff
// no cell ever re-executes.
func TestSweepExecutesSuiteOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure suite; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDPowerVR)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewSnapshotCache(0)
	res, err := Sweep(p, Options{
		Experiments: experiments.Options{Repetitions: 1, Seed: 42, Cache: cache},
		Knobs:       sweepTestKnobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < 2 {
		t.Fatalf("sweep made %d evaluations, want at least the baseline plus one candidate", res.Evaluations)
	}
	st := cache.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("cache stats = %+v, want both executions and replays", st)
	}
	lookups := st.Hits + st.Misses
	if lookups != st.Misses*uint64(res.Evaluations) {
		t.Fatalf("lookups (%d) != misses (%d) x evaluations (%d): some cell executed more than once, or a candidate skipped cells",
			lookups, st.Misses, res.Evaluations)
	}
	if st.Evictions != 0 {
		t.Fatalf("cache evicted %d snapshots mid-sweep; the default bound must hold a platform's suite", st.Evictions)
	}
}

// TestSweepReplayMatchesUncachedSweep runs the same restricted sweep twice —
// once scoring candidates by replay (the shared cache) and once executing
// every evaluation from scratch — and requires identical outcomes: the same
// accepted knob moves, scores and evaluation count. This is the end-to-end
// fidelity statement for the calibration workflow.
func TestSweepReplayMatchesUncachedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several full figure suites; skipped with -short")
	}
	if raceDetectorEnabled {
		t.Skip("the uncached sweep re-executes the figure suite per evaluation — minutes under the race detector; " +
			"CI's non-race replay-equality step runs this test, and TestSweepExecutesSuiteOnce covers the sweep under the detector")
	}
	p, err := platforms.ByID(platforms.IDPowerVR)
	if err != nil {
		t.Fatal(err)
	}
	exOpts := experiments.Options{Repetitions: 1, Seed: 42}

	cached, err := Sweep(p, Options{
		Experiments: experiments.Options{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)},
		Knobs:       sweepTestKnobs(),
	})
	if err != nil {
		t.Fatal(err)
	}

	uncached, err := Sweep(p, Options{
		Experiments: exOpts,
		Knobs:       sweepTestKnobs(),
		// Bypass the cache Sweep would otherwise create: every evaluation
		// runs the full figure suite.
		evaluate: func(cand *platforms.Platform) (*Report, error) {
			return Measure(cand, exOpts)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if cached.Evaluations != uncached.Evaluations {
		t.Fatalf("evaluation counts differ: cached %d, uncached %d", cached.Evaluations, uncached.Evaluations)
	}
	if !reflect.DeepEqual(cached.Changes, uncached.Changes) {
		t.Fatalf("accepted knob moves differ:\n  cached:   %v\n  uncached: %v", cached.Changes, uncached.Changes)
	}
	if cached.Final.Score != uncached.Final.Score {
		t.Fatalf("final scores differ: cached %v, uncached %v", cached.Final.Score, uncached.Final.Score)
	}
	if !reflect.DeepEqual(cached.Final.Targets, uncached.Final.Targets) {
		t.Fatalf("final targets differ:\n  cached:   %+v\n  uncached: %+v", cached.Final.Targets, uncached.Final.Targets)
	}
}
