package vcomputebench_test

import (
	"testing"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
)

// Suite-level wall-time benchmarks for the counter-replay snapshot cache.
// `make bench` runs them at -benchtime 1x and folds the numbers into
// BENCH_suite.json, so the cached/uncached gap — the value of executing each
// distinct cell once and replaying it everywhere else — is tracked in review
// like the dispatch-engine microbenchmarks. The cached variants build a fresh
// cache per iteration: the measured quantity is a cold full run, not a warm
// second pass.

func runAllExperiments(b *testing.B, cached bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Seed: 42}
		if cached {
			opts.Cache = core.NewSnapshotCache(0)
		}
		for _, e := range experiments.All() {
			doc, err := e.Run(opts)
			if err != nil {
				b.Fatalf("experiment %s: %v", e.ID, err)
			}
			if len(doc.Tables) == 0 && len(doc.Series) == 0 {
				b.Fatalf("experiment %s produced no output", e.ID)
			}
		}
	}
}

// BenchmarkRunAll is `vcbench -run all` with the shared snapshot cache:
// cells shared between figures (the speedup grids reappear in the summary)
// execute once and replay elsewhere.
func BenchmarkRunAll(b *testing.B) { runAllExperiments(b, true) }

// BenchmarkRunAllUncached is the pre-cache behaviour (`-cache=false`): every
// experiment re-executes every cell it needs.
func BenchmarkRunAllUncached(b *testing.B) { runAllExperiments(b, false) }

// BenchmarkRunAllWarmStore is `vcbench -run all -store DIR` against a warm
// persistent store: every cell replays from disk, none executes. Each
// iteration attaches a fresh tiered store (cold memory tier) to the same
// directory, so the measured quantity is a warm second process — decode plus
// analytic replay — and the cold/warm ratio against BenchmarkRunAll is the
// value of persisting snapshots across runs.
func BenchmarkRunAllWarmStore(b *testing.B) {
	dir := b.TempDir()
	warm := experiments.Options{Repetitions: 1, Seed: 42, Cache: openStoreB(b, dir)}
	for _, e := range experiments.All() {
		if _, err := e.Run(warm); err != nil {
			b.Fatalf("warming the store: experiment %s: %v", e.ID, err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executed, _ := hw.DispatchCounts()
		opts := experiments.Options{Repetitions: 1, Seed: 42, Cache: openStoreB(b, dir)}
		for _, e := range experiments.All() {
			doc, err := e.Run(opts)
			if err != nil {
				b.Fatalf("experiment %s: %v", e.ID, err)
			}
			if len(doc.Tables) == 0 && len(doc.Series) == 0 {
				b.Fatalf("experiment %s produced no output", e.ID)
			}
		}
		if st := opts.Cache.Stats(); st.Misses != 0 {
			b.Fatalf("warm-store iteration executed %d cells, want pure replay", st.Misses)
		}
		if n, _ := hw.DispatchCounts(); n != executed {
			b.Fatalf("warm-store iteration executed %d dispatches, want pure replay", n-executed)
		}
	}
}

// openStoreB is openStore for benchmarks.
func openStoreB(b *testing.B, dir string) *core.TieredStore {
	b.Helper()
	disk, err := core.OpenDiskStore(dir, codeversion.Fingerprint(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewTieredStore(nil, disk)
}
