package vcomputebench_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// openStore opens a tiered store (fresh memory tier over dir) under the real
// build code-version fingerprint, exactly as `vcbench -store dir` does. Each
// call simulates a new process attaching to the same persistent store.
func openStore(t *testing.T, dir string) *core.TieredStore {
	t.Helper()
	disk, err := core.OpenDiskStore(dir, codeversion.Fingerprint(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewTieredStore(nil, disk)
}

// TestPersistentStoreReplayMatchesExecution pins the cross-process replay
// contract on every platform and API: a cell served from a disk store written
// by a previous store instance (a previous process, as far as the codec is
// concerned) is byte-identical to the same cell executed fresh — and executes
// zero cells doing it.
func TestPersistentStoreReplayMatchesExecution(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; see TestReplayMatchesExecution")
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

					dir := t.TempDir()
					cold := &core.Runner{Repetitions: 2, Seed: 42, Cache: openStore(t, dir)}
					first, _ := runCell(t, cold, p, name, api) // executes + persists

					warm := &core.Runner{Repetitions: 2, Seed: 42, Cache: openStore(t, dir)}
					replayed, _ := runCell(t, warm, p, name, api) // pure replay from disk

					if st := warm.Cache.Stats(); st.Misses != 0 || st.Hits != 1 {
						t.Fatalf("warm store stats = %+v, want 0 executions and 1 hit", st)
					}
					requireSameResult(t, "execute vs cold-store execute", executed, first)
					requireSameResult(t, "execute vs warm-store replay", executed, replayed)
				})
			}
		}
	}
}

// TestPersistentStoreServesEveryReps: the store key holds no repetition
// count, so entries written at -reps 1 answer every other -reps without
// executing, and each Result equals a fresh uncached run at that count.
func TestPersistentStoreServesEveryReps(t *testing.T) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"vectoradd", "membandwidth", "bfs"}
	dir := t.TempDir()
	cold := &core.Runner{Repetitions: 1, Seed: 42, Cache: openStore(t, dir)}
	for _, name := range names {
		if _, ok := runCell(t, cold, p, name, hw.APIVulkan); !ok {
			t.Fatalf("%s/vulkan unexpectedly excluded", name)
		}
	}
	for _, reps := range []int{2, 3} {
		warm := &core.Runner{Repetitions: reps, Seed: 42, Cache: openStore(t, dir)}
		fresh := &core.Runner{Repetitions: reps, Seed: 42}
		for _, name := range names {
			replayed, _ := runCell(t, warm, p, name, hw.APIVulkan)
			executed, _ := runCell(t, fresh, p, name, hw.APIVulkan)
			requireSameResult(t, fmt.Sprintf("%s at %d reps: fresh vs stored at 1 rep", name, reps), executed, replayed)
		}
		if st := warm.Cache.Stats(); st.Misses != 0 || st.Hits != uint64(len(names)) {
			t.Fatalf("%d reps over a 1-rep store: stats = %+v, want %d hits and 0 misses", reps, st, len(names))
		}
	}
}

// TestPersistentStoreWrongCodeVersion: a store opened under a different
// code-version fingerprint must see none of the entries — the cell
// re-executes rather than replaying a snapshot recorded by different code.
func TestPersistentStoreWrongCodeVersion(t *testing.T) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold := &core.Runner{Repetitions: 1, Seed: 42, Cache: openStore(t, dir)}
	if _, ok := runCell(t, cold, p, "vectoradd", hw.APIVulkan); !ok {
		t.Fatal("vectoradd/vulkan unexpectedly excluded")
	}

	otherDisk, err := core.OpenDiskStore(dir, strings.Repeat("0", 64), nil)
	if err != nil {
		t.Fatal(err)
	}
	other := &core.Runner{Repetitions: 1, Seed: 42, Cache: core.NewTieredStore(nil, otherDisk)}
	if _, ok := runCell(t, other, p, "vectoradd", hw.APIVulkan); !ok {
		t.Fatal("vectoradd/vulkan unexpectedly excluded")
	}
	if st := other.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("stats under a different code version = %+v, want a re-execution and no hits", st)
	}
}

// TestPersistentStoreSuiteWarmRun is the end-to-end acceptance property: a
// full paper figure against a warm store executes zero cells at any
// parallelism and produces a byte-identical document.
func TestPersistentStoreSuiteWarmRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure repeatedly; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDRX560)
	if err != nil {
		t.Fatal(err)
	}
	apis := []hw.API{hw.APIVulkan, hw.APIOpenCL}
	dir := t.TempDir()

	coldStore := openStore(t, dir)
	cold, err := experiments.BandwidthDocument("fig1b", p, apis,
		experiments.Options{Repetitions: 1, Seed: 42, Parallelism: 1, Cache: coldStore})
	if err != nil {
		t.Fatal(err)
	}
	if st := coldStore.Stats(); st.Misses == 0 {
		t.Fatalf("cold stats = %+v; the cold run executed nothing, so the test proves nothing", st)
	}

	for _, parallelism := range []int{1, 8} {
		warmStore := openStore(t, dir)
		warm, err := experiments.BandwidthDocument("fig1b", p, apis,
			experiments.Options{Repetitions: 1, Seed: 42, Parallelism: parallelism, Cache: warmStore})
		if err != nil {
			t.Fatal(err)
		}
		if st := warmStore.Stats(); st.Misses != 0 {
			t.Fatalf("parallelism %d: warm stats = %+v, want a pure-replay run with 0 executions", parallelism, st)
		}
		want, got := encodeDoc(t, cold), encodeDoc(t, warm)
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d: warm-store document differs from cold run:\n%s\nvs\n%s", parallelism, got, want)
		}
	}
}

// TestPersistentStoreCorruptEntryDegradesToMiss corrupts every persisted
// entry in place and requires the warm run to fall back to execution — same
// results, no errors, decode failures accounted.
func TestPersistentStoreCorruptEntryDegradesToMiss(t *testing.T) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cold := &core.Runner{Repetitions: 1, Seed: 42, Cache: openStore(t, dir)}
	executed, ok := runCell(t, cold, p, "vectoradd", hw.APIVulkan)
	if !ok {
		t.Fatal("vectoradd/vulkan unexpectedly excluded")
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("expected persisted entries in %s (err=%v)", dir, err)
	}
	for _, path := range snaps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := &core.Runner{Repetitions: 1, Seed: 42, Cache: openStore(t, dir)}
	recovered, _ := runCell(t, warm, p, "vectoradd", hw.APIVulkan)
	st := warm.Cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want the corrupted entry to degrade to one re-execution", st)
	}
	var disk core.TierStats
	for _, tier := range st.Tiers {
		if tier.Tier == "disk" {
			disk = tier
		}
	}
	if disk.DecodeFailures != 1 {
		t.Fatalf("disk tier = %+v, want exactly 1 decode failure", disk)
	}
	requireSameResult(t, "clean vs recovered-from-corruption", executed, recovered)
}
