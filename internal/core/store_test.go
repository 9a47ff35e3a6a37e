package core

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// storeTestRegistry returns a fresh registry with the programs the synthetic
// snapshots below reference (the disk store re-binds programs from it at
// decode time).
func storeTestRegistry(t testing.TB) *kernels.Registry {
	t.Helper()
	reg := kernels.NewRegistry()
	if err := reg.Register(&kernels.Program{
		Name:      "store_test_kernel",
		LocalSize: kernels.Dim3{X: 64, Y: 1, Z: 1},
		Bindings:  2,
		Fn:        func(wg *kernels.Workgroup) {},
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

// storeTestSnapshot builds a fully-populated snapshot around a synthetic
// trace, the way runner.executeAttempt would from a real execution.
func storeTestSnapshot(t testing.TB, reg *kernels.Registry) *Snapshot {
	t.Helper()
	prog, err := reg.Lookup("store_test_kernel")
	if err != nil {
		t.Fatal(err)
	}
	tr := &hw.Trace{
		API:   hw.APIVulkan,
		Costs: []hw.Cost{hw.KnobCost(hw.KnobKernelLaunch)},
		Kernels: []hw.KernelRecord{{Prog: prog, Counters: kernels.Counters{
			Invocations: 256, Workgroups: 4, ALUOps: 1024,
			GlobalLoadBytes: 4096, GlobalStoreBytes: 2048,
		}}},
		Events: []hw.TraceEvent{
			{Kind: hw.EvMark},
			{Kind: hw.EvKernel, Cost: 0, Kernel: 0},
			{Kind: hw.EvMark},
		},
		Readings: []hw.Reading{
			{Kind: hw.ReadMarkDiff, A: 0, B: 2},
			{Kind: hw.ReadHostMark, A: 2},
		},
	}
	return &Snapshot{
		trace:           tr,
		fingerprint:     "test-fingerprint",
		benchmark:       "storetest",
		workload:        "small",
		api:             hw.APIVulkan,
		kernelReading:   0,
		totalReading:    1,
		dispatches:      4,
		checksum:        123.5,
		extras:          map[string]float64{"transfer_us": 12.5},
		throughputBytes: map[string]float64{"kernel": 6144},
	}
}

func storeTestKey(bench string) SnapshotKey {
	return SnapshotKey{
		Platform: "p", Fingerprint: "test-fingerprint", Benchmark: bench,
		Workload: "small", API: hw.APIVulkan, Seed: 42,
	}
}

// TestSnapshotCodecRoundTrip pins that decode(encode(s)) reproduces the
// snapshot exactly, including the nested trace with programs re-bound to the
// registry.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	reg := storeTestRegistry(t)
	snap := storeTestSnapshot(t, reg)
	data, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism: map iteration order must not leak into the bytes.
	again, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, again) {
		t.Fatal("two encodings of the same snapshot differ")
	}
	got, err := DecodeSnapshot(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("decoded snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}
	if got.trace.Kernels[0].Prog != snap.trace.Kernels[0].Prog {
		t.Fatal("decoded program is not the registry entry")
	}
}

// replayDecoded replays a decoded snapshot on the GTX 1050 Ti: its trace
// under the platform's profile with every reading evaluated, then the
// snapshot itself, which refuses a different execution fingerprint. Errors
// are allowed; a panic fails the calling test.
func replayDecoded(t testing.TB, s *Snapshot) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	if rp, err := s.trace.Replay(&p.Profile); err == nil {
		for i := range s.trace.Readings {
			_, _ = rp.Reading(i)
		}
	}
	_, _ = s.Replay(p)
}

// TestSnapshotCodecRejectsCorruption: every truncation errors, every byte
// flip decodes or errors but never panics, and a flipped stream that decodes
// also replays without a panic.
func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	reg := storeTestRegistry(t)
	data, err := EncodeSnapshot(storeTestSnapshot(t, reg))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n], reg); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded without error", n, len(data))
		}
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if s, err := DecodeSnapshot(mut, reg); err == nil {
			replayDecoded(t, s)
		}
	}
}

// TestDiskStoreRoundTrip pins persistence across store instances — the whole
// point of the disk tier: a second process (simulated by a second OpenDiskStore)
// hits entries the first one wrote.
func TestDiskStoreRoundTrip(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	first, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	snap := storeTestSnapshot(t, reg)

	if _, ok := first.Get(key); ok {
		t.Fatal("empty store reported a hit")
	}
	first.Put(key, snap)

	second, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := second.Get(key)
	if !ok {
		t.Fatal("fresh store instance missed an entry on disk")
	}
	if !reflect.DeepEqual(snap, got) {
		t.Fatalf("persisted snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}

	st := second.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 0 misses, 1 entry", st)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != "disk" || st.Tiers[0].Bytes <= 0 {
		t.Fatalf("tier stats = %+v, want one disk tier with positive bytes", st.Tiers)
	}
	// The index file documents the writing build's versions.
	if _, err := os.Stat(filepath.Join(dir, indexName)); err != nil {
		t.Errorf("store index missing: %v", err)
	}
}

// TestDiskStoreCodeVersionIsolation: entries written under one code version
// are invisible to — and GC-able by — a build with another.
func TestDiskStoreCodeVersionIsolation(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	old, err := OpenDiskStore(dir, "codev-old", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	old.Put(key, storeTestSnapshot(t, reg))

	cur, err := OpenDiskStore(dir, "codev-new", reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cur.Get(key); ok {
		t.Fatal("entry written under another code version was served")
	}
	cur.Put(key, storeTestSnapshot(t, reg))

	removed, reclaimed, err := cur.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed <= 0 {
		t.Fatalf("GC removed %d files (%d bytes), want exactly the stale entry", removed, reclaimed)
	}
	if _, ok := cur.Get(key); !ok {
		t.Fatal("GC removed the current build's entry")
	}
	if _, ok := old.Get(key); ok {
		t.Fatal("stale entry survived GC")
	}
}

// TestDiskStoreDegradesCorruptionToMiss: a mangled or truncated entry is a
// miss (counted as a decode failure and removed), never an error — and a put
// then repairs it.
func TestDiskStoreDegradesCorruptionToMiss(t *testing.T) {
	reg := storeTestRegistry(t)
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"flipped-byte", func(d []byte) []byte { d[len(d)/2] ^= 0xff; return d }},
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"empty", func(d []byte) []byte { return nil }},
		{"garbage", func(d []byte) []byte { return []byte("not a snapshot entry") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenDiskStore(dir, "codev1", reg)
			if err != nil {
				t.Fatal(err)
			}
			key := storeTestKey("storetest")
			s.Put(key, storeTestSnapshot(t, reg))
			path := s.entryPath(key)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); ok {
				t.Fatal("corrupted entry was served")
			}
			if st := s.tierStats(); st.DecodeFailures != 1 {
				t.Fatalf("tier stats = %+v, want 1 decode failure", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatal("corrupted entry was not removed")
			}
			s.Put(key, storeTestSnapshot(t, reg))
			if _, ok := s.Get(key); !ok {
				t.Fatal("store did not recover after re-put")
			}
		})
	}
}

// TestDiskStoreGCSweepsDebris: orphaned temp files and undecodable entries go,
// the index and live entries stay.
func TestDiskStoreGCSweepsDebris(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	key := storeTestKey("storetest")
	s.Put(key, storeTestSnapshot(t, reg))
	for name, content := range map[string]string{
		"orphan.1234" + tmpExt:             "partial write",
		strings.Repeat("ab", 32) + snapExt: "garbage entry",
		"unrelated.txt":                    "left alone",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("GC removed %d files, want the temp file and the garbage entry", removed)
	}
	if _, ok := s.Get(key); !ok {
		t.Fatal("GC removed a live entry")
	}
	for _, want := range []string{indexName, "unrelated.txt"} {
		if _, err := os.Stat(filepath.Join(dir, want)); err != nil {
			t.Errorf("GC removed %s: %v", want, err)
		}
	}
}

// TestTieredStorePromotesAndCounts pins the tier composition: disk hits are
// promoted into memory, and the top-level stats count the composition's own
// lookups.
func TestTieredStorePromotesAndCounts(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()

	// Warm the disk via one tiered store (simulating the first process).
	disk, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewTieredStore(nil, disk)
	key := storeTestKey("storetest")
	if _, ok := warm.Get(key); ok {
		t.Fatal("empty tiered store reported a hit")
	}
	warm.Put(key, storeTestSnapshot(t, reg))
	if st := warm.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss and no hits", st)
	}

	// A second process: memory cold, disk warm.
	disk2, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTieredStore(NewSnapshotCache(4), disk2)
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("warm disk did not serve the tiered lookup")
	}
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("promoted entry missing from memory tier")
	}
	st := tiered.Stats()
	if st.Misses != 0 {
		t.Fatalf("stats = %+v, want 0 misses on a warm store", st)
	}
	if st.Hits != 2 {
		t.Fatalf("stats = %+v, want 2 hits (one disk, one memory)", st)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "memory" || st.Tiers[1].Tier != "disk" {
		t.Fatalf("tiers = %+v, want [memory disk]", st.Tiers)
	}
	if st.Tiers[0].Hits != 1 || st.Tiers[1].Hits != 1 || st.Tiers[1].Misses != 0 {
		t.Fatalf("tiers = %+v, want one hit per tier and no disk miss", st.Tiers)
	}
}

// TestTieredStoreConcurrency hammers a tiered store from many goroutines;
// under -race it pins the safety the parallel suite scheduler relies on, and
// the atomic-rename write path means concurrent writers of one key are fine.
func TestTieredStoreConcurrency(t *testing.T) {
	reg := storeTestRegistry(t)
	disk, err := OpenDiskStore(t.TempDir(), "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	s := NewTieredStore(NewSnapshotCache(4), disk)
	snap := storeTestSnapshot(t, reg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := storeTestKey(string(rune('a' + (g+i)%8)))
				if _, ok := s.Get(key); !ok {
					s.Put(key, snap)
				}
				if i%10 == 0 {
					_ = s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Tiers[1].DroppedPuts != 0 || st.Tiers[1].DecodeFailures != 0 {
		t.Fatalf("concurrent traffic dropped puts or failed decodes: %+v", st)
	}
}

// TestDiskStoreCrashedWriterRecovery simulates a writer SIGKILLed mid-Put.
// The atomic temp-and-rename protocol means a crash can only ever leave an
// orphaned temp file, never a partial committed entry: a fresh process must
// serve the committed entries correctly, Get must not mistake a directory
// squatting on an entry path for an entry, and GC must reclaim the orphan
// without touching live entries.
func TestDiskStoreCrashedWriterRecovery(t *testing.T) {
	reg := storeTestRegistry(t)
	dir := t.TempDir()
	s, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	snap := storeTestSnapshot(t, reg)
	k := storeTestKey("storetest")
	s.Put(k, snap)

	// The crash: a writer died between CreateTemp and Rename, leaving its
	// temp file behind (the exact artifact of a SIGKILL mid-Put).
	orphan := filepath.Join(dir, "deadbeef"+snapExt+".12345"+tmpExt)
	if err := os.WriteFile(orphan, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh process over the same directory serves the committed entry.
	s2, err := OpenDiskStore(dir, "codev1", reg)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok {
		t.Fatal("committed entry lost after simulated crash")
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("recovered snapshot differs:\n  want %+v\n  got  %+v", snap, got)
	}

	// GC (-store-gc) reclaims exactly the orphan.
	removed, reclaimed, err := s2.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || reclaimed != int64(len("partial write")) {
		t.Fatalf("GC removed %d files / %d bytes, want the 1 orphan / %d bytes",
			removed, reclaimed, len("partial write"))
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived GC")
	}
	if _, ok := s2.Get(k); !ok {
		t.Fatal("GC removed a live entry")
	}

	// Injected rename failure: a directory squatting on the entry path makes
	// os.Rename fail. The Put must degrade to a counted drop, clean up its
	// temp file, and leave Get reporting a plain miss.
	k2 := storeTestKey("renamefail")
	if err := os.MkdirAll(s2.entryPath(k2), 0o755); err != nil {
		t.Fatal(err)
	}
	s2.Put(k2, snap)
	if st := s2.Stats(); st.Tiers[0].DroppedPuts != 1 {
		t.Fatalf("dropped puts = %d, want 1 after injected rename failure", st.Tiers[0].DroppedPuts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), tmpExt) {
			t.Fatalf("failed Put leaked temp file %s", e.Name())
		}
	}
	if _, ok := s2.Get(k2); ok {
		t.Fatal("Get served an entry whose path is a directory")
	}
}
