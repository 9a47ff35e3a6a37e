package vcomputebench_test

import (
	"bytes"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	_ "vcomputebench/internal/rodinia/suite"
)

// encodeDoc renders one document under the versioned JSON schema; the chaos
// determinism tests compare these encodings byte for byte.
func encodeDoc(t *testing.T, doc *report.Document) []byte {
	t.Helper()
	data, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosGridDeterministicUnderFaults runs experiments under an elevated
// mix of every fault class in keep-going mode and pins the core degradation
// contracts: the run survives (documents are produced, failed cells are
// structured entries, the process never dies), the output is byte-identical
// at any suite parallelism — the fault schedule is a pure function of
// (seed, site), not of scheduling — and no attempt a fault hit is stored. The
// inputs are a full paper figure and the command-buffer ablation, whose cells
// reach the fault model through the runner like every other cell.
//
// No CellTimeout on purpose: deadline expiry depends on wall-clock scheduling
// and would break byte-identity; the hang class still exercises its
// deadline-less immediate-surface path deterministically.
func TestChaosGridDeterministicUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure repeatedly; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDNexus)
	if err != nil {
		t.Fatal(err)
	}
	ablation, err := experiments.ByID("ablation-cmdbuf")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		id  string
		run func(experiments.Options) (*report.Document, error)
	}{
		{"fig4a", func(opts experiments.Options) (*report.Document, error) {
			return experiments.SpeedupDocument("fig4a", p, []hw.API{hw.APIOpenCL, hw.APIVulkan}, opts)
		}},
		{"ablation-cmdbuf", ablation.Run},
	}
	for _, in := range inputs {
		in := in
		t.Run(in.id, func(t *testing.T) {
			run := func(parallelism int) *report.Document {
				t.Helper()
				inj := &planRecorder{Injector: faults.New(1234,
					faults.Rule{Class: faults.DriverFault, Rate: 0.15},
					faults.Rule{Class: faults.Hang, Rate: 0.10},
					faults.Rule{Class: faults.DeviceLost, Rate: 0.15},
					faults.Rule{Class: faults.OOM, Rate: 0.10},
				)}
				store := &putRecorder{SnapshotStore: core.NewSnapshotCache(0)}
				doc, err := in.run(experiments.Options{
					Repetitions: 1, Seed: 42, Parallelism: parallelism, Cache: store,
					Faults: inj, Retries: 1, KeepGoing: true,
				})
				if err != nil {
					t.Fatalf("parallelism %d: %v", parallelism, err)
				}
				requireFaultedNotStored(t, inj, store)
				return doc
			}
			serial := run(1)
			if len(serial.Failed) == 0 {
				t.Fatal("elevated fault rates produced no failed cells; the chaos run exercised nothing")
			}
			survivors := len(serial.Results)
			for _, tab := range serial.Tables {
				survivors += len(tab.Rows)
			}
			if survivors == 0 {
				t.Fatal("every cell failed; the chaos run shows no surviving cell")
			}
			if !serial.Degraded() {
				t.Fatal("document with failed cells does not report Degraded()")
			}
			for _, f := range serial.Failed {
				if f.Benchmark == "" || f.API == "" || f.Class == "" || f.Attempts < 1 || f.Reason == "" {
					t.Fatalf("failure entry incomplete: %+v", f)
				}
			}
			want := encodeDoc(t, serial)
			for _, par := range []int{2, 8} {
				if got := encodeDoc(t, run(par)); !bytes.Equal(want, got) {
					t.Fatalf("parallelism %d: degraded document differs from serial run:\n%s\nvs\n%s", par, got, want)
				}
			}

			if !expected.HasExpectations(in.id) {
				return
			}
			// A degraded paper figure must never pass the fidelity check.
			failedDegraded := 0
			for _, c := range expected.CompareDocument(in.id, serial) {
				if c.Kind == "degraded" && !c.Pass {
					failedDegraded++
				}
			}
			if failedDegraded != len(serial.Failed) {
				t.Fatalf("CompareDocument produced %d failing degraded checks for %d failed cells", failedDegraded, len(serial.Failed))
			}
		})
	}
}

// planRecorder is a fault planner that keeps every plan its injector draws,
// so a test can tell which attempts a fault hit.
type planRecorder struct {
	*faults.Injector
	mu    sync.Mutex
	plans []*faults.Plan
}

func (r *planRecorder) Plan(site faults.Site) *faults.Plan {
	plan := r.Injector.Plan(site)
	if plan != nil {
		r.mu.Lock()
		r.plans = append(r.plans, plan)
		r.mu.Unlock()
	}
	return plan
}

// putRecorder is a snapshot store that records the key of every Put.
type putRecorder struct {
	core.SnapshotStore
	mu   sync.Mutex
	puts []core.SnapshotKey
}

func (s *putRecorder) Put(k core.SnapshotKey, snap *core.Snapshot) {
	s.mu.Lock()
	s.puts = append(s.puts, k)
	s.mu.Unlock()
	s.SnapshotStore.Put(k, snap)
}

// requireFaultedNotStored fails the test when the store took a snapshot of a
// cell whose first attempt a fault hit, or when the run stored nothing or
// faulted nothing, so the check would hold vacuously.
func requireFaultedNotStored(t *testing.T, inj *planRecorder, store *putRecorder) {
	t.Helper()
	faulted := map[faults.Site]bool{}
	for _, plan := range inj.plans {
		if plan.Site.Attempt == 0 && plan.Fired() {
			faulted[plan.Site] = true
		}
	}
	if len(faulted) == 0 || len(store.puts) == 0 {
		t.Fatalf("%d faulted first attempts and %d stored cells; the check needs both", len(faulted), len(store.puts))
	}
	for _, k := range store.puts {
		site := faults.Site{Platform: k.Platform, Benchmark: k.Benchmark, Workload: k.Workload, API: string(k.API)}
		if faulted[site] {
			t.Fatalf("the store took %s/%s (%s) on %s, whose first attempt was faulted", k.Benchmark, k.API, k.Workload, k.Platform)
		}
	}
}

// TestChaosRetriesAbsorbTransients: when every injected fault is transient
// and the retry budget outlasts the longest fault streak, the degraded
// machinery must leave no trace — the document is byte-identical to a
// fault-free run.
func TestChaosRetriesAbsorbTransients(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure repeatedly; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDNexus)
	if err != nil {
		t.Fatal(err)
	}
	apis := []hw.API{hw.APIOpenCL, hw.APIVulkan}
	clean, err := experiments.SpeedupDocument("fig4a", p, apis,
		experiments.Options{Repetitions: 1, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(77, faults.Rule{Class: faults.DriverFault, Rate: 0.25})
	faulted, err := experiments.SpeedupDocument("fig4a", p, apis, experiments.Options{
		Repetitions: 1, Seed: 42,
		Faults: inj, Retries: 6, KeepGoing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := inj.Stats(); st.Planned == 0 || st.Fired == 0 {
		t.Fatalf("injector stats = %+v; the faulted run injected nothing, so the test proves nothing", st)
	}
	if len(faulted.Failed) != 0 {
		t.Fatalf("retries should have absorbed every transient fault, but %d cells failed: %+v",
			len(faulted.Failed), faulted.Failed)
	}
	if want, got := encodeDoc(t, clean), encodeDoc(t, faulted); !bytes.Equal(want, got) {
		t.Fatalf("retry-recovered document differs from fault-free run:\n%s\nvs\n%s", got, want)
	}
}

// TestChaosFaultedExecutionNeverCached: a retry-recovered cell must not seed
// the snapshot cache — replays only ever come from clean first attempts — and
// the recovered result must equal the clean one exactly.
func TestChaosFaultedExecutionNeverCached(t *testing.T) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workloads(p.Profile.Class)[0]

	cleanCache := core.NewSnapshotCache(0)
	cleanRunner := &core.Runner{Repetitions: 1, Seed: 42, Cache: cleanCache}
	clean, err := cleanRunner.Run(p, b, hw.APIVulkan, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := cleanCache.Stats().Entries; got != 1 {
		t.Fatalf("clean run cached %d snapshots, want 1", got)
	}

	// Fault the first attempt only; the retry recovers the cell.
	planner := plannerAttempt0{class: faults.DriverFault}
	faultedCache := core.NewSnapshotCache(0)
	faultedRunner := &core.Runner{Repetitions: 1, Seed: 42, Cache: faultedCache, Retries: 1, Faults: planner}
	recovered, err := faultedRunner.Run(p, b, hw.APIVulkan, w)
	if err != nil {
		t.Fatalf("fault on attempt 0 with Retries=1 should recover: %v", err)
	}
	if got := faultedCache.Stats().Entries; got != 0 {
		t.Fatalf("retry-recovered run cached %d snapshots, want 0 (faulted executions are never trusted)", got)
	}
	requireSameResult(t, "clean vs retry-recovered", clean, recovered)

	// The next run of the same cell re-executes (no tainted snapshot to hit)
	// and, being clean at attempt 0 this time... the planner still faults
	// attempt 0, so it recovers again and still caches nothing.
	if _, err := faultedRunner.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}
	if st := faultedCache.Stats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("cache stats after second recovered run = %+v, want no hits and no entries", st)
	}
}

// TestChaosFaultedExecutionNeverPersisted extends the never-cached invariant
// to the persistent store: a retry-recovered cell must leave no entry on
// disk — a tainted snapshot that survived the process would poison every
// future run, which is strictly worse than the in-memory case.
func TestChaosFaultedExecutionNeverPersisted(t *testing.T) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	w := b.Workloads(p.Profile.Class)[0]

	dir := t.TempDir()
	store := openStore(t, dir)
	runner := &core.Runner{
		Repetitions: 1, Seed: 42, Cache: store,
		Retries: 1, Faults: plannerAttempt0{class: faults.DriverFault},
	}
	if _, err := runner.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatalf("fault on attempt 0 with Retries=1 should recover: %v", err)
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(snaps) != 0 {
		t.Fatalf("retry-recovered run persisted %d snapshots, want 0 (faulted executions are never trusted)", len(snaps))
	}
	st := store.Stats()
	if st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("store stats after recovered run = %+v, want no hits and no entries", st)
	}
	for _, tier := range st.Tiers {
		if tier.Entries != 0 {
			t.Fatalf("%s tier holds %d entries after a recovered run, want 0", tier.Tier, tier.Entries)
		}
	}
}

// plannerAttempt0 injects one fault class at dispatch 0 of attempt 0 of every
// cell, and nothing on retries.
type plannerAttempt0 struct{ class faults.Class }

func (p plannerAttempt0) Plan(site faults.Site) *faults.Plan {
	if site.Attempt != 0 {
		return nil
	}
	return &faults.Plan{Class: p.class, Dispatch: 0, Site: site}
}

// hangRecorder hangs attempt 0 of exactly one target cell and records every
// attempt the planner is consulted for at that cell, so a test can prove how
// many retries the deadline expiry consumed.
type hangRecorder struct {
	benchmark string
	workload  string
	api       hw.API

	mu       sync.Mutex
	attempts []int
}

func (h *hangRecorder) Plan(site faults.Site) *faults.Plan {
	if site.Benchmark != h.benchmark || site.Workload != h.workload || site.API != string(h.api) {
		return nil
	}
	h.mu.Lock()
	h.attempts = append(h.attempts, site.Attempt)
	h.mu.Unlock()
	if site.Attempt != 0 {
		return nil
	}
	return &faults.Plan{Class: faults.Hang, Dispatch: 0, Site: site}
}

// seen returns the recorded attempt ordinals, sorted (a parallel suite may
// consult the planner from any worker).
func (h *hangRecorder) seen() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]int(nil), h.attempts...)
	sort.Ints(out)
	return out
}

// suiteDoc flattens a SuiteResult into a document in deterministic grid order
// so runs can be compared byte for byte through the versioned JSON schema.
func suiteDoc(t *testing.T, id string, s *core.SuiteResult, apis []hw.API) []byte {
	t.Helper()
	doc := &report.Document{ID: id, Title: id}
	benches := make([]string, 0, len(s.Results))
	for bench := range s.Results {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		byWorkload := s.Results[bench]
		workloads := make([]string, 0, len(byWorkload))
		for wl := range byWorkload {
			workloads = append(workloads, wl)
		}
		sort.Strings(workloads)
		for _, wl := range workloads {
			for _, api := range apis {
				if res, ok := s.Lookup(bench, wl, api); ok {
					doc.Results = append(doc.Results, res)
				}
			}
		}
	}
	return encodeDoc(t, doc)
}

// TestChaosHangDeadlineConsumesOneRetry pins the -retries × -cell-timeout
// interaction end to end: a hang that expires the per-attempt deadline must
// consume exactly one retry — the planner is consulted for attempts {0, 1}
// and nothing beyond — back off deterministically, and leave a suite
// byte-identical to a fault-free run, serial and at parallelism 8 alike.
func TestChaosHangDeadlineConsumesOneRetry(t *testing.T) {
	if testing.Short() {
		t.Skip("blocks one cell for the full cell deadline; skipped with -short")
	}
	p, err := platforms.ByID(platforms.IDNexus)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	apis := []hw.API{hw.APIOpenCL, hw.APIVulkan}
	target := bench.Workloads(p.Profile.Class)[0]

	// The deadline must be far above the slowest clean cell even under -race
	// (a clean expiry would break byte-identity) while bounding the wall time
	// the single hung cell adds to the test.
	const cellTimeout = 10 * time.Second

	run := func(parallelism int, planner core.FaultPlanner) *core.SuiteResult {
		t.Helper()
		r := &core.Runner{
			Repetitions: 1, Seed: 42, Parallelism: parallelism,
			CellTimeout: cellTimeout, Retries: 1, RetryBackoff: 10 * time.Millisecond,
			Faults: planner,
		}
		s, err := r.RunSuite(p, []core.Benchmark{bench}, apis)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if len(s.Failed) != 0 {
			t.Fatalf("parallelism %d: %d cells failed, want full recovery: %+v", parallelism, len(s.Failed), s.Failed)
		}
		return s
	}

	want := suiteDoc(t, "chaos-hang", run(1, nil), apis)
	for _, par := range []int{1, 8} {
		rec := &hangRecorder{benchmark: bench.Name(), workload: target.Label, api: hw.APIVulkan}
		got := suiteDoc(t, "chaos-hang", run(par, rec), apis)
		if attempts := rec.seen(); len(attempts) != 2 || attempts[0] != 0 || attempts[1] != 1 {
			t.Fatalf("parallelism %d: hung cell saw attempts %v, want exactly [0 1] (one retry consumed)", par, attempts)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("parallelism %d: hang-recovered suite differs from fault-free run:\n%s\nvs\n%s", par, got, want)
		}
	}
}
