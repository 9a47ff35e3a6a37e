package vcomputebench_test

import (
	"bytes"
	"fmt"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// TestAPIsDispatchTheSameWork pins the paper's premise, which the suite's
// dispatch memo rests on: the API moves host time, never device work. On
// every platform, every registered benchmark at its smallest workload runs
// each API cell alone (no memo), and the cells must record the same
// dispatches, program by program with equal counters, and the same
// checksum. A benchmark that declares per-API device work
// (core.Descriptor.PerAPIDeviceWork) must actually differ on some platform,
// so a stale declaration fails too.
//
// The same cells pin what aliasing device memory rests on: a store to a
// binding its program declares read-only fails the cell
// (hw.ErrReadOnlyStore), and no run changes the input-stream words it
// uploaded (streamCheck). A cell whose dispatches are sampled at its class's
// smallest workload runs again at the mobile one, so that every dispatch
// checked executes all its workgroups.
func TestAPIsDispatchTheSameWork(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; see TestReplayMatchesExecution")
	}
	prefixes := 0
	for _, name := range core.Names() {
		d, err := core.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		registered, err := core.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		b := streamCheck{Benchmark: registered, prefixes: &prefixes}
		var differs []string
		var sampled []sampledCell
		for _, p := range platforms.All() {
			w := smallestWorkload(t, b, p.Profile.Class)
			r := &core.Runner{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)}
			var first *apiWork
			for _, api := range p.Profile.SupportedAPIs() {
				res, err := r.Run(p, b, api, w)
				if err != nil {
					var excl *core.ExclusionError
					if asExclusion(err, &excl) {
						continue
					}
					t.Fatalf("%s/%s on %s: %v", name, api, p.ID, err)
				}
				snap, ok := r.Cache.Get(r.CellKey(p, b, api, w))
				if !ok {
					t.Fatalf("%s/%s on %s: no snapshot stored", name, api, p.ID)
				}
				work := &apiWork{api: api, kernels: snap.Kernels(), checksum: res.Checksum}
				if sampledDispatch(work.kernels) {
					sampled = append(sampled, sampledCell{p, api})
				}
				if first == nil {
					first = work
				} else if diff := first.diff(work); diff != "" {
					differs = append(differs, p.ID+": "+diff)
				}
			}
		}
		// A cell that samples dispatches at its class's smallest workload
		// runs again at the mobile one, which executes every workgroup.
		for _, c := range sampled {
			r := &core.Runner{Repetitions: 1, Seed: 42, Cache: core.NewSnapshotCache(0)}
			w := smallestWorkload(t, b, hw.ClassMobile)
			if _, err := r.Run(c.p, b, c.api, w); err != nil {
				t.Fatalf("%s/%s on %s at %s: %v", name, c.api, c.p.ID, w.Label, err)
			}
			snap, ok := r.Cache.Get(r.CellKey(c.p, b, c.api, w))
			if !ok || sampledDispatch(snap.Kernels()) {
				t.Fatalf("%s/%s on %s: dispatches sampled at %s too, so not every store was checked", name, c.api, c.p.ID, w.Label)
			}
		}
		switch {
		case d.PerAPIDeviceWork && len(differs) == 0:
			t.Errorf("%s declares per-API device work, but its APIs dispatch the same work on every platform", name)
		case !d.PerAPIDeviceWork && len(differs) > 0:
			t.Errorf("%s: APIs dispatch different device work, so sharing dispatches between them would change results:\n  %v",
				name, differs)
		}
	}
	if prefixes == 0 {
		t.Fatal("no run uploaded an input-stream prefix")
	}
}

// sampledCell is a cell whose dispatches were sampled.
type sampledCell struct {
	p   *platforms.Platform
	api hw.API
}

// sampledDispatch reports whether a dispatch executed only a sample of its
// workgroups.
func sampledDispatch(ks []hw.KernelRecord) bool {
	for _, k := range ks {
		if k.Counters.SampleScale != 1 {
			return true
		}
	}
	return false
}

// streamCheck runs a benchmark and fails the run when a dispatch changed the
// words of an input stream it drew: each prefix the run registered with its
// memory system is hashed before the next dispatch and again after the run.
// prefixes counts the prefixes checked.
type streamCheck struct {
	core.Benchmark
	prefixes *int
}

func (b streamCheck) Run(ctx *core.RunContext) (*core.Result, error) {
	mem := ctx.Device.Memory()
	var seen []kernels.Words
	var sums []float64
	note := func() {
		for _, w := range mem.Frozen()[len(seen):] {
			seen = append(seen, w)
			sums = append(sums, core.ChecksumWords(w))
		}
	}
	ctx.Device.SetFaultHook(func() error { note(); return nil })
	res, err := b.Benchmark.Run(ctx)
	note()
	*b.prefixes += len(seen)
	for i, w := range seen {
		if core.ChecksumWords(w) != sums[i] {
			return nil, fmt.Errorf("input-stream prefix %d (%d words) changed during the run", i, len(w))
		}
	}
	return res, err
}

// apiWork is the device work one API cell did.
type apiWork struct {
	api      hw.API
	kernels  []hw.KernelRecord
	checksum float64
}

// diff describes the first difference between two cells' device work, or
// returns "".
func (a *apiWork) diff(b *apiWork) string {
	if a.checksum != b.checksum {
		return fmt.Sprintf("checksum %v (%s) vs %v (%s)", a.checksum, a.api, b.checksum, b.api)
	}
	if len(a.kernels) != len(b.kernels) {
		return fmt.Sprintf("%d dispatches (%s) vs %d (%s)", len(a.kernels), a.api, len(b.kernels), b.api)
	}
	for i := range a.kernels {
		ka, kb := a.kernels[i], b.kernels[i]
		if ka.Prog.Name != kb.Prog.Name || ka.Counters != kb.Counters {
			return fmt.Sprintf("dispatch %d: %s %+v (%s) vs %s %+v (%s)",
				i, ka.Prog.Name, ka.Counters, a.api, kb.Prog.Name, kb.Counters, b.api)
		}
	}
	return ""
}

// TestDispatchMemoParallelDeterminism: a cold figure gives byte-identical
// documents at -parallel 1 and 4, and executes the same dispatches and takes
// the same ones from the memo: a triple's cells run in grid order on one
// worker at any parallelism.
func TestDispatchMemoParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full figure twice; skipped with -short")
	}
	exp, err := experiments.ByID("fig4b")
	if err != nil {
		t.Fatal(err)
	}
	var docs [][]byte
	var counts [][2]uint64
	for _, par := range []int{1, 4} {
		e0, m0 := hw.DispatchCounts()
		doc, err := exp.Run(experiments.Options{Repetitions: 1, Seed: 42, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		e1, m1 := hw.DispatchCounts()
		data, err := report.EncodeJSON([]*report.Document{doc})
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, data)
		counts = append(counts, [2]uint64{e1 - e0, m1 - m0})
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatal("fig4b documents differ between -parallel 1 and 4")
	}
	if counts[0] != counts[1] {
		t.Fatalf("dispatches (executed, from the memo): %v at -parallel 1, %v at 4", counts[0], counts[1])
	}
	if counts[0][1] == 0 {
		t.Fatal("no dispatch came from the memo: sibling API cells no longer share their kernels")
	}
}
