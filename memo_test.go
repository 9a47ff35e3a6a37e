package vcomputebench_test

import (
	"bytes"
	"fmt"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
)

// TestAPIsDispatchTheSameWork pins the paper's premise, which the suite's
// dispatch memo rests on: the API moves host time, never device work. On
// every platform, every registered benchmark at its smallest workload runs
// each API cell alone (no memo), and the cells must record the same
// dispatches, program by program with equal counters, and the same
// checksum. A benchmark that declares per-API device work
// (core.Descriptor.PerAPIDeviceWork), which the suite then never shares,
// must actually differ on some platform, so a stale declaration fails too.
func TestAPIsDispatchTheSameWork(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-threaded determinism matrix; see TestReplayMatchesExecution")
	}
	for _, name := range core.Names() {
		d, err := core.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		var differs []string
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
				if first == nil {
					first = work
				} else if diff := first.diff(work); diff != "" {
					differs = append(differs, p.ID+": "+diff)
				}
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
