// Snapshot is the execute/replay boundary of a measurement: everything the
// one run of a (platform, benchmark, workload, API, seed) cell produced that
// does not depend on the driver's timing knobs — the functional outcome
// (checksum, dispatch count, timing-independent extras) plus the run's timing
// trace — and the bindings that tie the Result's measured fields to readings
// of that trace. Replaying a snapshot under any DriverProfile recomputes
// durations and bandwidths bit-identically to a fresh execution; the runner
// builds every Result, executed or stored, this way.
//
// Invalidation rules: a snapshot is valid only for platforms whose
// hw.Profile.ExecutionFingerprint matches the one it was recorded under. Any
// change to internal/kernels or to a benchmark's workloads invalidates
// snapshots. For the in-memory cache that is automatic (it dies with the
// process); for the persistent DiskStore it is enforced by folding the
// build's code-version fingerprint (internal/codeversion, a digest over the
// kernel and workload sources embedded at build time) into every entry's
// content address, so entries written by a build with different
// execution-relevant code are never even opened. Changes to DriverProfile
// knob values or other timing-only profile fields never invalidate — replay
// revalues them — which is why those sources are deliberately excluded from
// the code-version fingerprint.
package core

import (
	"fmt"
	"slices"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// Snapshot is an immutable executed cell, replayable under any driver
// profile with a matching execution fingerprint.
type Snapshot struct {
	trace       *hw.Trace
	fingerprint string

	benchmark string
	workload  string
	api       hw.API

	kernelReading int
	totalReading  int

	dispatches      int
	checksum        float64
	extras          map[string]float64 // timing-independent extras, copied verbatim
	throughputBytes map[string]float64 // bytes-over-kernel-time extras, recomputed
}

// newSnapshot ties an executed run's Result to its recorded trace through
// the reading indices RunContext.Result kept. It fails a Result built any
// other way: its times are bound to no reading, so replay could not
// recompute them.
func newSnapshot(p *platforms.Platform, b Benchmark, api hw.API, w Workload, tr *hw.Trace, res *Result) (*Snapshot, error) {
	if res.kernelReading == 0 || res.totalReading == 0 {
		return nil, fmt.Errorf("core: %s/%s on %s (%s): the Result was not built by ctx.Result, so its times "+
			"are bound to no trace reading and the cell cannot be replayed", b.Name(), api, p.ID, w.Label)
	}
	s := &Snapshot{
		trace:         tr,
		fingerprint:   p.Profile.ExecutionFingerprint(),
		benchmark:     b.Name(),
		workload:      w.Label,
		api:           api,
		kernelReading: res.kernelReading - 1,
		totalReading:  res.totalReading - 1,
		dispatches:    res.Dispatches,
		checksum:      res.Checksum,
	}
	if len(res.Extra) > 0 {
		s.extras = make(map[string]float64, len(res.Extra))
		for k, v := range res.Extra {
			s.extras[k] = v
		}
	}
	if len(res.throughputBytes) > 0 {
		s.throughputBytes = make(map[string]float64, len(res.throughputBytes))
		for k, v := range res.throughputBytes {
			s.throughputBytes[k] = v
			delete(s.extras, k) // recomputed from the replayed kernel time
		}
	}
	return s, nil
}

// Kernels returns the dispatches the snapshot's run recorded, in order.
func (s *Snapshot) Kernels() []hw.KernelRecord { return slices.Clone(s.trace.Kernels) }

// Replay recomputes the cell's Result under the platform's current profile —
// typically a clone of the recorded platform with different DriverProfile
// knob values. It is a pure function: safe for concurrent use on a shared
// snapshot, and bit-identical to executing the cell afresh on the same
// platform (the determinism tests pin this equivalence).
func (s *Snapshot) Replay(p *platforms.Platform) (*Result, error) {
	if fp := p.Profile.ExecutionFingerprint(); fp != s.fingerprint {
		return nil, fmt.Errorf("core: snapshot of %s/%s was recorded under a different execution fingerprint\n  have %s\n  want %s",
			s.benchmark, s.api, fp, s.fingerprint)
	}
	rp, err := s.trace.Replay(&p.Profile)
	if err != nil {
		return nil, err
	}
	kernelTime, err := rp.Reading(s.kernelReading)
	if err != nil {
		return nil, err
	}
	totalTime, err := rp.Reading(s.totalReading)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Benchmark:  s.benchmark,
		API:        s.api,
		Platform:   p.ID,
		Workload:   s.workload,
		KernelTime: kernelTime,
		TotalTime:  totalTime,
		Dispatches: s.dispatches,
		Checksum:   s.checksum,
	}
	//lint:allow(SetExtra inserts into a map keyed by name; iteration order cannot reach output)
	for name, v := range s.extras {
		res.SetExtra(name, v)
	}
	//lint:allow(SetExtraThroughput inserts into a map keyed by name; iteration order cannot reach output)
	for name, bytes := range s.throughputBytes {
		res.SetExtraThroughput(name, bytes)
	}
	return res, nil
}
