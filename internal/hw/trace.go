package hw

import (
	"fmt"
	"time"

	"vcomputebench/internal/kernels"
)

// This file is the execute/replay seam of the simulator. A run's Host records
// every host-clock advance and every unit of device work as a symbolic
// TraceEvent whose duration is a *function of the driver profile*, not a
// number, and steps the run's timeline over each event as it is recorded.
// Replaying the trace under any DriverProfile steps a fresh timeline over the
// same events with the same step function, so replay equals execution by
// construction — without re-executing a single workgroup. The expensive part
// of a measurement (functional kernel execution producing kernels.Counters) is
// invariant under every timing knob, so a recorded trace turns a calibration
// sweep of E candidate profiles from E executions into 1 execution + E
// analytic replays.
//
// What is profile-dependent and what is not:
//
//   - EvSpend / EvOccupy durations are Costs: a fixed part plus counts of
//     DriverProfile duration knobs, revalued at replay time.
//   - EvKernel durations are KernelDuration(profile, driver, prog, counters),
//     recomputed from the dispatch's recorded counters (plus a Cost for the
//     API layer's extra device time).
//   - EvTransfer durations are TransferDuration(profile, bytes).
//   - The event *sequence* (control flow, dispatch grids, byte volumes,
//     counters) is invariant under DriverProfile changes; it does depend on
//     the structural profile fields summarised by ExecutionFingerprint.
//
// A trace is a set of flat tables. A run uses a handful of distinct costs
// (no recorded trace has more than 15), so each is stored once in
// Trace.Costs and valued once per profile; a dispatch's program and counters
// are stored once in Trace.Kernels. An event holds indices into both, which
// keeps it small and free of pointers: a trace of thousands of events is one
// allocation the garbage collector never scans.

// Knob identifies one DriverProfile duration field a recorded cost refers to
// symbolically, so replay can revalue it under a different profile.
type Knob uint8

// The DriverProfile duration knobs.
const (
	KnobKernelLaunch     Knob = iota // KernelLaunchOverhead
	KnobSync                         // SyncLatency
	KnobSubmit                       // SubmitOverhead
	KnobCommandRecord                // CommandRecordOverhead
	KnobPipelineBind                 // PipelineBindOverhead
	KnobBarrier                      // BarrierOverhead
	KnobDescriptorUpdate             // DescriptorUpdateOverhead
	KnobPushConstant                 // PushConstantOverhead
	KnobJITCompile                   // JITCompileTime
	KnobPipelineCreate               // PipelineCreateTime
	KnobAlloc                        // AllocOverhead
	knobCount
)

// value reads the knob from a driver profile.
func (k Knob) value(drv *DriverProfile) time.Duration {
	switch k {
	case KnobKernelLaunch:
		return drv.KernelLaunchOverhead
	case KnobSync:
		return drv.SyncLatency
	case KnobSubmit:
		return drv.SubmitOverhead
	case KnobCommandRecord:
		return drv.CommandRecordOverhead
	case KnobPipelineBind:
		return drv.PipelineBindOverhead
	case KnobBarrier:
		return drv.BarrierOverhead
	case KnobDescriptorUpdate:
		return drv.DescriptorUpdateOverhead
	case KnobPushConstant:
		return drv.PushConstantOverhead
	case KnobJITCompile:
		return drv.JITCompileTime
	case KnobPipelineCreate:
		return drv.PipelineCreateTime
	case KnobAlloc:
		return drv.AllocOverhead
	default:
		return 0
	}
}

// Cost is a symbolic duration: a fixed part plus integer counts of driver
// knobs. Valuation multiplies each count by the knob's current profile value.
// A Host values every cost itself, under the driver of its run's API, so no
// duration travels next to its cost.
type Cost struct {
	Fixed  time.Duration
	Counts [knobCount]int32
}

// FixedCost returns a profile-independent cost.
func FixedCost(d time.Duration) Cost { return Cost{Fixed: d} }

// KnobCost returns the cost of one use of a driver knob.
func KnobCost(k Knob) Cost { return KnobCostN(k, 1) }

// KnobCostN returns the cost of n uses of a driver knob.
func KnobCostN(k Knob, n int) Cost {
	var c Cost
	c.Counts[k] = int32(n)
	return c
}

// Plus returns the sum of two costs.
func (c Cost) Plus(o Cost) Cost {
	c.Fixed += o.Fixed
	for i := range c.Counts {
		c.Counts[i] += o.Counts[i]
	}
	return c
}

// IsZero reports whether the cost is structurally empty: no fixed part and no
// knob uses. A structurally non-empty cost may still evaluate to zero under a
// profile whose knobs are zero — callers that gate work on a cost must use
// IsZero, not the valuation, so the decision is profile-independent.
func (c Cost) IsZero() bool {
	if c.Fixed != 0 {
		return false
	}
	for _, n := range c.Counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// Duration values the cost under a driver profile.
func (c Cost) Duration(drv *DriverProfile) time.Duration {
	d := c.Fixed
	for k, n := range c.Counts {
		if n != 0 {
			d += time.Duration(n) * Knob(k).value(drv)
		}
	}
	return d
}

// EventKind discriminates TraceEvent.
type EventKind uint8

// Trace event kinds.
const (
	// EvSpend advances the host clock by Cost (a non-positive valuation
	// leaves it where it is).
	EvSpend EventKind = iota
	// EvKernel schedules KernelDuration(prog, counters) + Cost on a queue.
	EvKernel
	// EvTransfer schedules TransferDuration(bytes) on a queue.
	EvTransfer
	// EvOccupy schedules Cost on a queue (a negative valuation is a
	// zero-length span).
	EvOccupy
	// EvWait advances the host clock to the end of event Ref (no-op for a
	// negative Ref, which denotes an empty queue at record time).
	EvWait
	// EvMark samples the host clock (stopwatch boundaries, total-time reads).
	EvMark
)

// TraceEvent is one timed step of a recorded run. It holds no pointer, so a
// trace's event table is never scanned by the garbage collector.
type TraceEvent struct {
	Kind   EventKind
	Queue  uint8  // queue slot for EvKernel/EvTransfer/EvOccupy
	Ref    int32  // EvWait target event index (-1 = wait on nothing)
	Cost   uint32 // EvSpend / EvOccupy duration, EvKernel extra device time: index into Trace.Costs
	Kernel uint32 // EvKernel dispatch: index into Trace.Kernels
	Bytes  int64  // EvTransfer byte count
}

// KernelRecord is the recorded work of one dispatch: its program and the
// counters its functional execution produced.
type KernelRecord struct {
	Prog     *kernels.Program // immutable registry entry
	Counters kernels.Counters
}

// ReadingKind discriminates Reading.
type ReadingKind uint8

// Reading kinds.
const (
	// ReadHostMark is an absolute host-time sample: the value of mark event A.
	ReadHostMark ReadingKind = iota
	// ReadMarkDiff is a stopwatch interval: mark B minus mark A.
	ReadMarkDiff
	// ReadSpanSum is the summed device occupancy of the referenced events.
	ReadSpanSum
	// ReadEndDiff is end(B) - end(A) of two scheduled events (-1 = time zero),
	// the semantics of device-side event timers (cudaEventElapsedTime).
	ReadEndDiff
)

// Reading is one derived quantity a benchmark observed during the run (a
// stopwatch interval, a submission's kernel-time sum, an event-timer delta, a
// total-time sample). A Result field holds the index of the reading it was
// read from (see Measurement); replay recomputes the reading's value under
// the new profile.
type Reading struct {
	Kind ReadingKind
	A, B int32
	Refs []int32
}

// maxQueueSlots bounds the number of device queues a trace distinguishes
// (devices expose 3; slots beyond the bound would be a programming error).
const maxQueueSlots = 8

// Trace is the immutable timing trace of one benchmark run: the event
// sequence, the distinct costs and the dispatches its events refer to, and
// the readings benchmarks derived from it.
type Trace struct {
	API      API
	Costs    []Cost // each distinct cost once, in order of first use
	Kernels  []KernelRecord
	Events   []TraceEvent
	Readings []Reading
}

// span is one event's interval on the timeline: the host interval of a spend
// or a wait, the queue occupancy of scheduled work, the instant of a mark.
type span struct{ start, end time.Duration }

// timeline is the simulated time of one run: the host clock, each queue's
// latest event, every event's span, and the trace's costs valued under the
// run's driver. Execution (Host) and replay (Trace.Replay) advance it through
// the same step function, so the timing rules are stated once.
type timeline struct {
	now   time.Duration
	last  [maxQueueSlots]int32 // each queue's latest event, -1 while empty
	spans []span
	costs []time.Duration // Trace.Costs valued, index for index
}

// newTimeline returns a timeline at time zero with n event spans.
func newTimeline(n int) timeline {
	tl := timeline{spans: make([]span, n)}
	for i := range tl.last {
		tl.last[i] = -1
	}
	return tl
}

// availableAt reports when the queue drains: the end of its latest event, or
// time zero while it is empty.
func (tl *timeline) availableAt(queue uint8) time.Duration {
	if i := tl.last[queue]; i >= 0 {
		return tl.spans[i].end
	}
	return 0
}

// step advances the timeline over event i of the trace, valuing its duration
// under the profile and driver. These are the timing rules of the simulator:
//
//   - a spend advances the host clock by its cost; a non-positive valuation
//     leaves the clock where it is;
//   - queue work starts once both the host and the queue are ready and runs
//     for its duration, a negative one clamped to zero;
//   - a wait advances the host clock to the end of its event, if later (-1
//     waits on nothing);
//   - a mark samples the host clock.
func (tl *timeline) step(t *Trace, i int32, p *Profile, drv *DriverProfile) {
	ev := &t.Events[i]
	s := span{start: tl.now, end: tl.now}
	switch ev.Kind {
	case EvSpend:
		if d := tl.costs[ev.Cost]; d > 0 {
			s.end += d
		}
		tl.now = s.end
	case EvKernel, EvTransfer, EvOccupy:
		var d time.Duration
		switch ev.Kind {
		case EvKernel:
			k := &t.Kernels[ev.Kernel]
			d = KernelDuration(p, drv, k.Prog, &k.Counters) + tl.costs[ev.Cost]
		case EvTransfer:
			d = TransferDuration(p, ev.Bytes)
		case EvOccupy:
			d = tl.costs[ev.Cost]
		}
		s.start = max(s.start, tl.availableAt(ev.Queue))
		s.end = s.start + max(d, 0)
		tl.last[ev.Queue] = i
	case EvWait:
		if ev.Ref >= 0 {
			s.end = max(s.end, tl.spans[ev.Ref].end)
		}
		tl.now = s.end
	}
	tl.spans[i] = s
}

// value evaluates a reading on the timeline.
func (tl *timeline) value(r *Reading) time.Duration {
	end := func(ref int32) time.Duration {
		if ref < 0 {
			return 0
		}
		return tl.spans[ref].end
	}
	switch r.Kind {
	case ReadHostMark:
		return end(r.A)
	case ReadMarkDiff, ReadEndDiff:
		return end(r.B) - end(r.A)
	case ReadSpanSum:
		var sum time.Duration
		for _, ref := range r.Refs {
			sum += tl.spans[ref].end - tl.spans[ref].start
		}
		return sum
	}
	return 0
}

// Replayed is the outcome of replaying a trace under a profile: the replayed
// timeline, exposed through the quantities readings need.
type Replayed struct {
	trace *Trace
	tl    timeline
}

// Replay recomputes the trace's timeline under the given profile, stepping a
// fresh timeline over the recorded events exactly as the run's Host did. Each
// distinct cost is valued once, not once per event. It is a pure function of
// (trace, profile): no device or host state is touched, so it is safe to call
// concurrently on a shared trace. The profile must be execution-compatible
// with the one the trace was recorded under (same ExecutionFingerprint); only
// timing fields — every DriverProfile knob and the device-side timing
// parameters — may differ.
func (t *Trace) Replay(p *Profile) (*Replayed, error) {
	drv, ok := p.Driver(t.API)
	if !ok {
		return nil, fmt.Errorf("hw: replay of a %s trace on a profile without a %s driver", t.API, t.API)
	}
	rp := &Replayed{trace: t, tl: newTimeline(len(t.Events))}
	rp.tl.costs = make([]time.Duration, len(t.Costs))
	for i := range t.Costs {
		rp.tl.costs[i] = t.Costs[i].Duration(&drv)
	}
	for i := range t.Events {
		rp.tl.step(t, int32(i), p, &drv)
	}
	return rp, nil
}

// Reading returns the replayed value of the i-th trace reading.
func (rp *Replayed) Reading(i int) (time.Duration, error) {
	if i < 0 || i >= len(rp.trace.Readings) {
		return 0, fmt.Errorf("hw: replay has no reading %d", i)
	}
	r := &rp.trace.Readings[i]
	if r.Kind > ReadEndDiff {
		return 0, fmt.Errorf("hw: unknown reading kind %d", r.Kind)
	}
	return rp.tl.value(r), nil
}

// ExecutionFingerprint summarises every profile field that can change a run's
// execution — the trace structure, the dispatch counters, allocation success,
// memory-mapping validity — as opposed to the timing-only fields replay
// revalues (all DriverProfile duration knobs and efficiencies, dispatch and
// transfer latencies, bandwidths, clocks). Two profiles with equal
// fingerprints may share recorded counter snapshots; the snapshot cache keys
// on it so a calibration sweep's candidate profiles all hit the same entry.
func (p *Profile) ExecutionFingerprint() string {
	fp := fmt.Sprintf("class=%s;warp=%d;line=%d;devmem=%d;hostmem=%d;unified=%t;maxwg=%d",
		p.Class, p.WarpSize, p.CacheLineBytes, p.DeviceMemBytes, p.HostVisibleMemBytes,
		p.UnifiedMemory, p.MaxWorkgroupInvocations)
	for _, api := range AllAPIs() {
		drv, ok := p.Driver(api)
		if !ok {
			fp += fmt.Sprintf(";%s=off", api)
			continue
		}
		// PushConstantsAsBuffers selects which knob a recorded cost refers to;
		// MaxPushConstantBytes gates validation branches. Both are structural.
		fp += fmt.Sprintf(";%s=on,pcb=%t,maxpush=%d", api, drv.PushConstantsAsBuffers, drv.MaxPushConstantBytes)
	}
	return fp
}
