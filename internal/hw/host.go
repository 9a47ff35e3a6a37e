package hw

import (
	"time"

	"vcomputebench/internal/kernels"
)

// Host is the simulated CPU of one run, and the run's one timing state: the
// trace being recorded (events and readings) and the timeline stepped over
// it. Every call that moves simulated time — a host spend or wait, queue
// work scheduled by the attached device — appends one event and steps the
// timeline through the same function Trace.Replay runs, so a replay of the
// trace equals the execution by construction. Every reading takes its value
// from the timeline by event index. Each cost an event uses is interned in
// the trace's cost table and valued once, beside the timeline, as Replay
// values it.
//
// A Host is not safe for concurrent use: a run's host code is
// single-threaded, and that is what it records.
type Host struct {
	dev   *Device
	drv   DriverProfile
	trace Trace
	tl    timeline
}

// NewHost returns a host at time zero recording a run of api on the device,
// and attaches it to the device: the device's queues schedule into it. Costs
// are valued under the device's api driver, the driver Trace.Replay uses for
// the recorded trace.
func NewHost(dev *Device, api API) *Host {
	drv, _ := dev.profile.Driver(api)
	h := &Host{dev: dev, drv: drv, trace: Trace{API: api}, tl: newTimeline(0)}
	dev.host = h
	return h
}

// API returns the API of the run the host records.
func (h *Host) API() API { return h.trace.API }

// Now returns the current host time.
func (h *Host) Now() time.Duration { return h.tl.now }

// record appends an event to the trace, steps the timeline over it and
// returns its index.
func (h *Host) record(ev TraceEvent) int32 {
	i := int32(len(h.trace.Events))
	h.trace.Events = append(h.trace.Events, ev)
	h.tl.spans = append(h.tl.spans, span{})
	h.tl.step(&h.trace, i, &h.dev.profile, &h.drv)
	return i
}

// intern returns the index of the cost in the trace's cost table, adding it
// (and its valuation under the run's driver) on first use. A run uses a
// handful of distinct costs, so a linear scan beats a map.
func (h *Host) intern(c Cost) uint32 {
	for i := range h.trace.Costs {
		if h.trace.Costs[i] == c {
			return uint32(i)
		}
	}
	h.trace.Costs = append(h.trace.Costs, c)
	h.tl.costs = append(h.tl.costs, c.Duration(&h.drv))
	return uint32(len(h.trace.Costs) - 1)
}

// dispatch adds a dispatch's program and counters to the trace's kernel
// table and returns its index.
func (h *Host) dispatch(prog *kernels.Program, c *kernels.Counters) uint32 {
	h.trace.Kernels = append(h.trace.Kernels, KernelRecord{Prog: prog, Counters: *c})
	return uint32(len(h.trace.Kernels) - 1)
}

// Spend advances the host clock by the cost of CPU-side work: API
// validation, command recording, driver bookkeeping.
func (h *Host) Spend(c Cost) { h.record(TraceEvent{Kind: EvSpend, Cost: h.intern(c)}) }

// Wait blocks the host until the recorded event ref completes (a fence or a
// blocking transfer); -1 waits on nothing.
func (h *Host) Wait(ref int32) { h.record(TraceEvent{Kind: EvWait, Ref: ref}) }

// WaitQueue blocks the host until the queue drains.
func (h *Host) WaitQueue(q *Queue) { h.Wait(q.Last()) }

// Mark samples the host clock and returns the sample's event index.
func (h *Host) Mark() int32 { return h.record(TraceEvent{Kind: EvMark}) }

// Measurement is a time the run observed: its value, and the index of the
// trace reading it was read from. A Result keeps the index, so replay
// recomputes the time from that reading under another profile.
type Measurement struct {
	D       time.Duration
	Reading int
}

// read records a reading and returns its value on the timeline with its
// index.
func (h *Host) read(r Reading) Measurement {
	h.trace.Readings = append(h.trace.Readings, r)
	return Measurement{D: h.tl.value(&r), Reading: len(h.trace.Readings) - 1}
}

// ReadNow reads the current host time.
func (h *Host) ReadNow() Measurement { return h.read(Reading{Kind: ReadHostMark, A: h.Mark()}) }

// ReadSince reads the host time elapsed since the mark (a stopwatch).
func (h *Host) ReadSince(mark int32) Measurement {
	return h.read(Reading{Kind: ReadMarkDiff, A: mark, B: h.Mark()})
}

// ReadSpanSum reads the summed device occupancy of the scheduled events
// (a Vulkan submission's dispatches, a set of OpenCL profiling events).
func (h *Host) ReadSpanSum(refs []int32) Measurement {
	return h.read(Reading{Kind: ReadSpanSum, Refs: refs})
}

// ReadEndDiff reads end(b) - end(a) of two scheduled events, -1 standing for
// time zero: the semantics of device-side event timers
// (cudaEventElapsedTime).
func (h *Host) ReadEndDiff(a, b int32) Measurement {
	return h.read(Reading{Kind: ReadEndDiff, A: a, B: b})
}

// Trace returns the trace recorded so far.
func (h *Host) Trace() *Trace {
	t := h.trace
	return &t
}
