package hw

import (
	"fmt"
	"time"

	"vcomputebench/internal/kernels"
)

// Device is a simulated GPU: a validated profile, a memory system, and a set
// of queues (execution engines).
type Device struct {
	profile Profile
	mem     *MemorySystem
	queues  map[QueueKind][]*Queue
	// dispatchParallelism caps the host worker goroutines each functional
	// dispatch fans out across (0 = GOMAXPROCS). The suite runner sets it to
	// its per-cell core budget so concurrent benchmark cells do not
	// oversubscribe the machine; counters are identical for any value.
	dispatchParallelism int
	// host is the run's host NewHost attached: queue work is recorded into
	// its trace and scheduled on its timeline.
	host *Host
	// faultHook, when non-nil, is consulted before every kernel dispatch; a
	// non-nil return aborts the dispatch with that error, exactly as a driver
	// failure would. The runner installs it to enforce per-cell deadlines and
	// to inject deterministic faults (internal/faults); nil costs nothing.
	faultHook func() error
}

// NewDevice constructs a simulated device from a profile. The device exposes
// two compute queues and one transfer queue, matching the queue-family model
// described in §III-B.
func NewDevice(p Profile) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	hostVisible := p.HostVisibleMemBytes
	if hostVisible <= 0 {
		hostVisible = p.DeviceMemBytes
	}
	d := &Device{
		profile: p,
		mem:     NewMemorySystem(p.DeviceMemBytes, hostVisible),
		queues:  make(map[QueueKind][]*Queue),
	}
	d.mem.memo = newOwnMemo()
	d.addQueue(QueueCompute)
	d.addQueue(QueueCompute)
	d.addQueue(QueueTransfer)
	return d, nil
}

func (d *Device) addQueue(kind QueueKind) *Queue {
	idx := len(d.queues[kind])
	slot := 0
	for _, qs := range d.queues {
		slot += len(qs)
	}
	if slot >= maxQueueSlots {
		// The timeline indexes per-queue state by slot in a fixed-size
		// array; failing here keeps a future many-queue profile from
		// panicking deep inside a recorded run instead.
		panic(fmt.Sprintf("hw: device %q exceeds the %d trace queue slots", d.profile.Name, maxQueueSlots))
	}
	q := &Queue{dev: d, kind: kind, index: idx, slot: uint8(slot)}
	d.queues[kind] = append(d.queues[kind], q)
	return q
}

// Profile returns the device's hardware profile.
func (d *Device) Profile() *Profile { return &d.profile }

// SetDispatchParallelism sets the per-dispatch worker budget forwarded to
// kernels.DispatchConfig.Parallelism (0 restores the GOMAXPROCS default).
func (d *Device) SetDispatchParallelism(n int) {
	if n < 0 {
		n = 0
	}
	d.dispatchParallelism = n
}

// DispatchParallelism returns the per-dispatch worker budget (0 = GOMAXPROCS).
func (d *Device) DispatchParallelism() int { return d.dispatchParallelism }

// SetDispatchMemo attaches the dispatch memo a run shares with its sibling
// API cells and starts the run on it: Missed is reset. Attach it before the
// run's first dispatch and keep it until the run ends; nil gives the device a
// fresh memo of its own, as NewDevice does.
func (d *Device) SetDispatchMemo(m *DispatchMemo) {
	if m == nil {
		m = newOwnMemo()
	}
	m.missed = false
	d.mem.memo = m
}

// SetFaultHook installs (or, with nil, removes) the pre-dispatch hook every
// ExecuteKernel consults. The hook runs on the dispatching goroutine before
// any functional work; returning an error fails the dispatch through the same
// path a real driver error takes, so all API front ends propagate it.
func (d *Device) SetFaultHook(h func() error) { d.faultHook = h }

// Memory returns the device's memory system.
func (d *Device) Memory() *MemorySystem { return d.mem }

// QueueCount reports how many queues of the given kind the device exposes.
func (d *Device) QueueCount(kind QueueKind) int { return len(d.queues[kind]) }

// Queue returns the index-th queue of the given kind.
func (d *Device) Queue(kind QueueKind, index int) (*Queue, error) {
	qs := d.queues[kind]
	if index < 0 || index >= len(qs) {
		return nil, fmt.Errorf("hw: device %q has no %s queue %d", d.profile.Name, kind, index)
	}
	return qs[index], nil
}

// Driver returns the driver profile for the API or an error if the API is not
// supported on this device.
func (d *Device) Driver(api API) (DriverProfile, error) {
	drv, ok := d.profile.Driver(api)
	if !ok {
		return DriverProfile{}, fmt.Errorf("hw: device %q does not support %s", d.profile.Name, api)
	}
	return drv, nil
}

// KernelRun reports the outcome of executing one dispatch on a queue.
type KernelRun struct {
	// Event is the dispatch's index in the run's trace.
	Event    int32
	Counters kernels.Counters
}

// Queue is an in-order execution engine of the device.
type Queue struct {
	dev   *Device
	kind  QueueKind
	index int
	slot  uint8
}

// Kind returns the queue's functionality class.
func (q *Queue) Kind() QueueKind { return q.kind }

// Index returns the queue index within its family.
func (q *Queue) Index() int { return q.index }

// Device returns the owning device.
func (q *Queue) Device() *Device { return q.dev }

// Last returns the trace index of the latest work scheduled on the queue, or
// -1 while it is empty. The index denotes "the work this queue has accepted
// so far": waiting on it drains the queue, and event timers snapshot it
// (cudaEventRecord).
func (q *Queue) Last() int32 { return q.dev.host.tl.last[q.slot] }

// AvailableAt reports when the queue becomes idle.
func (q *Queue) AvailableAt() time.Duration { return q.dev.host.tl.availableAt(q.slot) }

// schedule records work on this queue into the attached host and returns its
// trace index. Work starts no earlier than the host's current time.
func (q *Queue) schedule(ev TraceEvent) int32 {
	ev.Queue = q.slot
	return q.dev.host.record(ev)
}

// ExecuteKernel functionally executes the program on the device and schedules
// its simulated duration (plus extra, the symbolic cost of API-layer device
// work such as pipeline binds or barriers) on this queue. The dispatch is
// recorded — program, counters and the symbolic extra cost — so replay can
// recompute its duration under any driver profile.
//
// The kernel's buffers are the bound allocations, binding i at index i; cfg
// carries no Buffers then. A dispatch a sibling cell executed, or one that
// reruns on the state it left, takes its counters from the device's
// DispatchMemo; a hit still passes the fault hook, so it consumes its
// dispatch ordinal. A dispatch of raw cfg.Buffers (tests) always executes.
func (q *Queue) ExecuteKernel(prog *kernels.Program, cfg kernels.DispatchConfig, binds []Binding, extra Cost) (KernelRun, error) {
	if h := q.dev.faultHook; h != nil {
		if err := h(); err != nil {
			return KernelRun{}, err
		}
	}
	if q.kind != QueueCompute && q.kind != QueueGraphics {
		return KernelRun{}, fmt.Errorf("hw: queue %s%d cannot execute compute work", q.kind, q.index)
	}
	host := q.dev.host
	if !host.drv.Supported {
		return KernelRun{}, fmt.Errorf("hw: device %q does not support %s", q.dev.profile.Name, host.API())
	}
	if cfg.WarpSize == 0 {
		cfg.WarpSize = q.dev.profile.WarpSize
	}
	if cfg.CacheLineBytes == 0 {
		cfg.CacheLineBytes = q.dev.profile.CacheLineBytes
	}
	if cfg.Parallelism == 0 {
		// Apply the suite runner's per-cell core budget (like the WarpSize /
		// CacheLineBytes profile defaults, every API front end funnels
		// through here).
		cfg.Parallelism = q.dev.dispatchParallelism
	}
	counters, err := q.dev.execute(prog, cfg, binds)
	if err != nil {
		return KernelRun{}, err
	}
	ref := q.schedule(TraceEvent{Kind: EvKernel, Kernel: host.dispatch(prog, counters), Cost: host.intern(extra)})
	return KernelRun{Event: ref, Counters: *counters}, nil
}

// execute runs a dispatch: through the device's memo when its buffers are
// bound allocations, else with kernels.Execute.
func (d *Device) execute(prog *kernels.Program, cfg kernels.DispatchConfig, binds []Binding) (*kernels.Counters, error) {
	if cfg.Buffers == nil {
		return d.mem.memo.execute(prog, cfg, binds)
	}
	c, _, _, err := executeKernel(prog, cfg)
	return c, err
}

// ExecuteTransfer schedules a host<->device copy of n bytes on this queue and
// returns its trace index.
func (q *Queue) ExecuteTransfer(n int64) int32 {
	return q.schedule(TraceEvent{Kind: EvTransfer, Bytes: n})
}

// Occupy schedules opaque device-side work (e.g. a barrier's drain time) of
// the given symbolic cost on the queue.
func (q *Queue) Occupy(c Cost) { q.schedule(TraceEvent{Kind: EvOccupy, Cost: q.dev.host.intern(c)}) }
