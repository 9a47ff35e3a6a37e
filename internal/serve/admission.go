package serve

import (
	"context"
	"errors"
)

// errShed is returned by acquire when both the executor pool and the wait
// queue are full; the handler maps it to 429 + Retry-After.
var errShed = errors.New("serve: executor pool and queue full")

// admission is the bounded executor pool with a bounded wait queue in front
// of it. Only executions pass through here — the handler looks the cell up in
// the store first, and replays (microseconds, no executor touched) bypass
// admission entirely, which is what makes "replays are never shed"
// structural rather than a tuning outcome.
//
// Both bounds are plain buffered channels: slots holds one token per running
// execution, queue holds one per waiter allowed to block for a slot. A
// zero-capacity queue sheds the moment the pool is busy.
type admission struct {
	slots chan struct{}
	queue chan struct{}
}

func newAdmission(executors, queueDepth int) *admission {
	if executors < 1 {
		executors = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		slots: make(chan struct{}, executors),
		queue: make(chan struct{}, queueDepth),
	}
}

// acquire claims an executor slot, waiting in the bounded queue if the pool
// is busy. It returns the release function on success, errShed when pool and
// queue are both full, or ctx.Err() if the context ends while queued.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	default:
	}
	select {
	case a.queue <- struct{}{}:
	default:
		return nil, errShed
	}
	defer func() { <-a.queue }()
	select {
	case a.slots <- struct{}{}:
		return func() { <-a.slots }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// inFlight reports how many executor slots are currently held (metrics and
// test synchronisation).
func (a *admission) inFlight() int { return len(a.slots) }

// queued reports how many executions are waiting for a slot.
func (a *admission) queued() int { return len(a.queue) }
