package hw

import (
	"reflect"
	"testing"
	"time"
)

const us = time.Microsecond

// queueTimeline is a host and one compute queue on a fresh device. occupy
// enqueues one Occupy of d and returns its event index.
type queueTimeline struct {
	host *Host
	q    *Queue
}

func newQueueTimeline(t *testing.T) *queueTimeline {
	t.Helper()
	dev, err := NewDevice(*codecTestProfile())
	if err != nil {
		t.Fatal(err)
	}
	host := NewHost(dev, APIVulkan)
	q, err := dev.Queue(QueueCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &queueTimeline{host: host, q: q}
}

func (qt *queueTimeline) occupy(d time.Duration) int32 {
	qt.q.Occupy(FixedCost(d))
	return qt.q.Last()
}

// check replays the host's trace and requires every replayed span to equal
// the executed one, and the executed spans named in want to match it. The
// replay reads each event's span through two readings added to a copy of the
// trace: its end, and its length.
func (qt *queueTimeline) check(t *testing.T, want map[int32]span) {
	t.Helper()
	tr := qt.host.Trace()
	tr.Readings = nil
	for i := range tr.Events {
		tr.Readings = append(tr.Readings,
			Reading{Kind: ReadEndDiff, A: -1, B: int32(i)}, Reading{Kind: ReadSpanSum, Refs: []int32{int32(i)}})
	}
	values, err := replayAll(tr, qt.q.Device().Profile())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != len(qt.host.tl.spans) {
		t.Fatalf("the trace holds %d events, execution stepped %d", len(tr.Events), len(qt.host.tl.spans))
	}
	for i, executed := range qt.host.tl.spans {
		end, length := values[2*i], values[2*i+1]
		if replayed := (span{start: end - length, end: end}); replayed != executed {
			t.Fatalf("event %d: executed %v, replayed %v", i, executed, replayed)
		}
		if w, ok := want[int32(i)]; ok && executed != w {
			t.Fatalf("event %d spans [%v, %v], want [%v, %v]", i, executed.start, executed.end, w.start, w.end)
		}
	}
}

// TestTimelineOrdersQueueWork pins the ordering rules of the timeline step,
// by execution and by a replay of the same trace: work on one queue runs
// in order, and work starts no earlier than the host's current time.
func TestTimelineOrdersQueueWork(t *testing.T) {
	qt := newQueueTimeline(t)
	want := map[int32]span{}
	want[qt.occupy(10*us)] = span{0, 10 * us}
	// The queue is busy until 10µs, so work enqueued at host time 0 waits.
	want[qt.occupy(5*us)] = span{10 * us, 15 * us}
	// After a host spend past the queue's end, work starts at host time.
	qt.host.Spend(FixedCost(20 * us))
	want[qt.occupy(us)] = span{20 * us, 21 * us}
	qt.check(t, want)
}

// TestTimelineClampsNegativeQueueCost pins the clamp of the timeline step, by
// execution and by a replay of the same trace: a negative cost is a
// zero-length span that leaves the queue's availability unchanged, and later
// work still starts where the queue was free.
func TestTimelineClampsNegativeQueueCost(t *testing.T) {
	qt := newQueueTimeline(t)
	want := map[int32]span{}
	want[qt.occupy(10*us)] = span{0, 10 * us}
	before := qt.q.AvailableAt()
	want[qt.occupy(-us)] = span{10 * us, 10 * us}
	if got := qt.q.AvailableAt(); got != before {
		t.Fatalf("a negative cost moved the queue's availability from %v to %v", before, got)
	}
	want[qt.occupy(us)] = span{10 * us, 11 * us}
	qt.check(t, want)
}

// TestHostInternsCosts pins the cost table: a host that spends and occupies
// with the same few costs many times stores each distinct cost once, and a
// replay, which values each of them once, reproduces every span the host
// stepped.
func TestHostInternsCosts(t *testing.T) {
	qt := newQueueTimeline(t)
	costs := []Cost{
		FixedCost(3 * us),
		KnobCost(KnobKernelLaunch),
		KnobCostN(KnobSync, 2).Plus(FixedCost(us)),
	}
	for i := 0; i < 50; i++ {
		c := costs[i%len(costs)]
		if i%2 == 0 {
			qt.host.Spend(c)
		} else {
			qt.q.Occupy(c)
		}
	}
	tr := qt.host.Trace()
	if len(tr.Events) != 50 {
		t.Fatalf("recorded %d events, want 50", len(tr.Events))
	}
	if !reflect.DeepEqual(tr.Costs, costs) {
		t.Fatalf("cost table = %v, want each distinct cost once in order of first use: %v", tr.Costs, costs)
	}
	for i, ev := range tr.Events {
		if want := costs[i%len(costs)]; tr.Costs[ev.Cost] != want {
			t.Fatalf("event %d refers to cost %v, want %v", i, tr.Costs[ev.Cost], want)
		}
	}
	qt.check(t, nil)
}

// TestHostWaitOnUnrecordedEventPanics: a wait may name only an event already
// recorded, or -1 for nothing. A replay steps each event after the ones
// before it, so no later span exists to wait on.
func TestHostWaitOnUnrecordedEventPanics(t *testing.T) {
	for _, ref := range []int32{1, 2, -2} {
		qt := newQueueTimeline(t)
		qt.host.Mark()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Wait(%d) after one recorded event did not panic", ref)
				}
			}()
			qt.host.Wait(ref)
		}()
	}
	qt := newQueueTimeline(t)
	qt.host.Wait(-1)
	qt.host.Wait(0)
	qt.check(t, nil)
}
