package hw_test

import (
	"math"
	"slices"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/gaussian"
)

// memoStep adds push word 0 to every element of binding 0 and writes the sum
// to binding 1.
var memoStep = &kernels.Program{
	Name:              "memo_test_step",
	LocalSize:         kernels.D1(64),
	Bindings:          2,
	PushConstantWords: 1,
	Fn: func(wg *kernels.Workgroup) {
		in, out := wg.Buffer(0), wg.Buffer(1)
		add := wg.PushU32(0)
		wg.ForEach(func(inv *kernels.Invocation) {
			i := inv.GlobalX()
			out.StoreU32(inv, i, in.LoadU32(inv, i)+add)
		})
	},
}

const memoWords = 256

// memoRun is one run on a fresh device attached to the memo: a buffer the
// host fills with 0, 1, 2, ... and a zeroed one, which dispatches of
// memoStep then ping-pong between.
type memoRun struct {
	t      *testing.T
	q      *hw.Queue
	a, b   *hw.Allocation
	counts [2]uint64 // DispatchCounts when the run started
}

func newMemoRun(t *testing.T, m *hw.DispatchMemo) *memoRun {
	t.Helper()
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	dev.SetDispatchMemo(m)
	hw.NewHost(dev, hw.APIVulkan)
	q, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &memoRun{t: t, q: q}
	r.counts[0], r.counts[1] = hw.DispatchCounts()
	if r.a, err = dev.Memory().Allocate(hw.HeapDeviceLocal, memoWords*4); err != nil {
		t.Fatal(err)
	}
	if r.b, err = dev.Memory().Allocate(hw.HeapDeviceLocal, memoWords*4); err != nil {
		t.Fatal(err)
	}
	for i, w := 0, r.a.Words(); i < len(w); i++ {
		w[i] = uint32(i)
	}
	return r
}

// step dispatches memoStep from a to b with the given addend and swaps the
// two, returning the dispatch's counters.
func (r *memoRun) step(add uint32) kernels.Counters {
	r.t.Helper()
	cfg := kernels.DispatchConfig{Groups: kernels.D1(memoWords / 64), Push: kernels.Words{add}}
	run, err := r.q.ExecuteKernel(memoStep, cfg, []hw.Binding{r.a.Bind(0, memoWords), r.b.Bind(0, memoWords)}, hw.Cost{})
	if err != nil {
		r.t.Fatal(err)
	}
	r.a, r.b = r.b, r.a
	return run.Counters
}

// dispatches reports how many dispatches the run executed and how many it
// took from the memo.
func (r *memoRun) dispatches() (executed, fromMemo uint64) {
	e, m := hw.DispatchCounts()
	return e - r.counts[0], m - r.counts[1]
}

// missed runs f and reports whether it stopped for content the memo lacked.
func missed(m *hw.DispatchMemo, f func()) (stopped bool) {
	defer func() {
		if v := recover(); v != nil {
			stopped = true
			if !m.Missed() {
				panic(v)
			}
		}
	}()
	f()
	return false
}

// TestMemoSiblingTakesDispatches: a sibling run with the same inputs takes
// every dispatch from the memo, with the leader's counters, and the host
// reads the leader's output from it.
func TestMemoSiblingTakesDispatches(t *testing.T) {
	m := hw.NewDispatchMemo()
	leader := newMemoRun(t, m)
	var counters []kernels.Counters
	for k := range 3 {
		counters = append(counters, leader.step(uint32(k+1)))
	}
	want := append(kernels.Words(nil), leader.a.Words()...)
	if want[10] != 16 {
		t.Fatalf("leader output word 10 = %d, want 10+1+2+3", want[10])
	}
	if e, h := leader.dispatches(); e != 3 || h != 0 {
		t.Fatalf("leader: %d executed, %d from the memo; want 3, 0", e, h)
	}

	follower := newMemoRun(t, m)
	for k := range 3 {
		if got := follower.step(uint32(k + 1)); got != counters[k] {
			t.Fatalf("dispatch %d: memo counters %+v, want the leader's %+v", k, got, counters[k])
		}
	}
	if e, h := follower.dispatches(); e != 0 || h != 3 {
		t.Fatalf("follower: %d executed, %d from the memo; want 0, 3", e, h)
	}
	if got := follower.a.Words(); !slices.Equal(got, want) {
		t.Fatalf("follower output differs from the leader's")
	}
	if m.Missed() {
		t.Fatal("Missed after a run the memo served")
	}
}

// TestMemoHostWriteChangesKey: a host write between dispatches, like bfs's
// stop flag, is part of the next dispatch's key. A sibling that writes the
// same word keeps hitting; one that writes another word executes from there
// on, without needing content the memo lacks.
func TestMemoHostWriteChangesKey(t *testing.T) {
	m := hw.NewDispatchMemo()
	run := func(flag uint32) (executed, fromMemo uint64, out uint32) {
		r := newMemoRun(t, m)
		r.step(1)
		r.a.Words()[0] = flag
		r.step(1)
		executed, fromMemo = r.dispatches()
		return executed, fromMemo, r.a.Words()[0]
	}
	if e, h, out := run(5); e != 2 || h != 0 || out != 6 {
		t.Fatalf("leader: %d executed, %d from the memo, word 0 = %d; want 2, 0, 6", e, h, out)
	}
	if e, h, out := run(5); e != 0 || h != 2 || out != 6 {
		t.Fatalf("same host write: %d executed, %d from the memo, word 0 = %d; want 0, 2, 6", e, h, out)
	}
	if e, h, out := run(9); e != 1 || h != 1 || out != 10 {
		t.Fatalf("different host write: %d executed, %d from the memo, word 0 = %d; want 1, 1, 10", e, h, out)
	}
}

// TestMemoMissesContentNobodyCopied: a sibling whose host touches a version
// the memo holds no copy of, or whose missed dispatch binds a buffer still
// awaiting its content, stops and reports Missed; the next run on the memo
// starts clean.
func TestMemoMissesContentNobodyCopied(t *testing.T) {
	m := hw.NewDispatchMemo()
	leader := newMemoRun(t, m)
	leader.step(1)
	leader.step(2)
	leader.a.Words()

	r := newMemoRun(t, m)
	r.step(1)
	if !missed(m, func() { r.a.Words() }) {
		t.Fatal("reading an intermediate nobody copied did not stop the run")
	}
	r = newMemoRun(t, m)
	if m.Missed() {
		t.Fatal("Missed still set after SetDispatchMemo started a new run")
	}
	r.step(1)
	if !missed(m, func() { r.step(7) }) {
		t.Fatal("a missed dispatch on an awaiting buffer did not stop the run")
	}
}

// TestMemoMappedWordsStayLive: the host reads and writes mapped words at any
// time, so a dispatch that binds them executes, its output shows through the
// mapping, and a host write through the mapping reaches the next dispatch's
// key.
func TestMemoMappedWordsStayLive(t *testing.T) {
	m := hw.NewDispatchMemo()
	leader := newMemoRun(t, m)
	leader.step(1)
	leader.step(1)
	leader.a.Words()

	r := newMemoRun(t, m)
	view := r.b.Map()
	r.step(1)
	if view[7] != 8 {
		t.Fatalf("mapped output word 7 = %d, want 8", view[7])
	}
	view[7] = 100
	r.step(1)
	if e, h := r.dispatches(); e != 2 || h != 0 {
		t.Fatalf("%d executed, %d from the memo with the output mapped; want 2, 0", e, h)
	}
	if got := r.a.Words()[7]; got != 101 {
		t.Fatalf("word 7 after the host wrote 100 through the mapping = %d, want 101", got)
	}
	r.a.Unmap()
}

// TestMemoNotRecordingAddsNothing: the last cell of a triple uses the memo
// without adding to it.
func TestMemoNotRecordingAddsNothing(t *testing.T) {
	m := hw.NewDispatchMemo()
	m.SetRecording(false)
	r := newMemoRun(t, m)
	r.step(1)
	r.a.Words()
	m.SetRecording(true)
	r = newMemoRun(t, m)
	r.step(1)
	if e, h := r.dispatches(); e != 1 || h != 0 {
		t.Fatalf("%d executed, %d from the memo after a run that did not record; want 1, 0", e, h)
	}
}

// BenchmarkDispatchMemoHit measures what a memo hit costs a dispatch: the key
// over gaussian's fan2 binding set at n=256 (two 65,536-word matrices and
// the right-hand side, versions already known) and the lookup.
func BenchmarkDispatchMemoHit(b *testing.B) {
	prog, err := kernels.Lookup("gaussian_fan2")
	if err != nil {
		b.Fatal(err)
	}
	const n = 256
	m := hw.NewDispatchMemo()
	setup := func() (*hw.Queue, []hw.Binding) {
		dev, err := platforms.GTX1050Ti().NewDevice()
		if err != nil {
			b.Fatal(err)
		}
		dev.SetDispatchMemo(m)
		hw.NewHost(dev, hw.APIOpenCL)
		q, err := dev.Queue(hw.QueueCompute, 0)
		if err != nil {
			b.Fatal(err)
		}
		var binds []hw.Binding
		for i, words := range []int{n * n, n * n, n} {
			a, err := dev.Memory().Allocate(hw.HeapDeviceLocal, int64(words)*4)
			if err != nil {
				b.Fatal(err)
			}
			for j, w := 0, a.Words(); j < len(w); j++ {
				w[j] = math.Float32bits(float32((i+1)*j%29) + 1)
			}
			binds = append(binds, a.Bind(0, words))
		}
		return q, binds
	}
	cfg := kernels.DispatchConfig{Groups: kernels.D2((n-1+15)/16, (n+15)/16), Push: kernels.Words{n, 0}}
	q, binds := setup()
	if _, err := q.ExecuteKernel(prog, cfg, binds, hw.Cost{}); err != nil {
		b.Fatal(err)
	}
	_, binds = setup()
	cfg.WarpSize, cfg.CacheLineBytes = platforms.GTX1050Ti().Profile.WarpSize, platforms.GTX1050Ti().Profile.CacheLineBytes
	if !hw.MemoHit(m, prog, &cfg, binds) {
		b.Fatal("the sibling's dispatch misses the memo")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if !hw.MemoHit(m, prog, &cfg, binds) {
			b.Fatal("miss")
		}
	}
}
