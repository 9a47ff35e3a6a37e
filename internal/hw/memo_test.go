package hw_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
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
	dev    *hw.Device
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
	r := &memoRun{t: t, dev: dev, q: q}
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

// dispatch dispatches prog over the first memoWords elements of its bindings
// with the given push words.
func (r *memoRun) dispatch(prog *kernels.Program, push kernels.Words, binds ...hw.Binding) (kernels.Counters, error) {
	cfg := kernels.DispatchConfig{Groups: kernels.D1(memoWords / 64), Push: push}
	run, err := r.q.ExecuteKernel(prog, cfg, binds, hw.Cost{})
	return run.Counters, err
}

// repeat dispatches memoStep from a to b with the given addend, leaving a and
// b in place, so that the next repeat reruns on the state this one left.
func (r *memoRun) repeat(add uint32) kernels.Counters {
	r.t.Helper()
	c, err := r.dispatch(memoStep, kernels.Words{add}, r.a.Bind(0, memoWords), r.b.Bind(0, memoWords))
	if err != nil {
		r.t.Fatal(err)
	}
	return c
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

// memoAddInPlace adds push word 0 to every element of binding 0 in place.
var memoAddInPlace = &kernels.Program{
	Name:              "memo_test_add_in_place",
	LocalSize:         kernels.D1(64),
	Bindings:          1,
	PushConstantWords: 1,
	Fn: func(wg *kernels.Workgroup) {
		x := wg.Buffer(0)
		add := wg.PushU32(0)
		wg.ForEach(func(inv *kernels.Invocation) {
			i := inv.GlobalX()
			x.StoreU32(inv, i, x.LoadU32(inv, i)+add)
		})
	},
}

// TestMemoRepeatTakesCounters: a dispatch that reruns on the state the
// previous one left takes that one's counters from the device's own memo
// and leaves the words it stored in place.
func TestMemoRepeatTakesCounters(t *testing.T) {
	r := newMemoRun(t, nil)
	first := r.repeat(1)
	for k := 1; k < 4; k++ {
		if got := r.repeat(1); got != first {
			t.Fatalf("repeat %d: counters %+v, want the first dispatch's %+v", k, got, first)
		}
	}
	if e, h := r.dispatches(); e != 1 || h != 3 {
		t.Fatalf("%d executed, %d from the memo; want 1, 3", e, h)
	}
	if got := r.b.Words()[10]; got != 11 {
		t.Fatalf("output word 10 = %d, want 11", got)
	}
}

// TestMemoLoadedAndStoredExecute: a dispatch that stores to an allocation it
// loads from changes its own input, so every rerun executes: an in-place
// kernel (one binding loaded and stored), and one allocation bound at a
// loaded and at a stored binding.
func TestMemoLoadedAndStoredExecute(t *testing.T) {
	for _, tc := range []struct {
		name     string
		dispatch func(r *memoRun) (kernels.Counters, error)
	}{
		{"in place", func(r *memoRun) (kernels.Counters, error) {
			return r.dispatch(memoAddInPlace, kernels.Words{1}, r.a.Bind(0, memoWords))
		}},
		{"aliased", func(r *memoRun) (kernels.Counters, error) {
			return r.dispatch(memoStep, kernels.Words{1}, r.a.Bind(0, memoWords), r.a.Bind(0, memoWords))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newMemoRun(t, nil)
			for range 3 {
				if _, err := tc.dispatch(r); err != nil {
					t.Fatal(err)
				}
			}
			if e, h := r.dispatches(); e != 3 || h != 0 {
				t.Fatalf("%d executed, %d from the memo; want 3, 0", e, h)
			}
			if got := r.a.Words()[10]; got != 13 {
				t.Fatalf("word 10 = %d, want 10+1+1+1", got)
			}
		})
	}
}

// TestMemoHostWriteBreaksRepeat: a host write between two identical
// dispatches reaches the second, which executes.
func TestMemoHostWriteBreaksRepeat(t *testing.T) {
	r := newMemoRun(t, nil)
	r.repeat(1)
	r.a.Words()[5] = 100
	r.repeat(1)
	if e, h := r.dispatches(); e != 2 || h != 0 {
		t.Fatalf("%d executed, %d from the memo; want 2, 0", e, h)
	}
	if got := r.b.Words()[5]; got != 101 {
		t.Fatalf("output word 5 = %d, want the host's 100 + 1", got)
	}
}

// TestMemoRepeatKeepsFaultOrdinal: a repeat passes the fault hook first, so a
// fault planned at its dispatch ordinal fires there, and the repeats around
// it still come from the memo.
func TestMemoRepeatKeepsFaultOrdinal(t *testing.T) {
	errFault := errors.New("planned fault")
	r := newMemoRun(t, nil)
	ordinal := 0
	r.dev.SetFaultHook(func() error {
		ordinal++
		if ordinal-1 == 2 {
			return errFault
		}
		return nil
	})
	for k := range 4 {
		_, err := r.dispatch(memoStep, kernels.Words{1}, r.a.Bind(0, memoWords), r.b.Bind(0, memoWords))
		if (k == 2) != errors.Is(err, errFault) {
			t.Fatalf("dispatch %d: error %v; want the planned fault at dispatch 2 only", k, err)
		}
	}
	if e, h := r.dispatches(); e != 1 || h != 2 {
		t.Fatalf("%d executed, %d from the memo; want 1, 2", e, h)
	}
}

// TestOwnMemoKeepsNoContent: a device's own memo serves repeats only. After
// a run of repeats, ping-pongs and host reads it holds no content copy and
// has missed nothing.
func TestOwnMemoKeepsNoContent(t *testing.T) {
	r := newMemoRun(t, nil)
	for k := range 3 {
		r.repeat(1)
		r.repeat(1)
		r.step(uint32(k + 2))
		_ = r.a.Words()
	}
	m := hw.DeviceMemo(r.dev)
	if n := hw.MemoCopies(m); n != 0 {
		t.Fatalf("own memo holds %d content copies, want 0", n)
	}
	if m.Missed() {
		t.Fatal("own memo missed")
	}
	if e, h := r.dispatches(); e != 6 || h != 3 {
		t.Fatalf("%d executed, %d from the memo; want 6, 3", e, h)
	}
}

// memoMixedBindings is how many buffers memoMixed binds.
const memoMixedBindings = 4

// memoMixed sums push word 2 and element i of every binding in push word
// 0's mask, and stores the sum plus the binding's number to element i of
// every binding in push word 1's mask. Each invocation touches element i
// alone, so bindings may alias.
var memoMixed = &kernels.Program{
	Name:              "memo_test_mixed",
	LocalSize:         kernels.D1(64),
	Bindings:          memoMixedBindings,
	PushConstantWords: 3,
	Fn: func(wg *kernels.Workgroup) {
		var bufs [memoMixedBindings]kernels.BufferView
		for j := range bufs {
			bufs[j] = wg.Buffer(j)
		}
		loads, stores, add := wg.PushU32(0), wg.PushU32(1), wg.PushU32(2)
		wg.ForEach(func(inv *kernels.Invocation) {
			i := inv.GlobalX()
			sum := add
			for j, b := range bufs {
				if loads>>j&1 != 0 {
					sum += b.LoadU32(inv, i)
				}
			}
			for j, b := range bufs {
				if stores>>j&1 != 0 {
					b.StoreU32(inv, i, sum+uint32(j))
				}
			}
		})
	},
}

// memoOp is one step of a generated sequence: a dispatch of memoMixed, or a
// host action on allocation alloc.
type memoOp struct {
	kind  memoOpKind
	alloc int
	// A dispatch's grid, push words and the allocation at each binding.
	groups int
	push   kernels.Words
	binds  [memoMixedBindings]int
	// A host write's element and value.
	index int
	value uint32
}

type memoOpKind uint8

const (
	opDispatch memoOpKind = iota
	opHostWrite
	opMap
	opMappedWrite
	opUnmap
)

const memoPropAllocs, memoPropWords = 3, 256

// memoSequence generates a short sequence over memoPropAllocs allocations:
// about half its dispatches repeat the previous dispatch exactly, the rest
// draw new load and store masks, addend, grid and binding-to-allocation map;
// host writes, mappings, writes through a mapping and unmappings fall
// between.
func memoSequence(rng *rand.Rand) []memoOp {
	var ops []memoOp
	var last memoOp
	var mapped [memoPropAllocs]bool
	for range 4 + rng.Intn(12) {
		switch a := rng.Intn(memoPropAllocs); rng.Intn(10) {
		case 0:
			ops = append(ops, memoOp{kind: opHostWrite, alloc: a, index: rng.Intn(memoPropWords), value: rng.Uint32() % 8})
		case 1:
			if !mapped[a] {
				mapped[a] = true
				ops = append(ops, memoOp{kind: opMap, alloc: a})
			}
		case 2:
			if mapped[a] {
				ops = append(ops, memoOp{kind: opMappedWrite, alloc: a, index: rng.Intn(memoPropWords), value: rng.Uint32() % 8})
			}
		case 3:
			if mapped[a] {
				mapped[a] = false
				ops = append(ops, memoOp{kind: opUnmap, alloc: a})
			}
		default:
			if last.push == nil || rng.Intn(2) == 0 {
				last = memoOp{kind: opDispatch, groups: 1 + rng.Intn(memoPropWords/64),
					push: kernels.Words{uint32(rng.Intn(16)), uint32(rng.Intn(16)), uint32(rng.Intn(4))}}
				for j := range last.binds {
					last.binds[j] = rng.Intn(memoPropAllocs)
				}
			}
			ops = append(ops, last)
		}
	}
	return ops
}

// memoReplay runs a sequence on a fresh device: with raw cfg.Buffers, or on
// the device's own memo when m is nil, else on m. It returns each dispatch's
// counters and the final words of every allocation, or missed when the run
// stopped for content m lacks.
func memoReplay(t *testing.T, m *hw.DispatchMemo, raw bool, ops []memoOp) (counters []kernels.Counters, words [memoPropAllocs]kernels.Words, missed bool) {
	t.Helper()
	defer func() {
		if v := recover(); v != nil {
			if m == nil || !m.Missed() {
				panic(v)
			}
			missed = true
		}
	}()
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if m != nil {
		dev.SetDispatchMemo(m)
	}
	hw.NewHost(dev, hw.APIVulkan)
	q, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	var allocs [memoPropAllocs]*hw.Allocation
	var views [memoPropAllocs]kernels.Words
	for i := range allocs {
		if allocs[i], err = dev.Memory().Allocate(hw.HeapDeviceLocal, memoPropWords*4); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			for j, w := 0, allocs[i].Words(); j < len(w); j++ {
				w[j] = uint32(i * j % 7)
			}
		}
	}
	for _, op := range ops {
		a := allocs[op.alloc]
		switch op.kind {
		case opHostWrite:
			a.Words()[op.index] = op.value
		case opMap:
			views[op.alloc] = a.Map()
		case opMappedWrite:
			views[op.alloc][op.index] = op.value
		case opUnmap:
			a.Unmap()
		case opDispatch:
			cfg := kernels.DispatchConfig{Groups: kernels.D1(op.groups), Push: op.push}
			var binds []hw.Binding
			for _, ai := range op.binds {
				if raw {
					cfg.Buffers = append(cfg.Buffers, allocs[ai].Words())
				} else {
					binds = append(binds, allocs[ai].Bind(0, memoPropWords))
				}
			}
			run, err := q.ExecuteKernel(memoMixed, cfg, binds, hw.Cost{})
			if err != nil {
				t.Fatal(err)
			}
			counters = append(counters, run.Counters)
		}
	}
	for i, a := range allocs {
		words[i] = append(kernels.Words(nil), a.Words()...)
	}
	return counters, words, false
}

// TestMemoMatchesRawExecution: over generated sequences of identical and
// differing dispatches with random load and store sets, aliasing, host writes
// and mappings, every dispatch's counters and the final words equal a raw
// cfg.Buffers execution of the same sequence, which no memo serves. Each
// sequence runs on a device's own memo, and as the recording leader and the
// last sibling of a triple's shared memo. A last sibling stops when a
// dispatch binding mapped words, which always executes, binds a buffer still
// awaiting content nobody copied; such a run proves nothing, so most must
// finish.
func TestMemoMatchesRawExecution(t *testing.T) {
	const sequences = 300
	var fromMemo uint64
	misses := 0
	for seed := int64(1); seed <= sequences; seed++ {
		ops := memoSequence(rand.New(rand.NewSource(seed)))
		wantCounters, wantWords, _ := memoReplay(t, nil, true, ops)
		shared := hw.NewDispatchMemo()
		for _, run := range []struct {
			name      string
			memo      *hw.DispatchMemo
			recording bool
		}{{"own", nil, false}, {"leader", shared, true}, {"last sibling", shared, false}} {
			if run.memo != nil {
				run.memo.SetRecording(run.recording)
			}
			_, m0 := hw.DispatchCounts()
			counters, words, missed := memoReplay(t, run.memo, false, ops)
			_, m1 := hw.DispatchCounts()
			fromMemo += m1 - m0
			if missed {
				if run.recording {
					t.Fatalf("seed %d, %s: missed", seed, run.name)
				}
				misses++
				continue
			}
			if !slices.Equal(counters, wantCounters) {
				t.Fatalf("seed %d, %s: counters %+v, want the raw execution's %+v", seed, run.name, counters, wantCounters)
			}
			if !reflect.DeepEqual(words, wantWords) {
				t.Fatalf("seed %d, %s: final words differ from the raw execution's", seed, run.name)
			}
		}
	}
	t.Logf("%d dispatches from a memo; %d of %d last siblings missed", fromMemo, misses, sequences)
	if fromMemo == 0 || misses > sequences/2 {
		t.Fatalf("%d dispatches from a memo, %d of %d last siblings missed", fromMemo, misses, sequences)
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
