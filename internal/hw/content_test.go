package hw_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// contentBindings is how many buffers a contentPrograms dispatch binds.
const contentBindings = 4

// contentPrograms[r] sums push word 2 and element i of every binding in push
// word 0's mask, and stores the sum plus the binding's number to element i
// of every binding in push word 1's mask, for every i below push word 3. It
// declares the bindings in r read-only. Each invocation touches element i
// alone, so bindings of one allocation may alias at one offset.
var contentPrograms = func() (progs [1 << contentBindings]*kernels.Program) {
	for r := range progs {
		progs[r] = &kernels.Program{
			Name:              fmt.Sprintf("content_test_%04b", r),
			LocalSize:         kernels.D1(64),
			Bindings:          contentBindings,
			ReadOnly:          uint64(r),
			PushConstantWords: 4,
			Fn: func(wg *kernels.Workgroup) {
				var bufs [contentBindings]kernels.BufferView
				for j := range bufs {
					bufs[j] = wg.Buffer(j)
				}
				loads, stores, add, n := wg.PushU32(0), wg.PushU32(1), wg.PushU32(2), int(wg.PushU32(3))
				wg.ForEach(func(inv *kernels.Invocation) {
					i := inv.GlobalX()
					if i >= n {
						return
					}
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
	}
	return progs
}()

type contentOpKind uint8

const (
	opWrite contentOpKind = iota
	opRead
	opCopy
	opFill
	opContentDispatch
	opFree
)

// contentOp is one step of a generated sequence over the allocations.
type contentOp struct {
	kind     contentOpKind
	dst, src int // allocation indices
	off, n   int // the range, in dst for transfers
	srcOff   int
	value    uint32
	// A write's words: a prefix of the frozen pool when frozen, else words
	// of the pool from srcOff on, which are not registered.
	frozen bool
	// A dispatch's program (read-only mask), push words and the allocation
	// at each binding.
	readOnly int
	push     kernels.Words
	binds    [contentBindings]int
}

const contentAllocs, contentPool = 4, 512

// contentSizes are the lengths in words the allocations draw from.
var contentSizes = []int{64, 100, 192, 256}

// contentSequence generates a sequence over contentAllocs allocations whose
// lengths it returns too: host writes of frozen and of unregistered words,
// reads, copies (overlapping and self copies included), fills, dispatches
// that bind one allocation at read-only and storing bindings, and frees that
// replace an allocation with a fresh one.
func contentSequence(rng *rand.Rand) (initial [contentAllocs]int, ops []contentOp) {
	for i := range initial {
		initial[i] = contentSizes[rng.Intn(len(contentSizes))]
	}
	sizes := initial
	span := func(a int) (off, n int) {
		n = 1 + rng.Intn(sizes[a])
		return rng.Intn(sizes[a] - n + 1), n
	}
	for range 10 + rng.Intn(30) {
		a := rng.Intn(contentAllocs)
		switch k := rng.Intn(10); {
		case k < 2:
			off, n := span(a)
			op := contentOp{kind: opWrite, dst: a, off: off, n: n, frozen: rng.Intn(2) == 0}
			if !op.frozen {
				op.srcOff = 1 + rng.Intn(contentPool-n)
			}
			ops = append(ops, op)
		case k == 2:
			off, n := span(a)
			ops = append(ops, contentOp{kind: opRead, dst: a, off: off, n: n})
		case k < 5:
			src := rng.Intn(contentAllocs)
			if rng.Intn(3) == 0 {
				src = a
			}
			n := 1 + rng.Intn(min(sizes[a], sizes[src]))
			ops = append(ops, contentOp{kind: opCopy, dst: a, src: src, n: n,
				off: rng.Intn(sizes[a] - n + 1), srcOff: rng.Intn(sizes[src] - n + 1)})
		case k == 5:
			off, n := span(a)
			v := uint32(0)
			if rng.Intn(2) == 0 {
				v = rng.Uint32()
			}
			ops = append(ops, contentOp{kind: opFill, dst: a, off: off, n: n, value: v})
		case k == 6:
			sizes[a] = contentSizes[rng.Intn(len(contentSizes))]
			ops = append(ops, contentOp{kind: opFree, dst: a, n: sizes[a]})
		default:
			op := contentOp{kind: opContentDispatch, readOnly: rng.Intn(1 << contentBindings)}
			shortest := contentSizes[len(contentSizes)-1]
			for j := range op.binds {
				op.binds[j] = rng.Intn(contentAllocs)
				shortest = min(shortest, sizes[op.binds[j]])
			}
			op.n = 1 + rng.Intn(shortest)
			op.off = rng.Intn(shortest - op.n + 1)
			stores := rng.Intn(1<<contentBindings) &^ op.readOnly
			op.push = kernels.Words{uint32(rng.Intn(1 << contentBindings)), uint32(stores), uint32(rng.Intn(4)), uint32(op.n)}
			ops = append(ops, op)
		}
	}
	return initial, ops
}

// contentRun runs a sequence on a fresh device, on its own memo when m is
// nil, and checks every read and the final content against a flat reference
// model. It reports whether the run stopped for content m lacks.
func contentRun(t *testing.T, seed int64, m *hw.DispatchMemo, sizes [contentAllocs]int, ops []contentOp) (missed bool) {
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
	mem := dev.Memory()
	poolRNG := rand.New(rand.NewSource(seed))
	pool := make(kernels.Words, contentPool)
	for i := range pool {
		pool[i] = poolRNG.Uint32()
	}
	poolWant := slices.Clone(pool)
	mem.Freeze(pool)

	var allocs [contentAllocs]*hw.Allocation
	var model [contentAllocs]kernels.Words
	alloc := func(i, n int) {
		if allocs[i], err = mem.Allocate(hw.HeapDeviceLocal, int64(n)*4); err != nil {
			t.Fatal(err)
		}
		model[i] = make(kernels.Words, n)
	}
	for i, n := range sizes {
		alloc(i, n)
	}
	for step, op := range ops {
		a := allocs[op.dst]
		switch op.kind {
		case opWrite:
			if op.frozen {
				a.Write(op.off, pool[:op.n:op.n])
				copy(model[op.dst][op.off:], pool[:op.n])
				break
			}
			src := slices.Clone(pool[op.srcOff : op.srcOff+op.n])
			a.Write(op.off, src)
			copy(model[op.dst][op.off:], src)
			for i := range src {
				src[i] = ^src[i] // the host reuses its words; the write must have copied them
			}
		case opRead:
			got := make(kernels.Words, op.n)
			a.Read(got, op.off)
			if want := model[op.dst][op.off : op.off+op.n]; !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: read of [%d,%d) of allocation %d differs from the model", seed, step, op.off, op.off+op.n, op.dst)
			}
		case opCopy:
			hw.Copy(a, op.off, allocs[op.src], op.srcOff, op.n)
			copy(model[op.dst][op.off:], slices.Clone(model[op.src][op.srcOff:op.srcOff+op.n]))
		case opFill:
			a.Fill(op.off, op.n, op.value)
			for i := op.off; i < op.off+op.n; i++ {
				model[op.dst][i] = op.value
			}
		case opFree:
			if err := mem.Free(a); err != nil {
				t.Fatal(err)
			}
			alloc(op.dst, op.n)
		case opContentDispatch:
			var binds []hw.Binding
			for _, ai := range op.binds {
				binds = append(binds, allocs[ai].Bind(op.off, op.n))
			}
			cfg := kernels.DispatchConfig{Groups: kernels.D1((op.n + 63) / 64), Push: op.push}
			if _, err := q.ExecuteKernel(contentPrograms[op.readOnly], cfg, binds, hw.Cost{}); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			loads, stores, add := op.push[0], op.push[1], op.push[2]
			for i := op.off; i < op.off+op.n; i++ {
				sum := add
				for j, ai := range op.binds {
					if loads>>j&1 != 0 {
						sum += model[ai][i]
					}
				}
				for j, ai := range op.binds {
					if stores>>j&1 != 0 {
						model[ai][i] = sum + uint32(j)
					}
				}
			}
		}
	}
	for i, a := range allocs {
		got := make(kernels.Words, a.Len())
		a.Read(got, 0)
		if !slices.Equal(got, model[i]) {
			t.Fatalf("seed %d: final content of allocation %d differs from the model", seed, i)
		}
	}
	if !slices.Equal(pool, poolWant) {
		t.Fatalf("seed %d: the frozen words changed", seed)
	}
	return false
}

// TestContentMatchesFlatModel: over generated sequences of typed transfers,
// dispatches that bind an allocation read-only and storing at once, and
// frees, every read and the final content equal a flat word model, and the
// frozen words written from are never changed. Each sequence runs on a
// device's own memo and as the leader and then a sibling on a shared memo,
// whose hits leave content to be aliased in; neither misses.
func TestContentMatchesFlatModel(t *testing.T) {
	const sequences = 300
	for seed := int64(1); seed <= sequences; seed++ {
		sizes, ops := contentSequence(rand.New(rand.NewSource(seed)))
		contentRun(t, seed, nil, sizes, ops)
		shared := hw.NewDispatchMemo()
		for _, run := range []string{"leader", "sibling"} {
			if contentRun(t, seed, shared, sizes, ops) {
				t.Fatalf("seed %d: the %s missed", seed, run)
			}
		}
	}
}

// TestContentWriteAliasesFrozenWords: a write of a registered prefix aliases
// it, so a read-only dispatch of the allocation loads the frozen words
// themselves, and a dispatch that stores to the allocation gets words of its
// own and leaves them unchanged.
func TestContentWriteAliasesFrozenWords(t *testing.T) {
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	hw.NewHost(dev, hw.APIVulkan)
	q, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 128
	frozen := make(kernels.Words, 2*n)
	for i := range frozen {
		frozen[i] = uint32(i)
	}
	dev.Memory().Freeze(frozen)
	if got := dev.Memory().Frozen(); len(got) != 1 || &got[0][0] != &frozen[0] {
		t.Fatalf("Frozen() = %d slices, want the one registered", len(got))
	}
	in, err := dev.Memory().Allocate(hw.HeapDeviceLocal, n*4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dev.Memory().Allocate(hw.HeapDeviceLocal, n*4)
	if err != nil {
		t.Fatal(err)
	}
	in.Write(0, frozen[:n:n])
	if runs := hw.RunWords(in); len(runs) != 1 || &runs[0][0] != &frozen[0] {
		t.Fatal("a write of a frozen prefix did not alias it")
	}
	// Binding 0 read-only: loads from in, stores to out.
	cfg := kernels.DispatchConfig{Groups: kernels.D1(n / 64), Push: kernels.Words{1 << 0, 1 << 1, 5, n}}
	if _, err := q.ExecuteKernel(contentPrograms[1<<0], cfg, []hw.Binding{in.Bind(0, n), out.Bind(0, n), out.Bind(0, n), out.Bind(0, n)}, hw.Cost{}); err != nil {
		t.Fatal(err)
	}
	got := make(kernels.Words, n)
	out.Read(got, 0)
	if got[7] != 7+5+1 {
		t.Fatalf("output word 7 = %d, want 7+5+1", got[7])
	}
	// No read-only binding: the kernel stores to in, which gets its own words.
	cfg.Push = kernels.Words{1 << 0, 1 << 0, 1, n}
	if _, err := q.ExecuteKernel(contentPrograms[0], cfg, []hw.Binding{in.Bind(0, n), out.Bind(0, n), out.Bind(0, n), out.Bind(0, n)}, hw.Cost{}); err != nil {
		t.Fatal(err)
	}
	in.Read(got, 0)
	if runs := hw.RunWords(in); len(runs) == 1 && &runs[0][0] == &frozen[0] {
		t.Fatal("the stored-to allocation still aliases the frozen words")
	}
	if got[7] != 7+1 || frozen[7] != 7 {
		t.Fatalf("in word 7 = %d and frozen word 7 = %d after an in-place add; want 8 and 7", got[7], frozen[7])
	}
}

// TestReadOnlyStoreFailsDispatch: a kernel that stores to a binding it
// declares read-only fails its dispatch with hw.ErrReadOnlyStore.
func TestReadOnlyStoreFailsDispatch(t *testing.T) {
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	hw.NewHost(dev, hw.APIVulkan)
	q, err := dev.Queue(hw.QueueCompute, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dev.Memory().Allocate(hw.HeapDeviceLocal, 64*4)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Bind(0, 64)
	cfg := kernels.DispatchConfig{Groups: kernels.D1(1), Push: kernels.Words{0, 1 << 2, 0, 64}}
	_, err = q.ExecuteKernel(contentPrograms[1<<2], cfg, []hw.Binding{b, b, b, b}, hw.Cost{})
	if !errors.Is(err, hw.ErrReadOnlyStore) {
		t.Fatalf("store to a read-only binding: error %v, want hw.ErrReadOnlyStore", err)
	}
}
