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
	// A write's words: a prefix of frozen pool stream when frozen, else
	// words of pool 0 from srcOff on, which are not registered.
	frozen bool
	stream int
	// A dispatch's program (read-only mask), push words and the allocation
	// at each binding.
	readOnly int
	push     kernels.Words
	binds    [contentBindings]int
}

const contentAllocs, contentPool, contentStreams = 4, 512, 2

// contentSizes are the lengths in words the allocations draw from.
var contentSizes = []int{64, 100, 192, 256}

// contentSequence generates a sequence over contentAllocs allocations whose
// lengths it returns too: host writes of frozen words (half of them a whole
// allocation's, which its stream then names) and of unregistered words,
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
			switch {
			case !op.frozen:
				op.srcOff = 1 + rng.Intn(contentPool-n)
			case rng.Intn(2) == 0:
				op.off, op.n = 0, sizes[a]
				fallthrough
			default:
				op.stream = rng.Intn(contentStreams)
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
	var pools, poolsWant [contentStreams]kernels.Words
	for k := range pools {
		pools[k] = make(kernels.Words, contentPool)
		for i := range pools[k] {
			pools[k][i] = poolRNG.Uint32()
		}
		poolsWant[k] = slices.Clone(pools[k])
		mem.Freeze(pools[k], hw.StreamID{Seed: seed, Lo: uint32(k)})
	}
	pool := pools[0]

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
				frozen := pools[op.stream][:op.n:op.n]
				a.Write(op.off, frozen)
				copy(model[op.dst][op.off:], frozen)
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
	for k := range pools {
		if !slices.Equal(pools[k], poolsWant[k]) {
			t.Fatalf("seed %d: the frozen words of stream %d changed", seed, k)
		}
	}
	return false
}

// TestContentMatchesFlatModel: over generated sequences of typed transfers,
// dispatches that bind an allocation read-only and storing at once, and
// frees, every read and the final content equal a flat word model, and the
// frozen words written from are never changed. The frozen words are two
// named streams of equal length, so a shared memo that confused their names
// would hand out the other stream's results. Each sequence runs on a
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
	dev.Memory().Freeze(frozen, hw.StreamID{Seed: 1})
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

// TestNamedRunsFollowTransfers: a write of a frozen stream prefix names the
// allocation's content, and the transfers that alias the run keep the name:
// an hw.Copy, and a Vulkan-style upload that writes the prefix into a larger
// staging buffer and copies it out. A run sliced from a later word, and an
// allocation that holds more than the one run, are not named.
func TestNamedRunsFollowTransfers(t *testing.T) {
	dev, err := platforms.GTX1050Ti().NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	mem := dev.Memory()
	const n = 256
	words := make(kernels.Words, 2*n)
	for i := range words {
		words[i] = uint32(i) * 2654435761
	}
	id := hw.StreamID{I32: true, Seed: 9, Lo: 1, Hi: 21}
	mem.Freeze(words, id)
	alloc := func(n int) *hw.Allocation {
		a, err := mem.Allocate(hw.HeapDeviceLocal, int64(n)*4)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	named := func(what string, a *hw.Allocation, want bool) {
		t.Helper()
		got, ok := hw.StreamOf(a)
		if ok != want || ok && got != id {
			t.Errorf("%s: named %v (%+v), want %v", what, ok, got, want)
		}
	}
	a := alloc(n)
	a.Write(0, words[:n:n])
	named("a write of the prefix", a, true)
	whole := alloc(2 * n)
	whole.Write(0, words)
	named("a write of all the frozen words", whole, true)
	b := alloc(n)
	hw.Copy(b, 0, a, 0, n)
	named("a copy of the named allocation", b, true)
	staging, dst := alloc(2*n), alloc(n)
	staging.Write(0, words[:n:n])
	named("a staging buffer longer than the prefix", staging, false)
	hw.Copy(dst, 0, staging, 0, n)
	named("an upload through the staging buffer", dst, true)
	later := alloc(n - 1)
	hw.Copy(later, 0, a, 1, n-1)
	named("a copy from word 1 on", later, false)
	twice := alloc(n)
	twice.Write(0, words[:n/2:n/2])
	twice.Write(n/2, words[:n/2:n/2])
	named("an allocation holding the prefix twice", twice, false)
	b.Fill(n-1, 1, 7)
	named("a named allocation with one word filled", b, false)
	clone := alloc(n)
	clone.Write(0, slices.Clone(words[:n]))
	named("a write of unregistered words", clone, false)
}

// TestStreamVersions: a triple's memo names an allocation whose content is
// one named run by its stream and length. Two streams with the same words
// get different versions, one stream's prefix gets the same version in every
// allocation and on every device, and the same words written unregistered a
// version of their own: equal words under two versions cost only a miss.
func TestStreamVersions(t *testing.T) {
	const n = 128
	words := make(kernels.Words, n)
	for i := range words {
		words[i] = uint32(i) * 40503
	}
	twin := slices.Clone(words)
	version := func(w kernels.Words, id *hw.StreamID) [2]uint64 {
		dev, err := platforms.GTX1050Ti().NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		if id != nil {
			dev.Memory().Freeze(w, *id)
		}
		a, err := dev.Memory().Allocate(hw.HeapDeviceLocal, int64(len(w))*4)
		if err != nil {
			t.Fatal(err)
		}
		a.Write(0, w)
		return hw.Version(hw.NewDispatchMemo(), a)
	}
	s1 := hw.StreamID{Seed: 1, Hi: 0x3f800000}
	v1 := version(words, &s1)
	if v := version(words, &s1); v != v1 {
		t.Fatal("one stream's prefix got two versions")
	}
	for _, s2 := range []hw.StreamID{
		{Seed: 2, Hi: 0x3f800000},
		{Seed: 1, Lo: 1, Hi: 0x3f800000},
		{Seed: 1, Hi: 0x3f800001},
		{I32: true, Seed: 1, Hi: 0x3f800000},
	} {
		if v := version(twin, &s2); v == v1 {
			t.Fatalf("streams %+v and %+v of equal length got the same version", s1, s2)
		}
	}
	if v := version(words[:n-1:n-1], &s1); v == v1 {
		t.Fatal("two prefixes of one stream got the same version")
	}
	unregistered := version(twin, nil)
	if unregistered == v1 {
		t.Fatal("unregistered words got their stream's version")
	}
	if v := version(slices.Clone(words), nil); v != unregistered {
		t.Fatal("equal unregistered words got two versions")
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
