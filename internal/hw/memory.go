package hw

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"vcomputebench/internal/kernels"
)

// HeapKind identifies a memory heap of the simulated device.
type HeapKind int

// Heap kinds. Device-local memory is the GPU's own memory (or the GPU
// partition of a unified memory on mobile parts); host-visible memory can be
// mapped by the CPU.
const (
	HeapDeviceLocal HeapKind = iota
	HeapHostVisible
)

func (h HeapKind) String() string {
	switch h {
	case HeapDeviceLocal:
		return "device-local"
	case HeapHostVisible:
		return "host-visible"
	default:
		return fmt.Sprintf("heap(%d)", int(h))
	}
}

// Common allocation errors.
var (
	ErrOutOfDeviceMemory = errors.New("hw: out of device memory")
	ErrOutOfHostMemory   = errors.New("hw: out of host-visible memory")
	ErrInvalidSize       = errors.New("hw: allocation size must be positive")
	ErrAlreadyFreed      = errors.New("hw: allocation already freed")
)

// Allocation is a block of simulated device memory. Its content takes one of
// two forms: private words, which kernels and the host write in place, or a
// short list of immutable runs. A fresh allocation is one zero run and holds
// no backing, so nothing is zeroed until something must write it.
//
// The typed transfers (Write, Read, Copy, Fill) are the only host access.
// They keep runs where they can: a copy aliases the source's runs, a write
// splices one run into the range it writes, and a write of words registered
// with MemorySystem.Freeze aliases them. A dispatch binding that may store
// needs private words and flattens the runs into new ones.
//
// A run of frozen words that starts at its stream's first word is named: it
// carries the StreamID Freeze registered, and transfers that alias it keep
// the name. An allocation whose content is one named run is versioned by
// that name instead of by hashing its words (memo.go).
type Allocation struct {
	heap  HeapKind
	bytes int64
	// n is the length in words; words are the private words, nil while the
	// content is runs.
	n     int
	words kernels.Words
	runs  []run
	freed bool
	owner *MemorySystem
	// ver and state name the content for the device's DispatchMemo
	// (memo.go).
	ver   version
	state contentState
}

// run is a stretch of immutable content: words that nobody writes again, or,
// when words is nil, n zeros. stream, when set, names the words: they are
// the stream's first n words.
type run struct {
	words  kernels.Words
	n      int
	stream *StreamID
}

// StreamID names a seeded input stream: its first n words depend on nothing
// but the ID and n. An I32 stream holds int32 values in [Lo, Hi), any other
// float32 values in [Lo, Hi), with Lo and Hi as IEEE-754 bits.
type StreamID struct {
	I32    bool
	Seed   int64
	Lo, Hi uint32
}

// maxRuns caps an allocation's run count; a splice past it flattens the
// runs.
const maxRuns = 16

// dataRun is the run of words nobody writes again, capped so that appending
// to it cannot write past them.
func dataRun(w kernels.Words) run { return run{words: w[:len(w):len(w)], n: len(w)} }

// slice returns words [lo, hi) of the run. Only a slice from the first word
// keeps the name.
func (r run) slice(lo, hi int) run {
	if r.words == nil {
		return run{n: hi - lo}
	}
	s := dataRun(r.words[lo:hi])
	if lo == 0 {
		s.stream = r.stream
	}
	return s
}

// appendRun appends r to runs, merging adjacent zero runs.
func appendRun(runs []run, r run) []run {
	if r.n == 0 {
		return runs
	}
	if k := len(runs) - 1; k >= 0 && r.words == nil && runs[k].words == nil {
		runs[k].n += r.n
		return runs
	}
	return append(runs, r)
}

// appendRuns appends the runs covering words [from, to) of src to dst.
func appendRuns(dst, src []run, from, to int) []run {
	start := 0
	for _, r := range src {
		if start >= to {
			break
		}
		if lo, hi := max(from, start), min(to, start+r.n); lo < hi {
			dst = appendRun(dst, r.slice(lo-start, hi-start))
		}
		start += r.n
	}
	return dst
}

// readRuns copies words [off, off+len(dst)) of the runs into dst.
func readRuns(dst kernels.Words, runs []run, off int) {
	for _, r := range runs {
		if len(dst) == 0 {
			return
		}
		if off >= r.n {
			off -= r.n
			continue
		}
		k := min(r.n-off, len(dst))
		if r.words == nil {
			clear(dst[:k])
		} else {
			copy(dst, r.words[off:off+k])
		}
		dst, off = dst[k:], 0
	}
}

// Heap returns the heap the allocation lives in.
func (a *Allocation) Heap() HeapKind { return a.heap }

// SizeBytes returns the allocation size in bytes.
func (a *Allocation) SizeBytes() int64 { return a.bytes }

// Len returns the allocation's length in words.
func (a *Allocation) Len() int { return a.n }

// Write writes src to words [off, off+len(src)), as a host-to-device
// transfer does. Words registered with MemorySystem.Freeze are aliased, any
// others copied: into the private words when the write covers them all, so
// that a kernel storing to them copies nothing more.
func (a *Allocation) Write(off int, src kernels.Words) {
	a.check(off, len(src))
	a.hostWrite()
	if len(src) == 0 {
		return
	}
	if a.inPlace(len(src)) {
		copy(a.words[off:], src)
		return
	}
	frozen, ok := a.owner.frozenRun(src)
	switch {
	case ok:
		a.put(off, []run{frozen})
	case len(src) == a.n:
		a.words, a.runs = slices.Clone(src), nil
	default:
		a.put(off, []run{dataRun(slices.Clone(src))})
	}
}

// Read copies words [off, off+len(dst)) into dst, as a device-to-host
// transfer does. Reading changes no word, so the content keeps its version.
func (a *Allocation) Read(dst kernels.Words, off int) {
	a.check(off, len(dst))
	if a.state >= contentDerived {
		a.owner.memo.hostAccess(a)
	}
	if a.words != nil {
		copy(dst, a.words[off:])
	} else {
		readRuns(dst, a.runs, off)
	}
}

// Copy copies n words of src at srcOff to dst at dstOff, as a device-side
// transfer does: dst aliases src's runs, and src's private words become its
// run first. The ranges may overlap.
func Copy(dst *Allocation, dstOff int, src *Allocation, srcOff, n int) {
	src.check(srcOff, n)
	dst.check(dstOff, n)
	if src.state >= contentDerived {
		src.owner.memo.hostAccess(src)
	}
	src.share()
	dst.hostWrite()
	switch {
	case n == 0:
	case dst.inPlace(n):
		readRuns(dst.words[dstOff:dstOff+n], src.runs, srcOff)
	default:
		dst.put(dstOff, appendRuns(nil, src.runs, srcOff, srcOff+n))
	}
}

// Fill sets words [off, off+n) to v.
func (a *Allocation) Fill(off, n int, v uint32) {
	a.check(off, n)
	a.hostWrite()
	switch {
	case n == 0:
	case a.inPlace(n):
		fill(a.words[off:off+n], v)
	case v == 0:
		a.put(off, []run{{n: n}})
	default:
		w := make(kernels.Words, n)
		fill(w, v)
		a.put(off, []run{dataRun(w)})
	}
}

// fill sets every word of w to v.
func fill(w kernels.Words, v uint32) {
	for i := range w {
		w[i] = v
	}
}

// check panics unless words [off, off+n) lie within the allocation.
func (a *Allocation) check(off, n int) {
	if off < 0 || n < 0 || off+n > a.n {
		panic(fmt.Sprintf("hw: words [%d,%d) outside an allocation of %d words", off, off+n, a.n))
	}
}

// hostWrite prepares a host write: content a DispatchMemo derived is settled
// first, and the words' version becomes unknown.
func (a *Allocation) hostWrite() {
	if a.state >= contentDerived {
		a.owner.memo.hostAccess(a)
	}
	a.state = contentUnknown
}

// inPlace reports whether a write of n words goes into the private words:
// unless it covers all of them, in which case the written runs replace them.
func (a *Allocation) inPlace(n int) bool { return a.words != nil && n < a.n }

// put writes runs to the words from off on, which inPlace refused.
func (a *Allocation) put(off int, in []run) {
	if a.words != nil {
		a.words, a.runs = nil, []run{{n: a.n}}
	}
	n := 0
	for _, r := range in {
		n += r.n
	}
	out := appendRuns(make([]run, 0, len(a.runs)+len(in)+1), a.runs, 0, off)
	for _, r := range in {
		out = appendRun(out, r)
	}
	a.runs = appendRuns(out, a.runs, off+n, a.n)
	if len(a.runs) > maxRuns {
		a.private()
	}
}

// private returns the private words, flattening the runs into new ones
// first.
func (a *Allocation) private() kernels.Words {
	if a.words == nil {
		if len(a.runs) == 1 && a.runs[0].words != nil {
			a.words = slices.Clone(a.runs[0].words)
		} else {
			a.words = make(kernels.Words, a.n)
			readRuns(a.words, a.runs, 0)
		}
		a.runs = nil
	}
	return a.words
}

// share makes the private words the allocation's one run, so that a
// transfer can alias them.
func (a *Allocation) share() {
	if a.words != nil {
		a.words, a.runs = nil, []run{dataRun(a.words)}
	}
}

// content returns the allocation's content as one slice nobody writes again.
func (a *Allocation) content() kernels.Words {
	if a.words == nil && len(a.runs) == 1 && a.runs[0].words != nil {
		return a.runs[0].words
	}
	w := a.private()
	a.share()
	return w
}

// named returns the stream whose first a.n words are the allocation's
// content when that content is one named run, else nil.
func (a *Allocation) named() *StreamID {
	if a.words == nil && len(a.runs) == 1 {
		return a.runs[0].stream
	}
	return nil
}

// Binding is a storage buffer bound to a dispatch: words [offset,
// offset+len) of an allocation.
type Binding struct {
	alloc       *Allocation
	offset, len int
}

// Bind binds the words [offset, offset+n) of the allocation to a dispatch.
// Binding is not host access: the dispatch alone touches the words, so the
// allocation keeps its content version.
func (a *Allocation) Bind(offset, n int) Binding { return Binding{alloc: a, offset: offset, len: n} }

// boundWords returns the words binding i gives a dispatch of prog: the
// allocation's one run of words when no binding of it may store, else its
// private words.
func boundWords(prog *kernels.Program, binds []Binding, i int) kernels.Words {
	b := binds[i]
	a := b.alloc
	if a.words == nil && len(a.runs) == 1 && a.runs[0].words != nil && !mayStore(prog, binds, a) {
		return a.runs[0].words[b.offset : b.offset+b.len]
	}
	return a.private()[b.offset : b.offset+b.len]
}

// mayStore reports whether a dispatch of prog may store to the allocation
// through any of its bindings.
func mayStore(prog *kernels.Program, binds []Binding, a *Allocation) bool {
	for j, b := range binds {
		if b.alloc == a && prog.ReadOnly>>j&1 == 0 {
			return true
		}
	}
	return false
}

// Freed reports whether the allocation has been released.
func (a *Allocation) Freed() bool { return a.freed }

// MemorySystem tracks heap budgets and allocations for one device.
type MemorySystem struct {
	// memo is the device's DispatchMemo; nil outside a device.
	memo      *DispatchMemo
	mu        sync.Mutex
	capacity  map[HeapKind]int64
	used      map[HeapKind]int64
	allocs    int
	peakUsed  map[HeapKind]int64
	allocFail int
	// frozen holds the named runs Freeze registered.
	frozen []run
}

// NewMemorySystem builds a memory system with the given heap capacities in
// bytes.
func NewMemorySystem(deviceLocal, hostVisible int64) *MemorySystem {
	return &MemorySystem{
		capacity: map[HeapKind]int64{
			HeapDeviceLocal: deviceLocal,
			HeapHostVisible: hostVisible,
		},
		used:     map[HeapKind]int64{},
		peakUsed: map[HeapKind]int64{},
	}
}

// Capacity returns the capacity of the heap in bytes.
func (m *MemorySystem) Capacity(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity[h]
}

// Used returns the bytes currently allocated from the heap.
func (m *MemorySystem) Used(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used[h]
}

// PeakUsed returns the high-water mark of the heap.
func (m *MemorySystem) PeakUsed(h HeapKind) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peakUsed[h]
}

// LiveAllocations returns the number of outstanding allocations.
func (m *MemorySystem) LiveAllocations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocs
}

// FailedAllocations returns how many allocations were rejected for lack of
// space. The mobile experiments use this to reproduce the paper's "cfd could
// not fit" observation.
func (m *MemorySystem) FailedAllocations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocFail
}

// Allocate reserves size bytes from the heap and returns the allocation. The
// backing store is rounded up to whole 32-bit words.
func (m *MemorySystem) Allocate(h HeapKind, size int64) (*Allocation, error) {
	if size <= 0 {
		return nil, ErrInvalidSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	capacity, ok := m.capacity[h]
	if !ok {
		return nil, fmt.Errorf("hw: unknown heap %v", h)
	}
	if m.used[h]+size > capacity {
		m.allocFail++
		if h == HeapDeviceLocal {
			return nil, fmt.Errorf("%w: requested %d bytes, %d of %d in use",
				ErrOutOfDeviceMemory, size, m.used[h], capacity)
		}
		return nil, fmt.Errorf("%w: requested %d bytes, %d of %d in use",
			ErrOutOfHostMemory, size, m.used[h], capacity)
	}
	m.used[h] += size
	if m.used[h] > m.peakUsed[h] {
		m.peakUsed[h] = m.used[h]
	}
	m.allocs++
	n := kernels.WordsForBytes(int(size))
	return &Allocation{heap: h, bytes: size, n: n, runs: []run{{n: n}}, owner: m, state: contentZero}, nil
}

// Free releases the allocation back to its heap.
func (m *MemorySystem) Free(a *Allocation) error {
	if a == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if a.freed {
		return ErrAlreadyFreed
	}
	a.freed = true
	m.used[a.heap] -= a.bytes
	m.allocs--
	a.n, a.words, a.runs = 0, nil, nil
	return nil
}

// Freeze registers words the host never changes again: the first len(w)
// words of the stream id names. A Write of w, or of a prefix of it, aliases
// the words instead of copying them, and the run it writes is named.
func (m *MemorySystem) Freeze(w kernels.Words, id StreamID) {
	if len(w) == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = append(m.frozen, run{words: w[:len(w):len(w)], n: len(w), stream: &id})
}

// Frozen returns the words Freeze registered, in registration order.
func (m *MemorySystem) Frozen() []kernels.Words {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]kernels.Words, len(m.frozen))
	for i, f := range m.frozen {
		out[i] = f.words
	}
	return out
}

// frozenRun returns the named run of w when Freeze registered w or words it
// is a prefix of.
func (m *MemorySystem) frozenRun(w kernels.Words) (run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, f := range m.frozen {
		if &f.words[0] == &w[0] && f.n >= len(w) {
			return f.slice(0, len(w)), true
		}
	}
	return run{}, false
}
