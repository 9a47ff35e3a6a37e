package hw

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"vcomputebench/internal/kernels"
)

// The paper ports one set of kernels to every API and attributes each
// speedup to the host API (§IV-C, §V), so the API cells of one (benchmark,
// workload, platform) triple dispatch the same device work. A DispatchMemo
// lets them execute it once: the suite runs a triple's cells one after
// another, and a dispatch a sibling cell already executed takes its counters
// from the memo instead of running kernels.Execute again.
//
// A dispatch is keyed by what determines its outcome: the program, the grid,
// the coalescing parameters, the push words, and for each bound buffer its
// extent, how the bindings alias, and a content version kept on its
// Allocation. The version of an allocation the host wrote is a hash of its
// words, taken when it is first bound, or, when its content is one named run
// of a seeded input stream, a hash of the stream's name and length; a
// dispatch gives each buffer it stored to a version derived from its key,
// and read-only buffers keep theirs. Equal keys therefore mean equal inputs,
// and equal derived versions mean equal outputs.
//
// A hit writes no words. The buffers it stored to take their derived
// versions and await their content, which is aliased in only when the host
// touches them: when a sibling's host touched that version, its words became
// immutable and the memo kept them. When a run needs content the memo never
// saw (a missed dispatch binds an awaiting buffer, or the host touches one
// nobody kept), the run stops and Missed reports it; the runner then runs
// the cell again on its device's own memo. Every cell of a triple adds the
// dispatches it executes and the content its host touches.
//
// A dispatch can also repeat itself: the bandwidth sweep of §V-A1 dispatches
// one kernel over the same buffers eight times in a row. When an executed
// dispatch stored to no allocation it loaded from, a rerun on the state it
// left loads what it loaded, so it stores the same words to the same places
// and counts the same. The memo files its counters under the key of that
// state too, and a dispatch with that key takes them and changes no version
// and no word. An atomic both loads and stores, so it never repeats.
//
// Every device owns a memo, which a triple's shared one replaces for a run
// (Device.SetDispatchMemo). Nobody else compares against an own memo's
// versions, so it names host-written and zero content by counting instead of
// hashing it, and it files repeats only: it never misses and keeps no words.

// version names an allocation's content.
type version [2]uint64

// contentState is what an allocation's version says about its words.
type contentState uint8

const (
	// contentUnknown: the host may have written the words since their version
	// was taken; the next bind names them.
	contentUnknown contentState = iota
	// contentZero: the allocation is fresh, its words all zero.
	contentZero
	// contentNamed: the version names the words as they are: their hash or
	// stream name, a count in an own memo, or the derived version of content
	// aliased in.
	contentNamed
	// contentDerived: a dispatch executed here wrote the words and derived
	// the version.
	contentDerived
	// contentPending: a memo hit derived the version; the words await its
	// content.
	contentPending
)

// Seeds of the content hashes. Versions are compared only within one
// process, so random seeds serve.
var versionSeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// hashBytes is the 128-bit version of a byte string.
func hashBytes(b []byte) version {
	return version{maphash.Bytes(versionSeeds[0], b), maphash.Bytes(versionSeeds[1], b)}
}

// hashWords is the version of a word buffer's content.
func hashWords(w kernels.Words) version { return hashBytes(wordBytes(w)) }

// wordBytes is the byte view of words.
func wordBytes(w kernels.Words) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), len(w)*4)
}

// zeroChunk is what zero runs are hashed from.
var zeroChunk [16 << 10]byte

// hashRuns is hashWords of the runs' content, streamed over them.
func hashRuns(runs []run) version {
	var v version
	for i, seed := range versionSeeds {
		var h maphash.Hash
		h.SetSeed(seed)
		for _, r := range runs {
			if r.words != nil {
				h.Write(wordBytes(r.words))
				continue
			}
			for left := r.n * 4; left > 0; left -= len(zeroChunk) {
				h.Write(zeroChunk[:min(left, len(zeroChunk))])
			}
		}
		v[i] = h.Sum64()
	}
	return v
}

// hash is the version of the allocation's content: its name when the
// content is one named run, else a hash streamed over its runs without
// flattening them.
func (a *Allocation) hash() version {
	if a.words != nil {
		return hashWords(a.words)
	}
	if id := a.named(); id != nil {
		return hashStream(id, a.n)
	}
	return hashRuns(a.runs)
}

// hashStream is the version of a stream's first n words. A stream's prefix is
// a pure function of its name and length, so equal versions mean equal words.
// It hashes 25 bytes and content hashes hash whole words, so no content's
// version is computed from the same bytes.
func hashStream(id *StreamID, n int) version {
	var b [25]byte
	if id.I32 {
		b[0] = 1
	}
	binary.LittleEndian.PutUint64(b[1:], uint64(id.Seed))
	binary.LittleEndian.PutUint32(b[9:], id.Lo)
	binary.LittleEndian.PutUint32(b[13:], id.Hi)
	binary.LittleEndian.PutUint64(b[17:], uint64(n))
	return hashBytes(b[:])
}

// hashZeros is hashWords of n zero words, without allocating them.
func hashZeros(n int) version { return hashRuns([]run{{n: n}}) }

// derive is the version a dispatch with the given key leaves in the buffer
// it binds first at binding i.
func derive(key version, i int) version {
	return version{mix64(key[0] ^ uint64(i+1)*0x9e3779b97f4a7c15), mix64(key[1] + uint64(i+1)*0xbf58476d1ce4e5b9)}
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Process-wide dispatch counts, for -cache-stats.
var dispatchesExecuted, dispatchesFromMemo atomic.Uint64

// DispatchCounts reports how many dispatches this process executed and how
// many it took from a DispatchMemo instead.
func DispatchCounts() (executed, fromMemo uint64) {
	return dispatchesExecuted.Load(), dispatchesFromMemo.Load()
}

// errMemoMissed is the panic value that stops a run whose memo lacks content
// the run needs. The runner recovers every panic of a run.
var errMemoMissed = errors.New("hw: the dispatch memo lacks content this run needs")

// DispatchMemo is the dispatch memo of one device, or of one triple's API
// cells, which use it one at a time, never concurrently.
type DispatchMemo struct {
	dispatches map[version]memoDispatch
	contents   map[version]kernels.Words
	programs   map[*kernels.Program]uint64
	zeros      map[int]version
	// buf and words are the scratch of a key and of an execution's buffers.
	buf   []byte
	words []kernels.Words
	// own: the memo is one device's; named counts the versions it named.
	own    bool
	named  uint64
	missed bool
}

// NewDispatchMemo returns an empty memo for a triple's API cells.
func NewDispatchMemo() *DispatchMemo {
	return &DispatchMemo{
		dispatches: make(map[version]memoDispatch),
		contents:   make(map[version]kernels.Words),
		programs:   make(map[*kernels.Program]uint64),
		zeros:      make(map[int]version),
	}
}

// newOwnMemo returns the empty memo of one device.
func newOwnMemo() *DispatchMemo {
	return &DispatchMemo{
		dispatches: make(map[version]memoDispatch),
		programs:   make(map[*kernels.Program]uint64),
		own:        true,
	}
}

// Missed reports whether the latest run attached to the memo stopped for
// content the memo never saw.
func (m *DispatchMemo) Missed() bool { return m.missed }

// miss stops the run.
func (m *DispatchMemo) miss() {
	m.missed = true
	panic(errMemoMissed)
}

// key is the version naming a dispatch's outcome. It names the content of
// every bound buffer whose version is unknown.
func (m *DispatchMemo) key(prog *kernels.Program, cfg *kernels.DispatchConfig, binds []Binding) version {
	id, ok := m.programs[prog]
	if !ok {
		id = uint64(len(m.programs))
		m.programs[prog] = id
	}
	b := binary.LittleEndian.AppendUint64(m.buf[:0], id)
	for _, v := range []int{cfg.Groups.X, cfg.Groups.Y, cfg.Groups.Z, cfg.WarpSize, cfg.CacheLineBytes,
		cfg.MaxExactInvocations, len(cfg.Push), len(binds)} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, w := range cfg.Push {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	for i, bd := range binds {
		a := bd.alloc
		ver := m.version(a)
		b = binary.LittleEndian.AppendUint64(b, uint64(firstBinding(binds, i)))
		b = binary.LittleEndian.AppendUint64(b, uint64(a.n))
		b = binary.LittleEndian.AppendUint64(b, uint64(bd.offset))
		b = binary.LittleEndian.AppendUint64(b, uint64(bd.len))
		b = binary.LittleEndian.AppendUint64(b, ver[0])
		b = binary.LittleEndian.AppendUint64(b, ver[1])
	}
	m.buf = b
	return hashBytes(b)
}

// firstBinding returns the first binding index that binds the same
// allocation as binding i: the key holds how the bindings alias.
func firstBinding(binds []Binding, i int) int {
	for j := range i {
		if binds[j].alloc == binds[i].alloc {
			return j
		}
	}
	return i
}

// version returns the allocation's content version, naming its words when
// the host may have written them.
func (m *DispatchMemo) version(a *Allocation) version {
	switch {
	case a.state != contentUnknown && a.state != contentZero:
	case m.own:
		m.named++
		a.ver, a.state = version{m.named}, contentNamed
	case a.state == contentUnknown:
		a.ver, a.state = a.hash(), contentNamed
	default:
		v, ok := m.zeros[a.n]
		if !ok {
			v = hashZeros(a.n)
			m.zeros[a.n] = v
		}
		a.ver, a.state = v, contentNamed
	}
	return a.ver
}

// memoDispatch is what the memo keeps of an executed dispatch.
type memoDispatch struct {
	counters kernels.Counters
	stored   uint64 // kernels.Execute's stored bindings
	// repeat: the entry is keyed by the state the dispatch left, which a
	// rerun leaves as it is.
	repeat bool
}

// execute runs a dispatch of bound allocations, or takes its counters from
// the memo: when a sibling cell executed it, or when it reruns a dispatch on
// the state that dispatch left.
func (m *DispatchMemo) execute(prog *kernels.Program, cfg kernels.DispatchConfig, binds []Binding) (*kernels.Counters, error) {
	key := m.key(prog, &cfg, binds)
	if d, ok := m.dispatches[key]; ok {
		dispatchesFromMemo.Add(1)
		if !d.repeat {
			m.wrote(key, binds, d.stored, contentPending)
		}
		c := d.counters // only a hit pays for the escape
		return &c, nil
	}
	for _, bd := range binds {
		if bd.alloc.state == contentPending {
			m.miss()
		}
	}
	words := m.words[:0]
	for i := range binds {
		words = append(words, boundWords(prog, binds, i))
	}
	cfg.Buffers = words
	c, stored, loaded, err := executeKernel(prog, cfg)
	clear(words) // keeps no freed buffer alive
	m.words = words
	if err != nil {
		return nil, err
	}
	if !m.own {
		m.dispatches[key] = memoDispatch{counters: *c, stored: stored}
	}
	m.wrote(key, binds, stored, contentDerived)
	if !storedLoaded(binds, stored, loaded) {
		m.dispatches[m.key(prog, &cfg, binds)] = memoDispatch{counters: *c, repeat: true}
	}
	return c, nil
}

// storedLoaded reports whether a dispatch stored to an allocation it loaded
// from, through one binding or two that alias.
func storedLoaded(binds []Binding, stored, loaded uint64) bool {
	for i, st := range binds {
		for j, ld := range binds {
			if stored>>i&1 != 0 && loaded>>j&1 != 0 && st.alloc == ld.alloc {
				return true
			}
		}
	}
	return false
}

// wrote gives every buffer a dispatch stored to the version the dispatch
// derived for it.
func (m *DispatchMemo) wrote(key version, binds []Binding, stored uint64, state contentState) {
	for i, bd := range binds {
		if stored>>i&1 != 0 {
			bd.alloc.ver, bd.alloc.state = derive(key, firstBinding(binds, i)), state
		}
	}
}

// hostAccess prepares an allocation whose content a dispatch derived for
// host access: awaited content is aliased in, and in a triple's memo the
// executed content becomes immutable and is kept for the siblings.
func (m *DispatchMemo) hostAccess(a *Allocation) {
	if a.state == contentPending {
		w, ok := m.contents[a.ver]
		if !ok {
			m.miss()
		}
		a.words, a.runs, a.state = nil, []run{dataRun(w)}, contentNamed
		return
	}
	if _, ok := m.contents[a.ver]; !m.own && !ok {
		m.contents[a.ver] = a.content()
	}
}

// ErrReadOnlyStore fails a dispatch whose kernel stored to a binding its
// program declares read-only (kernels.Program.ReadOnly): such a binding may
// alias words other allocations and the host share.
var ErrReadOnlyStore = errors.New("hw: kernel stored to a binding it declares read-only")

// executeKernel runs kernels.Execute and fails a dispatch that stored to a
// read-only binding.
func executeKernel(prog *kernels.Program, cfg kernels.DispatchConfig) (c *kernels.Counters, stored, loaded uint64, err error) {
	dispatchesExecuted.Add(1)
	c, stored, loaded, err = kernels.Execute(prog, cfg)
	if bad := stored & prog.ReadOnly; err == nil && bad != 0 {
		return nil, 0, 0, fmt.Errorf("%w: %s stored to binding %d", ErrReadOnlyStore, prog.Name, bits.TrailingZeros64(bad))
	}
	return c, stored, loaded, err
}
