package kernels

import (
	"math"
	"sync/atomic"
)

// Words is the raw storage type of simulated device memory: a stream of 32-bit
// words, mirroring SPIR-V's data model. Host-side helpers convert between Go
// slices of float32/int32/uint32 and Words.
type Words []uint32

// NewWords allocates a zeroed word buffer holding n 32-bit elements.
func NewWords(n int) Words { return make(Words, n) }

// WordsForBytes returns the number of 32-bit words needed to hold n bytes.
func WordsForBytes(n int) int { return (n + 3) / 4 }

// F32ToWords encodes a float32 slice into a freshly allocated word buffer.
func F32ToWords(src []float32) Words {
	w := make(Words, len(src))
	for i, v := range src {
		w[i] = math.Float32bits(v)
	}
	return w
}

// WordsToF32 decodes a word buffer into a freshly allocated float32 slice.
func WordsToF32(src Words) []float32 {
	f := make([]float32, len(src))
	for i, v := range src {
		f[i] = math.Float32frombits(v)
	}
	return f
}

// I32ToWords encodes an int32 slice into a word buffer.
func I32ToWords(src []int32) Words {
	w := make(Words, len(src))
	for i, v := range src {
		w[i] = uint32(v)
	}
	return w
}

// WordsToI32 decodes a word buffer into an int32 slice.
func WordsToI32(src Words) []int32 {
	out := make([]int32, len(src))
	for i, v := range src {
		out[i] = int32(v)
	}
	return out
}

// U32ToWords copies a uint32 slice into a word buffer.
func U32ToWords(src []uint32) Words {
	w := make(Words, len(src))
	copy(w, src)
	return w
}

// WordsToU32 copies a word buffer into a uint32 slice.
func WordsToU32(src Words) []uint32 {
	out := make([]uint32, len(src))
	copy(out, src)
	return out
}

// PushBuilder incrementally builds a push-constant (or parameter-buffer) block
// out of 32-bit scalars, in declaration order.
type PushBuilder struct {
	words Words
}

// PushU32 appends an unsigned 32-bit value.
func (p *PushBuilder) PushU32(v uint32) *PushBuilder { p.words = append(p.words, v); return p }

// PushI32 appends a signed 32-bit value.
func (p *PushBuilder) PushI32(v int32) *PushBuilder { p.words = append(p.words, uint32(v)); return p }

// PushF32 appends a 32-bit float.
func (p *PushBuilder) PushF32(v float32) *PushBuilder {
	p.words = append(p.words, math.Float32bits(v))
	return p
}

// Words returns the accumulated block.
func (p *PushBuilder) Words() Words { return p.words }

// Bytes returns the size of the accumulated block in bytes.
func (p *PushBuilder) Bytes() int { return len(p.words) * 4 }

// BufferView is a counted view of a bound storage buffer. Loads and stores
// performed through a view update the workgroup's counters and, on sampled
// workgroups, feed the coalescing model. Views are obtained from a Workgroup
// and must not be shared across workgroups.
//
// Every accessor takes the *Invocation that ForEach passed to the kernel
// body: buffers are touched only inside ForEach, which charges each access to
// the invocation it is running. The plain loads and stores inline into kernel
// bodies, so an access costs a counter increment on the workgroups that
// record nothing (TestBufferAccessorsInline keeps it so).
type BufferView struct {
	data    Words
	wg      *Workgroup
	binding int
}

// Len returns the number of 32-bit elements visible through the view.
func (v BufferView) Len() int { return len(v.data) }

// LoadF32 loads element i as a float32.
func (v BufferView) LoadF32(inv *Invocation, i int) float32 {
	v.wg.noteLoad(v.binding, i)
	return math.Float32frombits(v.data[i])
}

// StoreF32 stores x into element i as a float32.
func (v BufferView) StoreF32(inv *Invocation, i int, x float32) {
	v.wg.noteStore(v.binding, i)
	v.data[i] = math.Float32bits(x)
}

// LoadI32 loads element i as an int32.
func (v BufferView) LoadI32(inv *Invocation, i int) int32 {
	v.wg.noteLoad(v.binding, i)
	return int32(v.data[i])
}

// StoreI32 stores x into element i as an int32.
func (v BufferView) StoreI32(inv *Invocation, i int, x int32) {
	v.wg.noteStore(v.binding, i)
	v.data[i] = uint32(x)
}

// LoadU32 loads element i as a uint32.
func (v BufferView) LoadU32(inv *Invocation, i int) uint32 {
	v.wg.noteLoad(v.binding, i)
	return v.data[i]
}

// StoreU32 stores x into element i as a uint32.
func (v BufferView) StoreU32(inv *Invocation, i int, x uint32) {
	v.wg.noteStore(v.binding, i)
	v.data[i] = x
}

// StoreU32Shared is StoreU32 for an element that other invocations may store
// the same value to at the same time, as GPU memory allows (bfs raises one
// stop flag from every active invocation). Workgroups run on several
// goroutines, so the store is atomic.
func (v BufferView) StoreU32Shared(inv *Invocation, i int, x uint32) {
	v.wg.noteStore(v.binding, i)
	atomic.StoreUint32(&v.data[i], x)
}

// AtomicOrU32 performs a read-modify-write OR on element i. The simulated
// dispatch engine serialises workgroups that touch the same element only at
// the Go memory level (a mutex in the dispatch), which is sufficient for the
// flag-style atomics used by the Rodinia kernels.
func (v BufferView) AtomicOrU32(inv *Invocation, i int, x uint32) uint32 {
	v.wg.noteLoad(v.binding, i)
	v.wg.noteStore(v.binding, i)
	v.wg.disp.atomicMu.Lock()
	old := v.data[i]
	v.data[i] = old | x
	v.wg.disp.atomicMu.Unlock()
	return old
}

// AtomicAddI32 performs a read-modify-write add on element i and returns the
// previous value.
func (v BufferView) AtomicAddI32(inv *Invocation, i int, x int32) int32 {
	v.wg.noteLoad(v.binding, i)
	v.wg.noteStore(v.binding, i)
	v.wg.disp.atomicMu.Lock()
	old := int32(v.data[i])
	v.data[i] = uint32(old + x)
	v.wg.disp.atomicMu.Unlock()
	return old
}

// AtomicMinF32 performs a read-modify-write minimum on element i interpreted
// as float32 and returns the previous value.
func (v BufferView) AtomicMinF32(inv *Invocation, i int, x float32) float32 {
	v.wg.noteLoad(v.binding, i)
	v.wg.noteStore(v.binding, i)
	v.wg.disp.atomicMu.Lock()
	old := math.Float32frombits(v.data[i])
	if x < old {
		v.data[i] = math.Float32bits(x)
	}
	v.wg.disp.atomicMu.Unlock()
	return old
}
