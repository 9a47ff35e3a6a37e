package core

import (
	"math"
	"math/rand"
	"sync"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
)

// Seeded input streams. Benchmarks draw their inputs from seeded generators,
// and within one suite many cells draw the same inputs: every stride of the
// bandwidth sweep reads a prefix of one array, and every API and retried
// attempt of a cell draws its inputs again. A stream table draws each stream once,
// extends it when a longer prefix is asked for, and hands every cell the same
// words read-only. The generator makes one draw per element in order, so the
// first n words of a stream do not depend on which lengths were asked for
// before: sharing changes no input.
//
// A stream is keyed by its hw.StreamID: element kind, seed and range, the
// bounds kept as raw bits so that every float range keys exactly. The ID
// also names the stream's prefixes in device memory (hw.MemorySystem.Freeze).

// stream is the part of one seeded stream drawn so far. Its words are only
// ever extended: a prefix, once handed out, is never written again.
type stream struct {
	key   hw.StreamID
	mu    sync.Mutex
	src   source
	words kernels.Words
}

func newStream(k hw.StreamID) *stream {
	s := &stream{key: k}
	s.src.seed(k.Seed)
	return s
}

// inputStreams is the stream table shared by the cells of one suite, or by
// the attempts of one Run or ExecuteCell call.
type inputStreams struct {
	mu      sync.Mutex
	streams map[hw.StreamID]*stream
}

func newInputStreams() *inputStreams {
	return &inputStreams{streams: make(map[hw.StreamID]*stream)}
}

// draw returns the first n words of the keyed stream. A nil table draws a
// private stream that no other caller sees.
func (t *inputStreams) draw(k hw.StreamID, n int) kernels.Words {
	if t == nil {
		return newStream(k).prefix(n)
	}
	t.mu.Lock()
	s, ok := t.streams[k]
	if !ok {
		s = newStream(k)
		t.streams[k] = s
	}
	t.mu.Unlock()
	return s.prefix(n)
}

// prefix returns the stream's first n words, capped so that appending to
// them can never write into the stream.
func (s *stream) prefix(n int) kernels.Words {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have := len(s.words); n > have {
		if n > cap(s.words) {
			// Grow geometrically, so a sweep of ever longer prefixes copies
			// the stream a logarithmic number of times.
			grown := make(kernels.Words, have, max(n, 2*cap(s.words)))
			copy(grown, s.words)
			s.words = grown
		}
		s.words = s.words[:n]
		s.fill(s.words[have:])
	}
	return s.words[:n:n]
}

// fill draws the next len(dst) elements of the stream into dst.
func (s *stream) fill(dst kernels.Words) {
	k := s.key
	if k.I32 {
		lo := int32(k.Lo)
		span := int64(int32(k.Hi)) - int64(lo)
		if span <= 0 {
			// A degenerate range (hi <= lo) yields lo for every element
			// instead of the panic rand.Int63n gives an empty interval.
			for i := range dst {
				dst[i] = uint32(lo)
			}
			return
		}
		for i := range dst {
			dst[i] = uint32(lo + int32(s.src.int63n(span)))
		}
		return
	}
	lo, hi := math.Float32frombits(k.Lo), math.Float32frombits(k.Hi)
	s.src.fillF32(dst, lo, hi-lo)
}

// The draws continue the seeded source of rand.New(rand.NewSource(seed))
// exactly. That source is an additive lagged-Fibonacci generator (Knuth,
// TAOCP Vol. 2, §3.2.2): after its first sourceLag Int63 values, every value
// is out[n] = out[n-sourceLag] + out[n-sourceTap] mod 2^63. A source takes
// those first values from math/rand and computes the rest itself, a block at
// a time, with no call per value.
const (
	sourceLag   = 607
	sourceTap   = 273
	sourceBlock = 4096
)

// source is the continuation of one seeded math/rand source.
type source struct {
	// raw holds the sourceLag values before the current block, then the
	// block; pos is the next value not yet drawn.
	raw [sourceLag + sourceBlock]int64
	pos int
}

// seed starts a fresh source where rand.New(rand.NewSource(seed)) starts.
func (s *source) seed(seed int64) {
	//lint:allow(the seed is deterministic workload input; every caller passes a fixed per-workload constant)
	rng := rand.New(rand.NewSource(seed))
	for i := range sourceLag {
		s.raw[i] = rng.Int63()
	}
	s.compute()
}

// compute fills the block from the values before it.
func (s *source) compute() {
	raw := &s.raw
	for i := sourceLag; i < len(raw); i++ {
		raw[i] = (raw[i-sourceLag] + raw[i-sourceTap]) & math.MaxInt64
	}
}

// next makes the next block current once every value was drawn.
func (s *source) next() {
	copy(s.raw[:], s.raw[sourceBlock:])
	s.compute()
	s.pos = sourceLag
}

// int63 is rand.(*Rand).Int63.
func (s *source) int63() int64 {
	if s.pos == len(s.raw) {
		s.next()
	}
	v := s.raw[s.pos]
	s.pos++
	return v
}

// int63n is rand.(*Rand).Int63n, for n > 0.
func (s *source) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return s.int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.int63()
	for v > limit {
		v = s.int63()
	}
	return v % n
}

// fillF32 draws lo + span*rand.(*Rand).Float32() into every word of dst, as
// IEEE-754 bits.
func (s *source) fillF32(dst kernels.Words, lo, span float32) {
	for len(dst) > 0 {
		if s.pos == len(s.raw) {
			s.next()
		}
		raw, i, j := s.raw[s.pos:], 0, 0
		for ; j < len(raw) && i < len(dst); j++ {
			// Float32 rounds Float64's draw, and skips a draw that reaches
			// 1 at either width.
			f := float64(raw[j]) / (1 << 63)
			if f == 1 {
				continue
			}
			g := float32(f)
			if g == 1 {
				continue
			}
			dst[i] = math.Float32bits(lo + float32(span*g))
			i++
		}
		s.pos += j
		dst = dst[i:]
	}
}

// RandomF32 returns the first n words of the seeded stream of float32 values
// in [lo, hi), as IEEE-754 bits. Every cell of a suite that asks for the same
// stream gets the same words, so they are read-only: upload them as they are
// and copy them before changing any. The words are registered with the run's
// memory system (hw.MemorySystem.Freeze), so the front ends' transfers may
// alias them instead of copying, and the dispatch memo names them by their
// stream instead of hashing them. The slice is capped at n, so appending to
// it allocates.
func (ctx *RunContext) RandomF32(seed int64, n int, lo, hi float32) kernels.Words {
	return ctx.draw(hw.StreamID{Seed: seed, Lo: math.Float32bits(lo), Hi: math.Float32bits(hi)}, n)
}

// RandomI32 returns the first n words of the seeded stream of int32 values in
// [lo, hi), as two's-complement bits. A degenerate range (hi <= lo) yields lo
// for every element. The words are shared read-only, like RandomF32's.
func (ctx *RunContext) RandomI32(seed int64, n int, lo, hi int32) kernels.Words {
	return ctx.draw(hw.StreamID{I32: true, Seed: seed, Lo: uint32(lo), Hi: uint32(hi)}, n)
}

// draw returns the stream's first n words, registered with the run's memory
// system.
func (ctx *RunContext) draw(id hw.StreamID, n int) kernels.Words {
	w := ctx.streams.draw(id, n)
	if ctx.Device != nil {
		ctx.Device.Memory().Freeze(w, id)
	}
	return w
}
