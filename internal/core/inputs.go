package core

import (
	"math"
	"math/rand"
	"sync"

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

// streamKey identifies a seeded stream by element kind, seed and range. The
// bounds are kept as raw bits, so every float range keys exactly.
type streamKey struct {
	i32    bool
	seed   int64
	lo, hi uint32
}

// stream is the part of one seeded stream drawn so far. Its words are only
// ever extended: a prefix, once handed out, is never written again.
type stream struct {
	key   streamKey
	mu    sync.Mutex
	rng   *rand.Rand
	words kernels.Words
}

func newStream(k streamKey) *stream {
	//lint:allow(the seed is deterministic workload input; every caller passes a fixed per-workload constant)
	return &stream{key: k, rng: rand.New(rand.NewSource(k.seed))}
}

// inputStreams is the stream table shared by the cells of one suite, or by
// the attempts of one Run or ExecuteCell call.
type inputStreams struct {
	mu      sync.Mutex
	streams map[streamKey]*stream
}

func newInputStreams() *inputStreams {
	return &inputStreams{streams: make(map[streamKey]*stream)}
}

// draw returns the first n words of the keyed stream. A nil table draws a
// private stream that no other caller sees.
func (t *inputStreams) draw(k streamKey, n int) kernels.Words {
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
	if k.i32 {
		lo := int32(k.lo)
		span := int64(int32(k.hi)) - int64(lo)
		if span <= 0 {
			// A degenerate range (hi <= lo) yields lo for every element
			// instead of the panic rand.Int63n gives an empty interval.
			for i := range dst {
				dst[i] = uint32(lo)
			}
			return
		}
		for i := range dst {
			dst[i] = uint32(lo + int32(s.rng.Int63n(span)))
		}
		return
	}
	lo, hi := math.Float32frombits(k.lo), math.Float32frombits(k.hi)
	span := hi - lo
	for i := range dst {
		dst[i] = math.Float32bits(lo + span*s.rng.Float32())
	}
}

// RandomF32 returns the first n words of the seeded stream of float32 values
// in [lo, hi), as IEEE-754 bits. Every cell of a suite that asks for the same
// stream gets the same words, so they are read-only: upload them as they are
// and copy them before changing any. The words are registered with the run's
// memory system (hw.MemorySystem.Freeze), so the front ends' transfers may
// alias them instead of copying. The slice is capped at n, so appending to it
// allocates.
func (ctx *RunContext) RandomF32(seed int64, n int, lo, hi float32) kernels.Words {
	return ctx.freeze(ctx.streams.draw(streamKey{seed: seed, lo: math.Float32bits(lo), hi: math.Float32bits(hi)}, n))
}

// RandomI32 returns the first n words of the seeded stream of int32 values in
// [lo, hi), as two's-complement bits. A degenerate range (hi <= lo) yields lo
// for every element. The words are shared read-only, like RandomF32's.
func (ctx *RunContext) RandomI32(seed int64, n int, lo, hi int32) kernels.Words {
	return ctx.freeze(ctx.streams.draw(streamKey{i32: true, seed: seed, lo: uint32(lo), hi: uint32(hi)}, n))
}

// freeze registers stream words with the run's memory system.
func (ctx *RunContext) freeze(w kernels.Words) kernels.Words {
	if ctx.Device != nil {
		ctx.Device.Memory().Freeze(w)
	}
	return w
}
