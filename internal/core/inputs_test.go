package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"vcomputebench/internal/kernels"
)

// refF32 and refI32 draw a stream afresh from its own generator, as every
// benchmark did before inputs were shared: the reference the shared streams
// must match bit for bit.
func refF32(seed int64, n int, lo, hi float32) kernels.Words {
	rng := rand.New(rand.NewSource(seed))
	out := make(kernels.Words, n)
	span := hi - lo
	for i := range out {
		out[i] = math.Float32bits(lo + span*rng.Float32())
	}
	return out
}

func refI32(seed int64, n int, lo, hi int32) kernels.Words {
	out := make(kernels.Words, n)
	span := int64(hi) - int64(lo)
	if span <= 0 {
		for i := range out {
			out[i] = uint32(lo)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out {
		out[i] = uint32(lo + int32(rng.Int63n(span)))
	}
	return out
}

// streamCase is one stream a test asks for.
type streamCase struct {
	i32    bool
	seed   int64
	lo, hi int32
}

func (c streamCase) String() string {
	kind := "F32"
	if c.i32 {
		kind = "I32"
	}
	return fmt.Sprintf("%s(seed=%d, [%d, %d))", kind, c.seed, c.lo, c.hi)
}

func (c streamCase) draw(ctx *RunContext, n int) kernels.Words {
	if c.i32 {
		return ctx.RandomI32(c.seed, n, c.lo, c.hi)
	}
	return ctx.RandomF32(c.seed, n, float32(c.lo), float32(c.hi))
}

func (c streamCase) ref(n int) kernels.Words {
	if c.i32 {
		return refI32(c.seed, n, c.lo, c.hi)
	}
	return refF32(c.seed, n, float32(c.lo), float32(c.hi))
}

// TestInputStreamsMatchFreshDraws is a seeded property test: whatever order
// of lengths a table is asked for — growing, shrinking, or interleaving
// seeds, ranges and element kinds, with one seed shared by both kinds and by
// several ranges — every slice it returns equals a fresh draw of that many
// values, is capped at its length, and shares the words already drawn.
func TestInputStreamsMatchFreshDraws(t *testing.T) {
	cases := []streamCase{
		{seed: 42, lo: 0, hi: 1},
		{seed: 42, lo: -1, hi: 1},
		{seed: 43, lo: -1, hi: 1},
		{i32: true, seed: 42, lo: 0, hi: 1},
		{i32: true, seed: 42, lo: 1, hi: 21},
		{i32: true, seed: 7, lo: -3, hi: 17},
		{i32: true, seed: 7, lo: 5, hi: 5},  // empty range
		{i32: true, seed: 7, lo: 9, hi: -2}, // inverted range
		{i32: true, seed: 8, lo: math.MinInt32, hi: math.MaxInt32},
	}
	rng := rand.New(rand.NewSource(14))
	orders := map[string]func(i int) int{
		"grow":   func(i int) int { return 1 + 37*i },
		"shrink": func(i int) int { return 2000 - 37*i },
		"random": func(int) int { return rng.Intn(2000) },
	}
	for _, name := range []string{"grow", "shrink", "random"} {
		length := orders[name]
		ctx := &RunContext{streams: newInputStreams()}
		first := make(map[streamCase]kernels.Words)
		for i := 0; i < 50; i++ {
			for _, j := range rng.Perm(len(cases)) {
				c := cases[j]
				n := length(i)
				got := c.draw(ctx, n)
				if want := c.ref(n); !slices.Equal(got, want) {
					t.Fatalf("%s order, request %d: %v of %d words differs from a fresh draw", name, i, c, n)
				}
				if cap(got) != n {
					t.Fatalf("%s order: %v of %d words has capacity %d", name, c, n, cap(got))
				}
				if name == "shrink" && n > 0 {
					// The longest prefix came first, so nothing was drawn
					// again: every later request shares its words.
					if f, ok := first[c]; !ok {
						first[c] = got
					} else if &got[0] != &f[0] {
						t.Fatalf("shrink order: %v of %d words is a copy, not a prefix of the shared stream", c, n)
					}
				}
			}
		}
	}
	// A hand-built context has no table and draws privately through the same
	// code.
	for _, c := range cases {
		if got := c.draw(&RunContext{}, 300); !slices.Equal(got, c.ref(300)) {
			t.Fatalf("tableless %v differs from a fresh draw", c)
		}
	}
}

// TestInputStreamsCapped: appending to a returned prefix never writes into
// the stream, even when the stream has grown spare capacity behind it.
func TestInputStreamsCapped(t *testing.T) {
	ctx := &RunContext{streams: newInputStreams()}
	c := streamCase{seed: 3, lo: 0, hi: 1}
	c.draw(ctx, 10)
	for _, n := range []int{11, 4, 0} { // 11 grows the stream past 11 words
		got := c.draw(ctx, n)
		grown := append(got, 0xdeadbeef)
		if len(got) > 0 && &grown[0] == &got[0] {
			t.Fatalf("append to a %d-word prefix wrote in place", n)
		}
	}
	if got, want := c.draw(ctx, 40), c.ref(40); !slices.Equal(got, want) {
		t.Fatalf("stream changed after appends to its prefixes:\n got %v\nwant %v", got, want)
	}
}

// TestInputStreamsConcurrentPrefixes has 8 goroutines share one stream,
// asking for interleaved lengths that keep extending it while others read
// its prefix. Run it under -race: every read must be ordered after the write
// that drew its words.
func TestInputStreamsConcurrentPrefixes(t *testing.T) {
	const workers, rounds, longest = 8, 64, 1 << 14
	want := refF32(5, longest, -1, 1)
	streams := newInputStreams()
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := &RunContext{streams: streams}
			for r := 0; r < rounds; r++ {
				// Even rounds reach a little further than every goroutine
				// before them; odd rounds re-read a short prefix.
				n := (r*workers+g+1)*longest/(rounds*workers) - g
				if r%2 == 1 {
					n = 1 + (g*r)%97
				}
				got := ctx.RandomF32(5, n, -1, 1)
				if !slices.Equal(got, want[:n]) {
					errs <- fmt.Errorf("goroutine %d, round %d: %d-word prefix differs from a fresh draw", g, r, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRandomI32DegenerateRange(t *testing.T) {
	// Regression: hi <= lo used to panic in rand.Int63n with a non-positive
	// span. The degenerate interval now yields lo for every element.
	ctx := &RunContext{streams: newInputStreams()}
	for _, tc := range []struct{ lo, hi int32 }{
		{5, 5},   // empty interval
		{5, 3},   // inverted interval
		{-2, -2}, // empty negative interval
	} {
		out := kernels.WordsToI32(ctx.RandomI32(1, 4, tc.lo, tc.hi))
		if len(out) != 4 {
			t.Fatalf("RandomI32(lo=%d, hi=%d) length = %d, want 4", tc.lo, tc.hi, len(out))
		}
		for i, v := range out {
			if v != tc.lo {
				t.Fatalf("RandomI32(lo=%d, hi=%d)[%d] = %d, want lo", tc.lo, tc.hi, i, v)
			}
		}
	}
}

func TestRandomI32RangeAndDeterminism(t *testing.T) {
	a := kernels.WordsToI32((&RunContext{}).RandomI32(42, 1000, -3, 17))
	for i, v := range a {
		if v < -3 || v >= 17 {
			t.Fatalf("value %d at index %d outside [-3, 17)", v, i)
		}
	}
	b := kernels.WordsToI32((&RunContext{}).RandomI32(42, 1000, -3, 17))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different values at index %d", i)
		}
	}
}

func TestRandomF32Range(t *testing.T) {
	xs := kernels.WordsToF32((&RunContext{}).RandomF32(7, 1000, 0.5, 2.5))
	for i, v := range xs {
		if v < 0.5 || v >= 2.5 {
			t.Fatalf("value %v at index %d outside [0.5, 2.5)", v, i)
		}
	}
}
