package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"time"
)

// The machine this benchmark runs on is shared, and its speed drifts: on the
// 2-core machine the bounds were set on, the same vcbench pass took 1.3 to
// 1.5 times as long a few minutes later, a wider spread than any bound the
// benchmark may set. A fixed reference workload timed between passes, in
// this process while vcbench is idle, slows down with it: over 150 s of
// alternating warm-check-all passes and reference runs, the 10-s medians of
// the pass time spread 26% (quartile distance over median), those of the
// reference 19%, and those of their ratio 7%. End-to-end times are reported
// at the reference speed: scaled by refNominal over the run's median
// reference time.

// refNominal is the reference speed: a round figure among the reference's
// run medians on that machine.
const refNominal = 20 * time.Millisecond

// refEvery is how much run time one reference sample stands for: a sample
// takes about 20 ms, so they cost about 5% of a run.
const refEvery = 400 * time.Millisecond

// speedometer times the reference workload between a run's passes.
type speedometer struct {
	doc     []byte    // decoded and re-encoded by each sample
	buf     []byte    // hashed by each sample
	samples []float64 // ms
	first   time.Time
}

func newSpeedometer() *speedometer {
	return &speedometer{doc: refDocument(), buf: make([]byte, 2<<20)}
}

// refDocument is the JSON the reference decodes and re-encodes: a seeded
// stand-in for a results document, 120 cells in about 40 KB. It is built
// here, not read from the checkout, so that the work the reference does is
// the same on every commit compared.
func refDocument() []byte {
	r := rand.New(rand.NewSource(1))
	names := []string{"bfs", "backprop", "cfd", "gaussian", "hotspot", "lud", "nn", "nw", "pathfinder"}
	apis := []string{"OpenCL", "Vulkan", "CUDA"}
	var results []map[string]any
	for i := 0; i < 120; i++ {
		ns := func() []float64 {
			xs := make([]float64, 4)
			for j := range xs {
				xs[j] = float64(r.Int63n(1e9)) / 7
			}
			return xs
		}
		results = append(results, map[string]any{
			"platform":   "reference",
			"benchmark":  names[r.Intn(len(names))],
			"api":        apis[r.Intn(len(apis))],
			"workload":   "w" + strconv.Itoa(r.Intn(8)),
			"dispatches": r.Intn(5000),
			"kernel_ns":  ns(),
			"total_ns":   ns(),
			"extra":      map[string]float64{"bandwidth_gbps": r.Float64() * 100, "speedup": r.Float64() * 4},
		})
	}
	doc, err := json.Marshal(map[string]any{"schema_version": 1, "documents": []any{map[string]any{"id": "reference", "results": results}}})
	if err != nil {
		panic(err) // strings, ints and finite floats always encode
	}
	return doc
}

// sample times the reference until the run has one sample per refEvery
// since its first, so that the samples cover the run evenly however long its
// passes are.
func (s *speedometer) sample() {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	for len(s.samples) <= int(time.Since(s.first)/refEvery) {
		s.samples = append(s.samples, ms(reference(s.doc, s.buf)))
	}
}

// refSink keeps the compiler from dropping the reference's work.
var refSink int

// reference runs a fixed CPU-bound workload mixing hashing, JSON decoding
// and encoding, allocation and sorting, and returns its time.
func reference(doc, buf []byte) time.Duration {
	start := time.Now()
	for i := 0; i < 2; i++ {
		h := sha256.Sum256(buf)
		var v any
		if err := json.Unmarshal(doc, &v); err != nil {
			panic(err) // doc is refDocument's output
		}
		out, err := json.Marshal(v)
		if err != nil {
			panic(err) // a decoded JSON value always encodes
		}
		r := rand.New(rand.NewSource(int64(i)))
		xs := make([]float64, 50000)
		for j := range xs {
			xs[j] = r.Float64()
		}
		sort.Float64s(xs)
		refSink += int(h[0]) + len(out) + int(xs[0])
	}
	return time.Since(start)
}

// scale is what measured times are multiplied by to read at the reference
// speed.
func (s *speedometer) scale() float64 {
	if len(s.samples) == 0 {
		return 1
	}
	return ms(refNominal) / median(s.samples)
}
