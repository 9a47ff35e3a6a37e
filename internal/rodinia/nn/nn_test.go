package nn

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/kernels"
)

// sortedNearest is the reference selection: sort every index by
// (distance, index) and keep the first k.
func sortedNearest(distances []float32, k int) []int {
	idx := make([]int, len(distances))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if distances[idx[a]] != distances[idx[b]] {
			return distances[idx[a]] < distances[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:min(k, len(idx))]
}

// TestNearestMatchesSort is a seeded property test: over inputs with many
// equal distances, and over the edge sizes (n = 0, k = 0, k = K, k >= n), the
// one-pass selection returns the same indices in the same order as sorting
// every record, and the selection check accepts it.
func TestNearestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, K - 1, K, K + 1}
	for len(sizes) < 400 {
		sizes = append(sizes, rng.Intn(512))
	}
	for _, n := range sizes {
		// Few distinct levels make ties common; many make them rare.
		levels := 1 + rng.Intn(n+1)
		distances := make([]float32, n)
		for i := range distances {
			distances[i] = float32(rng.Intn(levels)) * 0.25
		}
		words := kernels.F32ToWords(distances)
		for _, k := range []int{0, 1, K, n, n + 1 + rng.Intn(8), rng.Intn(n + 1)} {
			got := nearest(words, k)
			if want := sortedNearest(distances, k); !slices.Equal(got, want) {
				t.Fatalf("n=%d levels=%d k=%d: nearest = %v, sort gives %v", n, levels, k, got, want)
			}
			if err := checkNearest(distances, got, k); err != nil {
				t.Fatalf("n=%d levels=%d k=%d: check rejects the sorted selection: %v", n, levels, k, err)
			}
		}
	}
}

// TestCheckNearestRejectsWrongSelections: the validation check catches a
// selection that is out of order, repeats a record, skips a closer record or
// comes up short.
func TestCheckNearestRejectsWrongSelections(t *testing.T) {
	distances := []float32{4, 1, 3, 1, 0.5, 2, 3, 7}
	good := sortedNearest(distances, 4) // records 4, 1, 3, 5
	if err := checkNearest(distances, good, 4); err != nil {
		t.Fatalf("check rejects the sorted selection %v: %v", good, err)
	}
	for name, best := range map[string][]int{
		"swapped":          {1, 4, 3, 5},
		"tie out of order": {4, 3, 1, 5},
		"repeated":         {4, 1, 1, 5},
		"skips closer":     {4, 1, 3, 2},
		"short":            {4, 1, 3},
		"empty":            nil,
	} {
		if err := checkNearest(distances, best, 4); err == nil {
			t.Errorf("%s: check accepts %v", name, best)
		}
	}
}

var nearestSink []int

// BenchmarkNearest times the host-side selection alone over the 8M records of
// nn's mobile workload; it allocates only the K-entry result.
func BenchmarkNearest(b *testing.B) {
	words := (&core.RunContext{}).RandomF32(1, 8<<20, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nearestSink = nearest(words, K)
	}
}
