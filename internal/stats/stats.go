// Package stats provides the small statistical helpers used by the benchmark
// runner and the experiments: geometric means (the paper's summary metric)
// and speedups.
package stats

import (
	"errors"
	"math"
	"time"
)

// ErrEmpty is returned when a statistic of an empty sample is requested.
var ErrEmpty = errors.New("stats: empty sample")

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, errors.New("stats: geometric mean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// Speedup returns baseline/measured: >1 means measured is faster than the
// baseline. It returns 0 if measured is non-positive.
func Speedup(baseline, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(baseline) / float64(measured)
}
