// Package stats provides the small statistical helpers used by the benchmark
// runner and the experiments: geometric means (the paper's summary metric),
// speedups and the repetition statistics of the results schema.
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

// DurationStats summarises repeated duration measurements of one quantity:
// the mean the paper reports, plus the spread of the samples. The simulator
// is deterministic, so the runner reports N equal samples of one measured
// duration d: {Mean: d, Min: d, Max: d, StdDev: 0, N: n}. The JSON tags are
// part of the versioned results schema (report.SchemaVersion): durations
// serialise as integer nanoseconds.
type DurationStats struct {
	Mean   time.Duration `json:"mean_ns"`
	Min    time.Duration `json:"min_ns"`
	Max    time.Duration `json:"max_ns"`
	StdDev time.Duration `json:"stddev_ns"`
	// N is the number of samples: the runner's repetition count, all of
	// them the replay of the cell's one execution.
	N int `json:"n"`
}
