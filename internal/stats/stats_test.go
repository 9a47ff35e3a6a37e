package stats_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"vcomputebench/internal/stats"
)

func TestGeoMean(t *testing.T) {
	if _, err := stats.GeoMean(nil); !errors.Is(err, stats.ErrEmpty) {
		t.Fatalf("GeoMean(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := stats.GeoMean([]float64{1, 0, 4}); err == nil {
		t.Fatal("GeoMean with a zero value must error")
	}
	if _, err := stats.GeoMean([]float64{2, -8}); err == nil {
		t.Fatal("GeoMean with a negative value must error")
	}
	g, err := stats.GeoMean([]float64{2, 8})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean({2,8}) = %v, %v; want 4", g, err)
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	if sp := stats.Speedup(time.Second, 0); sp != 0 {
		t.Fatalf("Speedup with zero measured = %v, want 0", sp)
	}
	if sp := stats.Speedup(time.Second, -time.Millisecond); sp != 0 {
		t.Fatalf("Speedup with negative measured = %v, want 0", sp)
	}
	if sp := stats.Speedup(10*time.Millisecond, 5*time.Millisecond); sp != 2 {
		t.Fatalf("Speedup = %v, want 2", sp)
	}
}
