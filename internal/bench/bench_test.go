package bench_test

import (
	"testing"

	"vcomputebench/internal/bench"
)

func TestDivUp(t *testing.T) {
	for _, tc := range []struct{ a, b, want int }{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 1}, {5, 4, 2}, {7, 0, 0}, {7, -1, 0},
	} {
		if got := bench.DivUp(tc.a, tc.b); got != tc.want {
			t.Fatalf("DivUp(%d, %d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
