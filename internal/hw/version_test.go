package hw

import (
	"testing"

	"vcomputebench/internal/kernels"
)

// TestHashZerosMatchesHashWords: a fresh allocation's version, hashed from a
// zero chunk without allocating the words, equals the hash of the words the
// host would have written, so fresh and zero-uploaded buffers key alike.
func TestHashZerosMatchesHashWords(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 4097, 3 << 12, 100003} {
		if got, want := hashZeros(n), hashWords(make(kernels.Words, n)); got != want {
			t.Errorf("hashZeros(%d) = %x, want hashWords of %d zero words = %x", n, got, n, want)
		}
	}
	w := make(kernels.Words, 64)
	w[63] = 1
	if hashWords(w) == hashZeros(64) {
		t.Error("a nonzero word does not change the version")
	}
}
