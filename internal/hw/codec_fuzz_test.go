package hw_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	_ "vcomputebench/internal/rodinia/suite"
)

// fuzzRegistry holds the synthetic codec-test programs and every registered
// workload program, so both the synthetic and the real recorded seeds in
// testdata/fuzz decode.
func fuzzRegistry(t testing.TB) *kernels.Registry {
	reg := hw.CodecTestRegistry(t)
	for _, name := range kernels.Default.Names() {
		prog, err := kernels.Default.Lookup(name)
		if err == nil {
			err = reg.Register(prog)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// FuzzDecodeTrace feeds generated streams to the trace decoder. Decoding
// never panics; a stream that decodes also replays, every reading
// evaluated, without a panic; and re-encoding is a fixed point on bytes,
// encode(decode(encode(decode(b)))) == encode(decode(b)), which compares NaN
// counters correctly where a comparison of values would not.
func FuzzDecodeTrace(f *testing.F) {
	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := hw.DecodeTrace(data, reg)
		if err != nil {
			return
		}
		hw.ReplayDecoded(tr)
		once, err := hw.EncodeTrace(tr)
		if err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		again, err := hw.DecodeTrace(once, reg)
		if err != nil {
			t.Fatalf("decoding a re-encoded trace: %v", err)
		}
		twice, err := hw.EncodeTrace(again)
		if err != nil {
			t.Fatalf("re-encoding a decoded trace: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n  once  %x\n  twice %x", once, twice)
		}
	})
}

// seed is one committed fuzz corpus entry.
type seed struct {
	name string
	data []byte
}

// committedSeeds returns the committed seeds of a fuzz target, in file-name
// order: the []byte argument of each "go test fuzz v1" file under
// testdata/fuzz/<target>.
func committedSeeds(t *testing.T, target string) []seed {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seeds for %s (%v)", target, err)
	}
	var seeds []seed
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header, arg, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, okPrefix := strings.CutPrefix(arg, "[]byte(")
		lit, okSuffix := strings.CutSuffix(lit, ")")
		data, err := strconv.Unquote(lit)
		if header != "go test fuzz v1" || !okPrefix || !okSuffix || err != nil {
			t.Fatalf("%s is not a corpus file of one []byte argument", path)
		}
		seeds = append(seeds, seed{filepath.Base(path), []byte(data)})
	}
	return seeds
}

// TestCommittedFuzzSeedsDecode pins the committed corpus to the current
// trace codec version: every seed of FuzzDecodeTrace decodes, except the
// seeds named reject_*, each a stream the decoder must refuse past the
// version check (reject_forward_wait waits on a later event). A seed that
// stops at the version check exercises nothing past it, so a codec version
// bump fails here until its seeds are regenerated.
func TestCommittedFuzzSeedsDecode(t *testing.T) {
	reg := fuzzRegistry(t)
	for _, s := range committedSeeds(t, "FuzzDecodeTrace") {
		_, err := hw.DecodeTrace(s.data, reg)
		switch reject := strings.HasPrefix(s.name, "reject_"); {
		case reject && err == nil:
			t.Errorf("FuzzDecodeTrace seed %s decoded; the decoder must refuse it", s.name)
		case reject && strings.Contains(err.Error(), "version"):
			t.Errorf("FuzzDecodeTrace seed %s stops at the version check: %v", s.name, err)
		case !reject && err != nil:
			t.Errorf("FuzzDecodeTrace seed %s: %v", s.name, err)
		}
	}
}
