package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vcomputebench/internal/core"
	"vcomputebench/internal/kernels"
	_ "vcomputebench/internal/rodinia/suite"
)

// fuzzRegistry holds the synthetic store-test program and every registered
// workload program, so both the synthetic and the real recorded seeds in
// testdata/fuzz decode.
func fuzzRegistry(t testing.TB) *kernels.Registry {
	reg := core.StoreTestRegistry(t)
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

// FuzzDecodeSnapshot feeds generated streams to the snapshot decoder, which
// wraps the trace decoder. Decoding never panics; a stream that decodes also
// replays, every reading evaluated, without a panic; and re-encoding is a
// fixed point on bytes, encode(decode(encode(decode(b)))) ==
// encode(decode(b)), which compares NaN values correctly where a comparison
// of values would not.
func FuzzDecodeSnapshot(f *testing.F) {
	reg := fuzzRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := core.DecodeSnapshot(data, reg)
		if err != nil {
			return
		}
		core.ReplayDecoded(t, s)
		once, err := core.EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		again, err := core.DecodeSnapshot(once, reg)
		if err != nil {
			t.Fatalf("decoding a re-encoded snapshot: %v", err)
		}
		twice, err := core.EncodeSnapshot(again)
		if err != nil {
			t.Fatalf("re-encoding a decoded snapshot: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n  once  %x\n  twice %x", once, twice)
		}
	})
}

// FuzzDecodeEntry feeds generated streams to the disk store's entry envelope
// decoder. Decoding never panics, and an envelope that decodes re-encodes to
// the same bytes: the envelope is canonical.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		codeVersion, k, blob, err := core.DecodeEntry(data)
		if err != nil {
			return
		}
		if again := core.EncodeEntry(codeVersion, k, blob); !bytes.Equal(again, data) {
			t.Fatalf("re-encoding a decoded entry changed its bytes:\n  in  %x\n  out %x", data, again)
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

// TestCommittedFuzzSeedsDecode pins the committed corpora to the current
// codec versions: every seed of FuzzDecodeSnapshot decodes, and so does every
// seed of FuzzDecodeEntry with the snapshot stream it wraps. A seed that
// stops at a version check exercises nothing past it, so a codec or envelope
// version bump fails here until its seeds are regenerated.
func TestCommittedFuzzSeedsDecode(t *testing.T) {
	reg := fuzzRegistry(t)
	for _, s := range committedSeeds(t, "FuzzDecodeSnapshot") {
		if _, err := core.DecodeSnapshot(s.data, reg); err != nil {
			t.Errorf("FuzzDecodeSnapshot seed %s: %v", s.name, err)
		}
	}
	for _, s := range committedSeeds(t, "FuzzDecodeEntry") {
		_, _, blob, err := core.DecodeEntry(s.data)
		if err == nil {
			_, err = core.DecodeSnapshot(blob, reg)
		}
		if err != nil {
			t.Errorf("FuzzDecodeEntry seed %s: %v", s.name, err)
		}
	}
}
