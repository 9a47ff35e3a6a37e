package core_test

import (
	"bytes"
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
