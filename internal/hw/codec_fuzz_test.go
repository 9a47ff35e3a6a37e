package hw_test

import (
	"bytes"
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
