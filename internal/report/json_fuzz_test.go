package report_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vcomputebench/internal/report"
)

// FuzzDecodeJSON feeds generated results files to the decoder, seeded with
// every golden document, the schema-1 fixture, the null-entry inputs and a
// file of lines without values.
// Decoding never panics, and for input that decodes, re-encoding is a fixed
// point on bytes: encode(decode(encode(decode(b)))) == encode(decode(b)).
func FuzzDecodeJSON(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden documents to seed from (%v)", err)
	}
	paths = append(paths, filepath.Join("..", "..", "testdata", "schema1", "fig1a.json"))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range nullEntryInputs {
		f.Add([]byte(in))
	}
	f.Add(manyEmptyLines())
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := report.DecodeJSON(data)
		if err != nil {
			return
		}
		once, err := report.EncodeJSON(docs)
		if err != nil {
			t.Fatalf("re-encoding decoded documents: %v", err)
		}
		again, err := report.DecodeJSON(once)
		if err != nil {
			t.Fatalf("decoding re-encoded documents: %v\n%s", err, once)
		}
		twice, err := report.EncodeJSON(again)
		if err != nil {
			t.Fatalf("re-encoding decoded documents: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not a fixed point:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
		}
	})
}
