package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestBaselineNullEntriesAreErrors: a -baseline file with a null document
// or a null result is refused with an error when it is read. A panic would
// exit with status 2, the code CI reads as fidelity drift.
func TestBaselineNullEntriesAreErrors(t *testing.T) {
	for name, body := range map[string]string{
		"null-document": `{"schema_version":1,"documents":[null]}`,
		"null-result":   `{"schema_version":1,"documents":[{"id":"table1","results":[null]}]}`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := newBaselineSource(path)
			if err != nil {
				t.Fatal(err)
			}
			if d, err := src.doc("table1"); err == nil {
				t.Fatalf("baseline %s read as %+v, want an error", body, d)
			}
		})
	}
}
