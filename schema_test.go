package vcomputebench_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vcomputebench/internal/expected"
	"vcomputebench/internal/report"
)

// TestSchema1BaselineStillDiffs: a results file written before schema 2
// (testdata/schema1/fig1a.json, fig1a's version-1 golden) still decodes, and
// diffing it against the current golden passes every check, so `vcbench
// -check fig1a -baseline old.json` keeps working across the version bump.
// The same file at a version above SchemaVersion is refused.
func TestSchema1BaselineStillDiffs(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "schema1", "fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join("testdata", "golden", "fig1a.json"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := report.DecodeJSON(old)
	if err != nil {
		t.Fatalf("schema-1 fixture: %v", err)
	}
	v2, err := report.DecodeJSON(cur)
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if len(v1) != 1 || len(v2) != 1 {
		t.Fatalf("decoded %d and %d documents, want 1 each", len(v1), len(v2))
	}
	checks := expected.DiffDocuments("fig1a", v1[0], v2[0], 0)
	if len(checks) == 0 {
		t.Fatal("the diff produced no checks")
	}
	for _, c := range checks {
		if !c.Pass {
			t.Error(c.String())
		}
	}

	future := bytes.Replace(old, []byte(`"schema_version": 1,`), []byte(`"schema_version": 3,`), 1)
	if bytes.Equal(future, old) {
		t.Fatal(`the fixture holds no "schema_version": 1`)
	}
	if _, err := report.DecodeJSON(future); err == nil {
		t.Error("schema version 3 accepted")
	}
}
