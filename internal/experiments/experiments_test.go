package experiments_test

import (
	"bytes"
	"strings"
	"testing"

	"vcomputebench/internal/experiments"
	"vcomputebench/internal/report"
)

// renderAll runs one experiment and returns its text and CSV renderings.
func renderAll(t *testing.T, id string, opts experiments.Options) (text, csv string) {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := e.Run(opts)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return doc.Render(), doc.CSV()
}

// TestSerialParallelOutputIdentical is the acceptance check for the suite
// scheduler: fanning the grid out across workers must leave the rendered
// text and CSV byte-identical to the serial run.
func TestSerialParallelOutputIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped with -short")
	}
	for _, tc := range []struct {
		id   string
		opts experiments.Options
	}{
		{"fig3a", experiments.Options{Repetitions: 2, Seed: 42}},
		{"fig4b", experiments.Options{Repetitions: 1, Seed: 42}},
	} {
		serial := tc.opts
		serial.Parallelism = 1
		parallel := tc.opts
		parallel.Parallelism = 4

		serialText, serialCSV := renderAll(t, tc.id, serial)
		parallelText, parallelCSV := renderAll(t, tc.id, parallel)
		if serialText != parallelText {
			t.Errorf("%s: parallel text output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				tc.id, serialText, parallelText)
		}
		if serialCSV != parallelCSV {
			t.Errorf("%s: parallel CSV output differs from serial", tc.id)
		}
	}
}

// TestNoSpreadNoteForDeterministicRuns: the simulator is deterministic, so a
// cell executes once and its result is that run. Repetitions is ignored: the
// document encodes to the same bytes at 1 and 2, and its rendering shows no
// spread.
func TestNoSpreadNoteForDeterministicRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments; skipped with -short")
	}
	e, err := experiments.ByID("fig3a")
	if err != nil {
		t.Fatal(err)
	}
	var encoded [][]byte
	for _, reps := range []int{1, 2} {
		doc, err := e.Run(experiments.Options{Repetitions: reps, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if text := doc.Render(); strings.Contains(text, "spread") {
			t.Errorf("deterministic %d-rep run must not emit a spread note, got:\n%s", reps, text)
		}
		data, err := report.EncodeJSON([]*report.Document{doc})
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, data)
	}
	if !bytes.Equal(encoded[0], encoded[1]) {
		t.Errorf("Repetitions changed the document:\n--- 1 rep ---\n%s\n--- 2 reps ---\n%s", encoded[0], encoded[1])
	}
}
