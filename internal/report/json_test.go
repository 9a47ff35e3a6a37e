package report_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/report"
)

func sampleDocument() *report.Document {
	d := &report.Document{ID: "fig4b", Title: "Mobile speedups"}
	d.Tables = append(d.Tables, commaTable())
	d.Series = append(d.Series, gapSeries())
	d.AddMetric(report.MetricGeomeanSpeedup("Vulkan", "OpenCL"), "x", 0.883)
	d.Excluded = append(d.Excluded,
		report.Exclusion{Benchmark: "cfd", API: "Vulkan", Reason: "dataset does not fit"})
	d.Notes = append(d.Notes, "a note")
	d.Results = append(d.Results, &core.Result{
		Benchmark:  "bfs",
		API:        "Vulkan",
		Platform:   "adreno506",
		Workload:   "64K",
		KernelTime: 123456 * time.Nanosecond,
		TotalTime:  654321 * time.Nanosecond,
		Dispatches: 12,
		Checksum:   42.5,
		Extra:      map[string]float64{"bandwidth_gbps": 1.806},
	})
	return d
}

// TestJSONRoundTrip: encode → decode → encode must be byte-identical — the
// schema loses nothing, including NaN gaps (encoded as null) and per-cell
// results.
func TestJSONRoundTrip(t *testing.T) {
	doc := sampleDocument()
	first, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := report.DecodeJSON(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("decoded %d documents, want 1", len(decoded))
	}
	second, err := report.EncodeJSON(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("round trip not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}

	got := decoded[0]
	if got.ID != doc.ID || got.Title != doc.Title {
		t.Errorf("identity fields lost: %q/%q", got.ID, got.Title)
	}
	if v, ok := got.Metric(report.MetricGeomeanSpeedup("Vulkan", "OpenCL")); !ok || v != 0.883 {
		t.Errorf("metric lost: %v %v", v, ok)
	}
	if !math.IsNaN(got.Series[0].Get("Vulkan", 1)) {
		t.Errorf("gap cell decoded as %v, want NaN", got.Series[0].Get("Vulkan", 1))
	}
	if got.Series[0].Get("Vulkan", 2) != 2.25 {
		t.Errorf("series value lost: %v", got.Series[0].Get("Vulkan", 2))
	}
	r := got.Results[0]
	if r.KernelTime != 123456*time.Nanosecond || r.TotalTime != 654321*time.Nanosecond || r.Extra["bandwidth_gbps"] != 1.806 {
		t.Errorf("result lost: %+v", r)
	}
	if got.Excluded[0].Benchmark != "cfd" {
		t.Errorf("exclusions lost: %+v", got.Excluded)
	}
}

// TestJSONFailedCellsRoundTrip: degraded-run failure entries survive the
// round trip field for field, and — because the schema change is additive —
// a clean document serialises without any "failed" key at all, so fault-free
// output stays byte-identical to documents written before the field existed.
func TestJSONFailedCellsRoundTrip(t *testing.T) {
	doc := sampleDocument()
	doc.Failed = append(doc.Failed,
		report.Failure{Benchmark: "bfs", Workload: "64K", API: "Vulkan", Platform: "adreno506",
			Class: "transient", Attempts: 3, Reason: "injected driver-fault"},
		report.Failure{Benchmark: "lud", API: "OpenCL",
			Class: "permanent", Attempts: 1, Reason: "panicked"})
	data, err := report.EncodeJSON([]*report.Document{doc})
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := report.DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	got := decoded[0]
	if !reflect.DeepEqual(got.Failed, doc.Failed) {
		t.Errorf("failed cells lost in round trip:\n%+v\nwant\n%+v", got.Failed, doc.Failed)
	}
	if !got.Degraded() {
		t.Error("decoded document with failed cells does not report Degraded()")
	}

	clean, err := report.EncodeJSON([]*report.Document{sampleDocument()})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(clean, []byte(`"failed"`)) {
		t.Error(`clean document serialises a "failed" key; the additive schema must omit it`)
	}
}

// TestJSONGapsAreNullNotZero: the serialised form must use null for gaps so
// downstream consumers cannot mistake them for measurements.
func TestJSONGapsAreNullNotZero(t *testing.T) {
	data, err := report.EncodeJSON([]*report.Document{{
		ID: "x", Title: "X",
		Series: []*report.Series{gapSeries()},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		SchemaVersion int `json:"schema_version"`
		Documents     []struct {
			Series []struct {
				Lines []struct {
					Name   string     `json:"name"`
					Values []*float64 `json:"values"`
				} `json:"lines"`
			} `json:"series"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("output does not parse with encoding/json: %v", err)
	}
	if env.SchemaVersion != report.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", env.SchemaVersion, report.SchemaVersion)
	}
	lines := env.Documents[0].Series[0].Lines
	if lines[0].Name != "Vulkan" || lines[1].Name != "OpenCL" {
		t.Fatalf("line order lost: %+v", lines)
	}
	if lines[0].Values[1] != nil {
		t.Errorf("gap serialised as %v, want null", *lines[0].Values[1])
	}
	if lines[1].Values[2] != nil {
		t.Errorf("implicit gap serialised as %v, want null", *lines[1].Values[2])
	}
	if lines[0].Values[0] == nil || *lines[0].Values[0] != 1.5 {
		t.Errorf("measured value mangled: %v", lines[0].Values[0])
	}
}

// TestJSONSchemaVersionRejected: the decoder reads versions 1 and 2; a
// missing or zero version and a future one are refused, not silently
// half-parsed.
func TestJSONSchemaVersionRejected(t *testing.T) {
	for _, v := range []int{1, 2} {
		if _, err := report.DecodeJSON([]byte(fmt.Sprintf(`{"schema_version": %d, "documents": []}`, v))); err != nil {
			t.Errorf("schema version %d rejected: %v", v, err)
		}
	}
	for _, in := range []string{
		`{"documents": []}`,
		`{"schema_version": 0, "documents": []}`,
		`{"schema_version": 3, "documents": []}`,
		`{"schema_version": 99, "documents": []}`,
	} {
		if _, err := report.DecodeJSON([]byte(in)); err == nil || !strings.Contains(err.Error(), "schema version") {
			t.Errorf("%s accepted: %v", in, err)
		}
		if _, _, _, err := report.DecodeWire([]byte(in)); err == nil || !strings.Contains(err.Error(), "schema version") {
			t.Errorf("wire %s accepted: %v", in, err)
		}
	}
	if _, err := report.DecodeJSON([]byte(`not json`)); err == nil {
		t.Error("garbage input accepted")
	}
}

// nullEntryInputs are results files with a null where the schema holds an
// object: a document, a table, a series, a line and a result.
var nullEntryInputs = []string{
	`{"schema_version":1,"documents":[null]}`,
	`{"schema_version":1,"documents":[{"id":"t","tables":[null]}]}`,
	`{"schema_version":1,"documents":[{"id":"t","series":[null]}]}`,
	`{"schema_version":1,"documents":[{"id":"t","series":[{"title":"s","x":["1"],"lines":[null]}]}]}`,
	`{"schema_version":1,"documents":[{"id":"t","results":[null]}]}`,
}

// TestJSONNullEntriesRejected: a null entry is an error from both decoders,
// never a panic nor a nil a later reader would dereference.
func TestJSONNullEntriesRejected(t *testing.T) {
	for _, in := range nullEntryInputs {
		if _, err := report.DecodeJSON([]byte(in)); err == nil || !strings.Contains(err.Error(), "null") {
			t.Errorf("DecodeJSON(%s) = %v, want a null-entry error", in, err)
		}
		if _, _, _, err := report.DecodeWire([]byte(in)); err == nil || !strings.Contains(err.Error(), "null") {
			t.Errorf("DecodeWire(%s) = %v, want a null-entry error", in, err)
		}
	}
}

// manyEmptyLines is a 45,866-byte results file whose one series has 2,000 x
// labels and 2,000 lines without values. Filled with gaps, its lines would
// re-encode to about 88 MB.
func manyEmptyLines() []byte {
	var b strings.Builder
	b.WriteString(`{"schema_version":2,"documents":[{"id":"t","series":[{"title":"s","x":[`)
	for i := range 2000 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"%d"`, i)
	}
	b.WriteString(`],"lines":[`)
	for i := range 2000 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"name":"l%d"}`, i)
	}
	b.WriteString(`]}]}]}`)
	return []byte(b.String())
}

// TestJSONLineLengthMismatchRejected: EncodeJSON writes one value per x
// label, so both decoders refuse a line with any other count, naming the
// series and the line.
func TestJSONLineLengthMismatchRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		in   []byte
		line string
	}{
		{"2,000 empty lines", manyEmptyLines(), `"l0"`},
		{"too few values", []byte(`{"schema_version":2,"documents":[{"id":"t","series":[{"title":"s","x":["1","2"],"lines":[{"name":"a","values":[1]}]}]}]}`), `"a"`},
		{"too many values", []byte(`{"schema_version":1,"documents":[{"id":"t","series":[{"title":"s","x":["1"],"lines":[{"name":"b","values":[1,null]}]}]}]}`), `"b"`},
		{"values without x labels", []byte(`{"schema_version":2,"documents":[{"id":"t","series":[{"title":"s","lines":[{"name":"c","values":[null]}]}]}]}`), `"c"`},
	} {
		_, err := report.DecodeJSON(c.in)
		if err == nil || !strings.Contains(err.Error(), `series "s"`) || !strings.Contains(err.Error(), "line "+c.line) {
			t.Errorf("%s: DecodeJSON = %v, want an error naming series \"s\" and line %s", c.name, err, c.line)
		}
		if _, _, _, err := report.DecodeWire(c.in); err == nil {
			t.Errorf("%s: DecodeWire accepted it", c.name)
		}
	}
	// A series without x labels still holds lines of no values.
	in := `{"schema_version":2,"documents":[{"id":"t","series":[{"title":"s","lines":[{"name":"c","values":[]}]}]}]}`
	if _, err := report.DecodeJSON([]byte(in)); err != nil {
		t.Fatalf("a line of no values for no x labels: %v", err)
	}
}
