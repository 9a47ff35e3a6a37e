// Machine-readable results: a stable, versioned JSON schema for experiment
// documents, so downstream tooling can parse results and CI can diff them
// across runs (like BENCH_dispatch.json does for dispatch-engine perf).
//
// Schema policy (v2):
//   - The top-level envelope is {"schema_version": N, "documents": [...]};
//     serve answers add "error" and "degraded" to it (wire.go).
//   - Additive changes (new optional fields) do NOT bump the version.
//   - Renaming, removing or re-typing a field bumps SchemaVersion.
//   - Durations are integer nanoseconds; series gaps (excluded cells) are
//     null, never 0.
//
// Version 2 removed each result's kernel_stats and total_stats: a cell runs
// once, so they restated kernel_time_ns and total_time_ns as n equal
// samples. The decoder reads versions 1 and 2 (a version-1 file's statistics
// are unknown fields, which decoding drops, so an old -baseline still diffs)
// and rejects a missing version and any later one.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"vcomputebench/internal/core"
)

// SchemaVersion identifies the JSON results schema emitted by EncodeJSON and
// EncodeWire.
const SchemaVersion = 2

// oldestSchemaVersion is the oldest results schema DecodeJSON and DecodeWire
// read.
const oldestSchemaVersion = 1

// jsonEnvelope is the one results envelope of files and serve answers alike.
type jsonEnvelope struct {
	SchemaVersion int             `json:"schema_version"`
	Documents     []*jsonDocument `json:"documents"`
	// Error and Degraded are serve's additive fields; EncodeJSON never sets
	// them, so a results file holds neither.
	Error    *WireError `json:"error,omitempty"`
	Degraded bool       `json:"degraded,omitempty"`
}

type jsonDocument struct {
	ID       string         `json:"id"`
	Title    string         `json:"title"`
	Tables   []*jsonTable   `json:"tables,omitempty"`
	Series   []*jsonSeries  `json:"series,omitempty"`
	Metrics  []jsonMetric   `json:"metrics,omitempty"`
	Results  []*core.Result `json:"results,omitempty"`
	Excluded []Exclusion    `json:"excluded,omitempty"`
	// Failed is additive (schema policy: no version bump): clean documents
	// omit it and encode byte-identically to pre-fault-model output.
	Failed []Failure `json:"failed,omitempty"`
	Notes  []string  `json:"notes,omitempty"`
}

type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// jsonSeries stores lines as an ordered list, not a map: the on-disk order is
// the presentation order and must be byte-stable across runs.
type jsonSeries struct {
	Title  string      `json:"title"`
	XLabel string      `json:"x_label"`
	YLabel string      `json:"y_label"`
	X      []string    `json:"x"`
	Lines  []*jsonLine `json:"lines"`
}

type jsonLine struct {
	Name string `json:"name"`
	// Values uses null for gaps (excluded cells): encoding/json cannot
	// represent NaN, and 0 would be indistinguishable from a measurement.
	Values []*float64 `json:"values"`
}

// jsonMetric guards the one float the schema allows to be absent-but-present:
// a non-finite metric value round-trips as null.
type jsonMetric struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit,omitempty"`
	Value *float64 `json:"value"`
}

func encodeFloat(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	f := v
	return &f
}

func decodeFloat(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}

func toJSONDocument(d *Document) *jsonDocument {
	jd := &jsonDocument{
		ID:       d.ID,
		Title:    d.Title,
		Results:  d.Results,
		Excluded: d.Excluded,
		Failed:   d.Failed,
		Notes:    d.Notes,
	}
	for _, t := range d.Tables {
		jd.Tables = append(jd.Tables, &jsonTable{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	for _, s := range d.Series {
		js := &jsonSeries{Title: s.Title, XLabel: s.XLabel, YLabel: s.YLabel, X: s.X}
		for _, name := range s.Order {
			line := &jsonLine{Name: name, Values: make([]*float64, len(s.X))}
			for i := range s.X {
				line.Values[i] = encodeFloat(s.Get(name, i))
			}
			js.Lines = append(js.Lines, line)
		}
		jd.Series = append(jd.Series, js)
	}
	for _, m := range d.Metrics {
		jd.Metrics = append(jd.Metrics, jsonMetric{Name: m.Name, Unit: m.Unit, Value: encodeFloat(m.Value)})
	}
	return jd
}

// fromJSONDocument converts a decoded document, refusing the null entries
// encoding/json leaves as nil pointers.
func fromJSONDocument(jd *jsonDocument) (*Document, error) {
	if jd == nil {
		return nil, errors.New("null document")
	}
	if slices.Contains(jd.Results, nil) {
		return nil, errors.New("null result")
	}
	d := &Document{
		ID:       jd.ID,
		Title:    jd.Title,
		Results:  jd.Results,
		Excluded: jd.Excluded,
		Failed:   jd.Failed,
		Notes:    jd.Notes,
	}
	for _, t := range jd.Tables {
		if t == nil {
			return nil, errors.New("null table")
		}
		d.Tables = append(d.Tables, &Table{Title: t.Title, Columns: t.Columns, Rows: t.Rows})
	}
	for _, js := range jd.Series {
		if js == nil {
			return nil, errors.New("null series")
		}
		s := NewSeries(js.Title, js.XLabel, js.YLabel, js.X)
		for _, line := range js.Lines {
			if line == nil {
				return nil, errors.New("null line")
			}
			// EncodeJSON writes one value per x label; a line with any other
			// count is refused, so that a small file cannot decode into a
			// document of x labels times lines.
			if len(line.Values) != len(js.X) {
				return nil, fmt.Errorf("series %q, line %q: %d values for %d x labels", js.Title, line.Name, len(line.Values), len(js.X))
			}
			for i, v := range line.Values {
				s.Set(line.Name, i, decodeFloat(v))
			}
			// A line of pure gaps still has to exist with its name in order.
			if len(js.X) == 0 {
				s.Set(line.Name, -1, math.NaN())
			}
		}
		d.Series = append(d.Series, s)
	}
	for _, m := range jd.Metrics {
		d.Metrics = append(d.Metrics, Metric{Name: m.Name, Unit: m.Unit, Value: decodeFloat(m.Value)})
	}
	return d, nil
}

// EncodeJSON serialises documents under the versioned results schema. The
// output is deterministic: map-free structures, indented, trailing newline.
func EncodeJSON(docs []*Document) ([]byte, error) {
	return (&jsonEnvelope{}).encode(docs)
}

// encode fills the envelope's version and documents and serialises it.
func (env *jsonEnvelope) encode(docs []*Document) ([]byte, error) {
	env.SchemaVersion = SchemaVersion
	for _, d := range docs {
		env.Documents = append(env.Documents, toJSONDocument(d))
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("report: encoding results: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeJSON parses a results file produced by EncodeJSON, rejecting schema
// versions this build does not read.
func DecodeJSON(data []byte) ([]*Document, error) {
	_, docs, err := decodeEnvelope(data)
	return docs, err
}

// decodeEnvelope parses a results envelope and its documents: the one
// version check of DecodeJSON and DecodeWire.
func decodeEnvelope(data []byte) (*jsonEnvelope, []*Document, error) {
	var env jsonEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, nil, fmt.Errorf("report: decoding results: %w", err)
	}
	if env.SchemaVersion < oldestSchemaVersion || env.SchemaVersion > SchemaVersion {
		return nil, nil, fmt.Errorf("report: results schema version %d not supported (this build reads versions %d to %d)",
			env.SchemaVersion, oldestSchemaVersion, SchemaVersion)
	}
	var docs []*Document
	for i, jd := range env.Documents {
		d, err := fromJSONDocument(jd)
		if err != nil {
			return nil, nil, fmt.Errorf("report: decoding results: document %d: %w", i, err)
		}
		docs = append(docs, d)
	}
	return &env, docs, nil
}
