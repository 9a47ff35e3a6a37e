// Package report renders experiment results as text tables, simple ASCII
// charts, CSV, markdown and versioned JSON (see json.go), for the CLI harness
// and EXPERIMENTS.md. Missing data — excluded benchmark/API cells, datasets
// that did not fit — is represented explicitly as NaN and rendered as "-",
// never as a fake measured zero.
package report

import (
	"encoding/csv"
	"fmt"
	"math"
	"strings"

	"vcomputebench/internal/core"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
			} else {
				fmt.Fprintf(&b, "%s  ", c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values: fields containing
// commas, quotes or newlines are quoted/escaped by encoding/csv, so a cell
// like "CPU Memory=16 GB, GPU Memory=4096 MB" stays one field instead of
// shifting every column after it.
func (t *Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	// Write errors cannot occur on a strings.Builder; Flush+Error would still
	// surface a malformed-field panic path, checked below for robustness.
	_ = w.Write(t.Columns)
	for _, row := range t.Rows {
		_ = w.Write(row)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		// Unreachable with an in-memory writer; keep the failure loud.
		panic(fmt.Sprintf("report: CSV encoding failed: %v", err))
	}
	return b.String()
}

// escapeMarkdown makes a cell safe inside a GitHub-flavoured markdown table:
// pipes would otherwise terminate the cell and shift every column after it.
func escapeMarkdown(cell string) string {
	cell = strings.ReplaceAll(cell, "|", `\|`)
	return strings.ReplaceAll(cell, "\n", " ")
}

func markdownRow(cells []string) string {
	escaped := make([]string, len(cells))
	for i, c := range cells {
		escaped[i] = escapeMarkdown(c)
	}
	return "| " + strings.Join(escaped, " | ") + " |\n"
}

// Markdown renders the table as a GitHub-flavoured markdown table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString(markdownRow(t.Columns))
	seps := make([]string, len(t.Columns))
	for i := range seps {
		seps[i] = "---"
	}
	b.WriteString(markdownRow(seps))
	for _, row := range t.Rows {
		b.WriteString(markdownRow(row))
	}
	return b.String()
}

// Series is a set of named lines over a shared categorical x axis (e.g.
// bandwidth vs stride per API, or speedup per benchmark/workload per API).
// Cells that were never set, or were set to NaN, are gaps: the paper's
// excluded benchmark/API combinations. Gaps render as "-" and serialise as
// JSON null, so they can never be mistaken for a measured zero.
type Series struct {
	Title  string
	XLabel string
	YLabel string
	X      []string
	Order  []string
	Lines  map[string][]float64
}

// NewSeries creates an empty series over the given x values.
func NewSeries(title, xLabel, yLabel string, x []string) *Series {
	return &Series{Title: title, XLabel: xLabel, YLabel: yLabel, X: x, Lines: map[string][]float64{}}
}

// Set stores the y value of a line at x index i. Passing math.NaN() records
// an explicit gap. A line's unset cells are gaps too: new lines start as all
// NaN, not all zero.
func (s *Series) Set(line string, i int, y float64) {
	if _, ok := s.Lines[line]; !ok {
		ys := make([]float64, len(s.X))
		for j := range ys {
			ys[j] = math.NaN()
		}
		s.Lines[line] = ys
		s.Order = append(s.Order, line)
	}
	if i >= 0 && i < len(s.X) {
		s.Lines[line][i] = y
	}
}

// Get returns the y value of a line at x index i; gaps are NaN.
func (s *Series) Get(line string, i int) float64 {
	ys, ok := s.Lines[line]
	if !ok || i < 0 || i >= len(ys) {
		return math.NaN()
	}
	return ys[i]
}

// formatCell renders one series value: gaps become "-".
func formatCell(y float64) string {
	if math.IsNaN(y) {
		return "-"
	}
	return fmt.Sprintf("%.3f", y)
}

// Table converts the series to a table with one row per x value.
func (s *Series) Table() *Table {
	cols := append([]string{s.XLabel}, s.Order...)
	t := &Table{Title: s.Title, Columns: cols}
	for i, x := range s.X {
		row := []string{x}
		for _, name := range s.Order {
			row = append(row, formatCell(s.Lines[name][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// Chart renders a crude ASCII bar chart: one group of bars per x value. Gap
// cells draw no bar and are labelled "-".
func (s *Series) Chart(width int) string {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	//lint:allow(a running maximum is order-independent; no accumulation, so iteration order cannot reach output)
	for _, ys := range s.Lines {
		for _, y := range ys {
			if y > max { // NaN compares false: gaps never set the scale
				max = y
			}
		}
	}
	if max <= 0 {
		max = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s, max %.2f)\n", s.Title, s.YLabel, max)
	for i, x := range s.X {
		fmt.Fprintf(&b, "%s\n", x)
		for _, name := range s.Order {
			y := s.Lines[name][i]
			n := 0
			if !math.IsNaN(y) {
				n = int(y / max * float64(width))
				if n < 0 {
					n = 0
				}
			}
			fmt.Fprintf(&b, "  %-8s %-*s %s\n", name, width, strings.Repeat("#", n), formatCell(y))
		}
	}
	return b.String()
}

// Metric is one scalar headline value of an experiment — an achieved
// bandwidth, a geometric-mean speedup — identified by a stable name so the
// fidelity checker (internal/expected) and baseline diffs can find it across
// runs and schema versions.
type Metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit,omitempty"`
	Value float64 `json:"value"`
}

// Canonical metric names shared between the experiments that emit them and
// the expected-values tables that check them.
const MetricPeakBandwidth = "peak-bandwidth"

// MetricAchievedBandwidth names the best achieved bandwidth of one API
// (the stride-1 plateau of Figures 1 and 3).
func MetricAchievedBandwidth(api string) string {
	return "achieved-bandwidth/" + api
}

// MetricGeomeanSpeedup names the geometric-mean speedup of one API over a
// baseline API within a speedup figure.
func MetricGeomeanSpeedup(api, baseline string) string {
	return "geomean-speedup/" + api + "-vs-" + baseline
}

// MetricPlatformGeomean names a headline per-platform geomean in the summary
// experiment.
func MetricPlatformGeomean(platformID, api, baseline string) string {
	return "geomean-speedup/" + platformID + "/" + api + "-vs-" + baseline
}

// MetricBenchmarkSpeedup names one per-benchmark bar of a speedup figure: the
// geometric mean of the benchmark's workload speedups of api over baseline.
// These are the individual Fig. 2/4 bars, so calibration error is
// attributable to single workloads instead of only the figure geomean.
func MetricBenchmarkSpeedup(benchmark, api, baseline string) string {
	return "speedup/" + benchmark + "/" + api + "-vs-" + baseline
}

// Exclusion records a benchmark/API pair that produced no data on the
// document's platform, with the paper's reason (Table IV: driver failures,
// datasets that do not fit). Excluded cells are also NaN gaps in the series;
// this carries the why.
type Exclusion struct {
	Benchmark string `json:"benchmark"`
	API       string `json:"api"`
	Reason    string `json:"reason,omitempty"`
}

// Failure records one suite cell that produced no data because execution
// failed — a panic, an injected or real driver fault, a deadline expiry —
// as opposed to an anticipated Table IV exclusion. A document carrying
// failures is degraded: its aggregates cover only the surviving cells.
type Failure struct {
	Benchmark string `json:"benchmark"`
	Workload  string `json:"workload,omitempty"`
	API       string `json:"api"`
	Platform  string `json:"platform,omitempty"`
	// Class is the failure taxonomy bucket ("transient" or "permanent").
	Class string `json:"class"`
	// Attempts is how many executions the retry budget spent on the cell.
	Attempts int    `json:"attempts"`
	Reason   string `json:"reason,omitempty"`
}

// Document is the rendered output of one experiment.
type Document struct {
	// ID is the experiment identifier (e.g. "fig2a"), shared with the CLI,
	// the JSON artifact file names and the expected-values tables.
	ID     string
	Title  string
	Tables []*Table
	Series []*Series
	// Metrics are the document's headline scalars (see Metric).
	Metrics []Metric
	// Results are the underlying per-cell measurements, in deterministic
	// (API, cell) order: each cell's one run.
	Results []*core.Result
	// Excluded lists the benchmark/API pairs that produced no data.
	Excluded []Exclusion
	// Failed lists the cells a keep-going run lost to hard failures (an
	// additive schema field: absent on clean runs, so fault-free output holds
	// no "failed" key).
	Failed []Failure
	Notes  []string
}

// Degraded reports whether the document lost cells to execution failures.
func (d *Document) Degraded() bool { return len(d.Failed) > 0 }

// AddMetric appends a named headline scalar.
func (d *Document) AddMetric(name, unit string, value float64) {
	d.Metrics = append(d.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// Metric returns the named headline scalar, if present.
func (d *Document) Metric(name string) (float64, bool) {
	for _, m := range d.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// FormatMetric renders a metric value with its unit for text output.
func FormatMetric(m Metric) string {
	v := fmt.Sprintf("%.4g", m.Value)
	if m.Unit == "" {
		return v
	}
	if m.Unit == "x" {
		return v + "x"
	}
	return v + " " + m.Unit
}

// Render formats the whole document as text.
func (d *Document) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", d.ID, d.Title)
	for _, t := range d.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, s := range d.Series {
		b.WriteString(s.Table().Render())
		b.WriteByte('\n')
	}
	for _, m := range d.Metrics {
		fmt.Fprintf(&b, "metric: %s = %s\n", m.Name, FormatMetric(m))
	}
	for _, e := range d.Excluded {
		fmt.Fprintf(&b, "excluded: %s/%s: %s\n", e.Benchmark, e.API, e.Reason)
	}
	for _, f := range d.Failed {
		fmt.Fprintf(&b, "failed: %s\n", formatFailure(f))
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// formatFailure renders one failed cell for the text and markdown outputs.
func formatFailure(f Failure) string {
	cell := f.Benchmark
	if f.Workload != "" {
		cell += "/" + f.Workload
	}
	cell += "/" + f.API
	if f.Platform != "" {
		cell += " on " + f.Platform
	}
	return fmt.Sprintf("%s: %s after %d attempt(s): %s", cell, f.Class, f.Attempts, f.Reason)
}

// CSV renders every table and series of the document as RFC 4180 CSV blocks
// separated by blank lines. Metrics, exclusions and notes are omitted: CSV is
// the tabular interchange format; use JSON for the full document.
func (d *Document) CSV() string {
	var b strings.Builder
	for _, t := range d.Tables {
		b.WriteString(t.CSV())
		b.WriteByte('\n')
	}
	for _, s := range d.Series {
		b.WriteString(s.Table().CSV())
		b.WriteByte('\n')
	}
	return b.String()
}

// Markdown renders the whole document as GitHub-flavoured markdown, including
// metrics, exclusions and notes.
func (d *Document) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s: %s\n\n", d.ID, d.Title)
	for _, t := range d.Tables {
		b.WriteString(t.Markdown())
		b.WriteByte('\n')
	}
	for _, s := range d.Series {
		b.WriteString(s.Table().Markdown())
		b.WriteByte('\n')
	}
	for _, m := range d.Metrics {
		fmt.Fprintf(&b, "- metric `%s` = %s\n", m.Name, FormatMetric(m))
	}
	for _, e := range d.Excluded {
		fmt.Fprintf(&b, "- excluded %s/%s: %s\n", e.Benchmark, e.API, e.Reason)
	}
	for _, f := range d.Failed {
		fmt.Fprintf(&b, "- failed %s\n", formatFailure(f))
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "- note: %s\n", n)
	}
	return b.String()
}
