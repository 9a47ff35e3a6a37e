// Package experiments defines one runnable experiment per table and figure of
// the paper, plus the headline geometric-mean summary and two ablations of the
// Vulkan-specific optimisations recommended in §VI-B. The cmd/vcbench harness
// and the root bench_test.go drive these experiments.
package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	"vcomputebench/internal/rodinia/suite"
	"vcomputebench/internal/stats"
)

// Options configures an experiment run.
type Options struct {
	// Deprecated: ignored: a cell runs once and reports that run; removed
	// once perfbench stops setting it.
	Repetitions int
	// Parallelism bounds the suite scheduler's worker pool: 0 means
	// runtime.NumCPU(), 1 forces serial execution. Output is identical
	// either way.
	Parallelism int
	// DispatchParallelism caps each simulated dispatch's worker goroutines.
	// 0 applies the core-budgeting rule (suite pool and dispatch pools share
	// runtime.NumCPU()); output is identical for any value.
	DispatchParallelism int
	// Seed for input generation.
	Seed int64
	// Cache, when non-nil, is the shared snapshot store: cells already
	// executed (by any experiment using the same store) are replayed
	// analytically instead of re-executed. Output is byte-identical with or
	// without it; `-run all` shares one store across experiments so figures
	// that overlap in (platform, benchmark, workload, API) cells execute each
	// cell once, and the calibration sweep scores every candidate profile by
	// replaying the single execution of its platform's suite. With a
	// persistent tier (core.TieredStore over a core.DiskStore) cells executed
	// by earlier processes replay too, making warm runs pure replay.
	Cache core.SnapshotStore
	// Context, when non-nil, bounds the run: cancellation stops suite
	// scheduling and surfaces as the experiment's error.
	Context context.Context
	// Faults, when non-nil, injects deterministic faults at the execute seam
	// (see internal/faults and the core.Runner field of the same name).
	Faults core.FaultPlanner
	// CellTimeout, Retries and RetryBackoff configure the runner's per-cell
	// deadline and transient-failure retry policy.
	CellTimeout  time.Duration
	Retries      int
	RetryBackoff time.Duration
	// KeepGoing degrades failed cells into structured Document.Failed entries
	// instead of aborting the experiment.
	KeepGoing bool
}

// defaults fills in zero fields.
func (o Options) defaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Runner builds the core runner these options describe. It is the single
// Options -> Runner translation, shared with cmd/vcbench.
func (o Options) Runner() *core.Runner {
	return &core.Runner{
		Parallelism:         o.Parallelism,
		DispatchParallelism: o.DispatchParallelism,
		Seed:                o.Seed,
		Cache:               o.Cache,
		Context:             o.Context,
		Faults:              o.Faults,
		CellTimeout:         o.CellTimeout,
		Retries:             o.Retries,
		RetryBackoff:        o.RetryBackoff,
		KeepGoing:           o.KeepGoing,
	}
}

// Experiment is one reproducible artefact of the paper.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Options) (*report.Document, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: VComputeBench benchmarks", Description: "Benchmark list with dwarf and domain", Run: runTable1},
		{ID: "table2", Title: "Table II: Desktop GPUs experimental setup", Description: "Desktop platform configuration", Run: runTable2},
		{ID: "table3", Title: "Table III: Mobile GPUs experimental setup", Description: "Mobile platform configuration", Run: runTable3},
		{ID: "fig1a", Title: "Fig. 1a: Bandwidth vs stride on GTX 1050 Ti", Description: "Vulkan vs CUDA strided bandwidth", Run: figBandwidth("fig1a", platforms.IDGTX1050Ti, []hw.API{hw.APIVulkan, hw.APICUDA})},
		{ID: "fig1b", Title: "Fig. 1b: Bandwidth vs stride on RX 560", Description: "Vulkan vs OpenCL strided bandwidth", Run: figBandwidth("fig1b", platforms.IDRX560, []hw.API{hw.APIVulkan, hw.APIOpenCL})},
		{ID: "fig2a", Title: "Fig. 2a: Rodinia speedups on GTX 1050 Ti", Description: "OpenCL/Vulkan/CUDA speedups vs OpenCL", Run: figSpeedups("fig2a", platforms.IDGTX1050Ti, []hw.API{hw.APIOpenCL, hw.APIVulkan, hw.APICUDA})},
		{ID: "fig2b", Title: "Fig. 2b: Rodinia speedups on RX 560", Description: "OpenCL/Vulkan speedups vs OpenCL", Run: figSpeedups("fig2b", platforms.IDRX560, []hw.API{hw.APIOpenCL, hw.APIVulkan})},
		{ID: "fig3a", Title: "Fig. 3a: Bandwidth vs stride on Nexus Player", Description: "Vulkan vs OpenCL mobile bandwidth", Run: figBandwidth("fig3a", platforms.IDNexus, []hw.API{hw.APIVulkan, hw.APIOpenCL})},
		{ID: "fig3b", Title: "Fig. 3b: Bandwidth vs stride on Snapdragon 625", Description: "Vulkan vs OpenCL mobile bandwidth", Run: figBandwidth("fig3b", platforms.IDSnapdragon, []hw.API{hw.APIVulkan, hw.APIOpenCL})},
		{ID: "fig4a", Title: "Fig. 4a: Mobile speedups on Nexus (PowerVR G6430)", Description: "Vulkan speedup vs OpenCL", Run: figSpeedups("fig4a", platforms.IDNexus, []hw.API{hw.APIOpenCL, hw.APIVulkan})},
		{ID: "fig4b", Title: "Fig. 4b: Mobile speedups on Snapdragon (Adreno 506)", Description: "Vulkan speedup vs OpenCL", Run: figSpeedups("fig4b", platforms.IDSnapdragon, []hw.API{hw.APIOpenCL, hw.APIVulkan})},
		{ID: "summary", Title: "Headline geometric-mean speedups", Description: "Geomean Vulkan speedups per platform (paper: 1.53x vs CUDA, 1.26-1.66x vs OpenCL desktop, 1.59x Nexus, 0.83x Snapdragon)", Run: runSummary},
		{ID: "ablation-cmdbuf", Title: "Ablation: single command buffer vs per-iteration submits", Description: "Quantifies the Vulkan optimisation of §IV-C / §VI-B", Run: runAblationCmdBuf},
		{ID: "ablation-push", Title: "Ablation: push constants vs parameter buffer binds", Description: "Quantifies the Snapdragon push-constant driver quirk of §V-B1", Run: runAblationPush},
		{ID: "extensions", Title: "Extension workloads beyond the paper's suite", Description: "Speedup and bandwidth documents for registry extensions (not part of the paper's figures)", Run: runExtensions},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs returns the experiment identifiers in order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

func runTable1(opts Options) (*report.Document, error) {
	t := &report.Table{Title: "Table I: VComputeBench benchmarks", Columns: []string{"Name", "Application", "Dwarf", "Domain"}}
	for _, name := range core.FamilyNames(core.FamilyRodinia) {
		d, err := core.Describe(name)
		if err != nil {
			return nil, err
		}
		t.AddRow(d.Name, d.Application, d.Dwarf, d.Domain)
	}
	return &report.Document{ID: "table1", Title: t.Title, Tables: []*report.Table{t}}, nil
}

func platformTable(title string, ps []*platforms.Platform, apis []hw.API) *report.Table {
	cols := []string{"Property"}
	for _, p := range ps {
		cols = append(cols, p.Profile.Name)
	}
	t := &report.Table{Title: title, Columns: cols}
	row := func(name string, get func(*platforms.Platform) string) {
		cells := []string{name}
		for _, p := range ps {
			cells = append(cells, get(p))
		}
		t.AddRow(cells...)
	}
	row("Operating System", func(p *platforms.Platform) string { return p.Profile.OS })
	row("CPU", func(p *platforms.Platform) string { return p.Profile.CPU })
	row("GPU", func(p *platforms.Platform) string { return p.Profile.Architecture })
	row("Memory", func(p *platforms.Platform) string {
		return fmt.Sprintf("CPU Memory=%d GB, GPU Memory=%d MB", p.Profile.HostMemGB, p.Profile.DeviceMemBytes>>20)
	})
	row("Driver", func(p *platforms.Platform) string { return p.Profile.DriverName })
	for _, api := range apis {
		api := api
		row(api.String(), func(p *platforms.Platform) string {
			drv, ok := p.Profile.Driver(api)
			if !ok {
				return "-"
			}
			return drv.Version
		})
	}
	return t
}

func runTable2(opts Options) (*report.Document, error) {
	t := platformTable("Table II: Desktop GPUs experimental setup", platforms.Desktop(),
		[]hw.API{hw.APIOpenCL, hw.APICUDA, hw.APIVulkan})
	return &report.Document{ID: "table2", Title: t.Title, Tables: []*report.Table{t}}, nil
}

func runTable3(opts Options) (*report.Document, error) {
	t := platformTable("Table III: Mobile GPUs experimental setup", platforms.Mobile(),
		[]hw.API{hw.APIOpenCL, hw.APIVulkan})
	return &report.Document{ID: "table3", Title: t.Title, Tables: []*report.Table{t}}, nil
}

// figBandwidth builds the bandwidth-vs-stride experiment for one platform.
func figBandwidth(id, platformID string, apis []hw.API) func(Options) (*report.Document, error) {
	return func(opts Options) (*report.Document, error) {
		p, err := platforms.ByID(platformID)
		if err != nil {
			return nil, err
		}
		return BandwidthDocument(id, p, apis, opts)
	}
}

// BandwidthDocument runs the bandwidth-vs-stride figure against an explicit
// platform instance instead of a registered platform ID; the calibration
// sweep uses it to guard the pinned Fig. 1/3 plateaus while candidate driver
// profiles are evaluated.
func BandwidthDocument(id string, p *platforms.Platform, apis []hw.API, opts Options) (*report.Document, error) {
	opts = opts.defaults()
	b, err := core.Get("membandwidth")
	if err != nil {
		return nil, err
	}
	workloads := b.Workloads(p.Profile.Class)
	x := make([]string, len(workloads))
	for i, w := range workloads {
		x[i] = w.Label
	}
	series := report.NewSeries(
		fmt.Sprintf("Memory bandwidth vs stride on %s", p.Profile.Name),
		"stride (4-byte elements)", "GB/s", x)
	runner := opts.Runner()
	suiteRes, err := runner.RunSuite(p, []core.Benchmark{b}, apis)
	if err != nil {
		return nil, err
	}
	doc := &report.Document{ID: id, Title: series.Title, Series: []*report.Series{series}}
	doc.AddMetric(report.MetricPeakBandwidth, "GB/s", p.Profile.PeakBandwidthGBps)
	for _, api := range apis {
		var apiResults []*core.Result
		for i, w := range workloads {
			res, ok := suiteRes.Lookup(b.Name(), w.Label, api)
			if !ok {
				if suiteFailed(suiteRes, b.Name(), w.Label, api) {
					series.Set(api.String(), i, math.NaN())
					continue
				}
				return nil, missingResultError(suiteRes, b.Name(), w.Label, api)
			}
			series.Set(api.String(), i, res.ExtraValue(core.ExtraBandwidthGBps))
			apiResults = append(apiResults, res)
		}
		// The stride-1 plateau is the paper's "achieved bandwidth".
		doc.AddMetric(report.MetricAchievedBandwidth(api.String()), "GB/s", series.Get(api.String(), 0))
		doc.Results = append(doc.Results, apiResults...)
	}
	doc.Notes = append(doc.Notes,
		fmt.Sprintf("theoretical peak bandwidth: %.1f GB/s", p.Profile.PeakBandwidthGBps))
	addFailures(doc, suiteRes, p.ID)
	return doc, nil
}

// addFailures copies a keep-going suite run's failed cells into the document
// and flags the document degraded: aggregates computed from the surviving
// cells no longer summarise the full grid. Clean runs append nothing, so
// fault-free output stays byte-identical to the pre-fault-model goldens.
func addFailures(doc *report.Document, s *core.SuiteResult, platform string) {
	if len(s.Failed) == 0 {
		return
	}
	for _, f := range s.Failed {
		doc.Failed = append(doc.Failed, report.Failure{
			Benchmark: f.Benchmark,
			Workload:  f.Workload,
			API:       f.API.String(),
			Platform:  platform,
			Class:     string(f.Class),
			Attempts:  f.Attempts,
			Reason:    f.Reason,
		})
	}
	doc.Notes = append(doc.Notes, fmt.Sprintf(
		"degraded: %d cell(s) failed on %s; geomeans and aggregates cover surviving cells only",
		len(s.Failed), platform))
}

// suiteFailed reports whether a keep-going run recorded a failure for the
// given cell, distinguishing a degraded gap (plot as NaN) from a genuinely
// missing result (a bug worth surfacing).
func suiteFailed(s *core.SuiteResult, bench, workload string, api hw.API) bool {
	for _, f := range s.Failed {
		if f.Benchmark == bench && f.Workload == workload && f.API == api {
			return true
		}
	}
	return false
}

// missingResultError surfaces the exclusion that explains an absent suite
// cell, falling back to a generic error when no exclusion matches.
func missingResultError(s *core.SuiteResult, bench, workload string, api hw.API) error {
	for i := range s.Skipped {
		if s.Skipped[i].Benchmark == bench && s.Skipped[i].API == api {
			e := s.Skipped[i]
			return &e
		}
	}
	return fmt.Errorf("experiments: missing result for %s/%s (%s)", bench, api, workload)
}

// figSpeedups builds the Rodinia speedup experiment for one platform. The
// first API in apis is the baseline (OpenCL in the paper). Cells the platform
// excludes (Table IV) are explicit gaps, never a measured-looking 0.
func figSpeedups(id, platformID string, apis []hw.API) func(Options) (*report.Document, error) {
	return func(opts Options) (*report.Document, error) {
		p, err := platforms.ByID(platformID)
		if err != nil {
			return nil, err
		}
		return SpeedupDocument(id, p, apis, opts)
	}
}

// SpeedupDocument runs the Rodinia speedup figure against an explicit
// platform instance instead of a registered platform ID. The calibration
// sweep uses it to evaluate candidate driver profiles without mutating the
// canonical platforms.
func SpeedupDocument(id string, p *platforms.Platform, apis []hw.API, opts Options) (*report.Document, error) {
	benchmarks, err := suite.Rodinia()
	if err != nil {
		return nil, err
	}
	return speedupDocument(id, p, benchmarks, apis, opts)
}

// speedupDocument renders a speedup figure over any benchmark list; Figures 2
// and 4 pass the Rodinia suite and the extensions experiment passes the
// extension family, so both share one reporting pipeline.
func speedupDocument(id string, p *platforms.Platform, benchmarks []core.Benchmark, apis []hw.API, opts Options) (*report.Document, error) {
	opts = opts.defaults()
	ordered, unranked := orderBenchmarks(benchmarks)
	runner := opts.Runner()
	suiteRes, err := runner.RunSuite(p, ordered, apis)
	if err != nil {
		return nil, err
	}
	baseline := apis[0]

	var x []string
	type cell struct{ bench, workload string }
	var cells []cell
	for _, b := range ordered {
		for _, w := range b.Workloads(p.Profile.Class) {
			x = append(x, b.Name()+"/"+w.Label)
			cells = append(cells, cell{b.Name(), w.Label})
		}
	}
	series := report.NewSeries(
		fmt.Sprintf("Speedup vs %s on %s (kernel times)", baseline.String(), p.Profile.Name),
		"benchmark/workload", "speedup", x)
	doc := &report.Document{ID: id, Title: series.Title, Series: []*report.Series{series}}
	for _, api := range apis {
		var apiResults []*core.Result
		for i, c := range cells {
			if sp, ok := suiteRes.Speedup(c.bench, c.workload, api, baseline); ok {
				series.Set(api.String(), i, sp)
			} else {
				series.Set(api.String(), i, math.NaN())
			}
			if res, ok := suiteRes.Lookup(c.bench, c.workload, api); ok {
				apiResults = append(apiResults, res)
			}
		}
		doc.Results = append(doc.Results, apiResults...)
	}
	for _, api := range apis[1:] {
		if g, err := suiteRes.GeoMeanSpeedup(api, baseline); err == nil {
			doc.AddMetric(report.MetricGeomeanSpeedup(api.String(), baseline.String()), "x", g)
		}
	}
	// Vulkan's geomean against the non-baseline APIs (vs CUDA on the NVIDIA
	// card): the paper quotes it as a headline number, and the calibration
	// subsystem reads every desktop target off this one document.
	for _, against := range apis[1:] {
		if against == hw.APIVulkan {
			continue
		}
		if g, err := suiteRes.GeoMeanSpeedup(hw.APIVulkan, against); err == nil {
			doc.AddMetric(report.MetricGeomeanSpeedup(hw.APIVulkan.String(), against.String()), "x", g)
		}
	}
	// Per-benchmark bars: Vulkan against every other API present (the
	// paper's Fig. 2 shows Vulkan vs OpenCL and, on NVIDIA, vs CUDA), so
	// calibration error is attributable to individual workloads.
	for _, against := range apis {
		if against == hw.APIVulkan {
			continue
		}
		for _, b := range ordered {
			if g, ok := benchmarkSpeedup(suiteRes, b, p.Profile.Class, hw.APIVulkan, against); ok {
				doc.AddMetric(report.MetricBenchmarkSpeedup(b.Name(), hw.APIVulkan.String(), against.String()), "x", g)
			}
		}
	}
	for _, skip := range suiteRes.Skipped {
		doc.Excluded = append(doc.Excluded, report.Exclusion{
			Benchmark: skip.Benchmark, API: skip.API.String(), Reason: skip.Reason,
		})
	}
	addFailures(doc, suiteRes, p.ID)
	for _, name := range unranked {
		doc.Notes = append(doc.Notes,
			fmt.Sprintf("benchmark %s is not in the paper's figure order; plotted after the ranked benchmarks", name))
	}
	return doc, nil
}

// benchmarkSpeedup computes one Fig. 2/4 bar: the geometric mean of the
// benchmark's per-workload speedups of api over baseline. Excluded benchmarks
// (Table IV) yield no bar rather than a fake value.
func benchmarkSpeedup(s *core.SuiteResult, b core.Benchmark, class hw.Class, api, baseline hw.API) (float64, bool) {
	var xs []float64
	for _, w := range b.Workloads(class) {
		if sp, ok := s.Speedup(b.Name(), w.Label, api, baseline); ok && sp > 0 {
			xs = append(xs, sp)
		}
	}
	if len(xs) == 0 {
		return 0, false
	}
	g, err := stats.GeoMean(xs)
	if err != nil {
		return 0, false
	}
	return g, true
}

// orderBenchmarks sorts benchmarks into figure x-axis order by descriptor
// rank. Benchmarks without a registered descriptor sort after every ranked
// one — a zero rank would collide with the real first benchmark and shuffle
// it out of position — and are reported so the omission is visible in the
// output.
func orderBenchmarks(bs []core.Benchmark) (ordered []core.Benchmark, unranked []string) {
	pos := func(b core.Benchmark) int {
		if d, err := core.Describe(b.Name()); err == nil {
			return d.Rank
		}
		return math.MaxInt // unregistered: after every ranked benchmark, stable among themselves
	}
	ordered = append([]core.Benchmark(nil), bs...)
	sort.SliceStable(ordered, func(i, j int) bool { return pos(ordered[i]) < pos(ordered[j]) })
	for _, b := range ordered {
		if _, err := core.Describe(b.Name()); err != nil {
			unranked = append(unranked, b.Name())
		}
	}
	return ordered, unranked
}

// runExtensions renders every extension-family workload — the registry beyond
// the paper's Table I suite — as a speedup figure plus an analytic-bandwidth
// table on the desktop reference platform. It reuses the Figure 2/4 reporting
// pipeline, so a new extension only has to register a descriptor to appear
// here; it carries no paper expectations, and the fidelity checks and the
// calibration objective ignore it.
func runExtensions(opts Options) (*report.Document, error) {
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		return nil, err
	}
	benchmarks, err := suite.Extensions()
	if err != nil {
		return nil, err
	}
	doc, err := speedupDocument("extensions", p, benchmarks,
		[]hw.API{hw.APIOpenCL, hw.APIVulkan, hw.APICUDA}, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Analytic bandwidth (traffic-model bytes / kernel time)",
		Columns: []string{"Benchmark", "Workload", "API", "GB/s"},
	}
	for _, res := range doc.Results {
		if bw := res.ExtraValue(core.ExtraBandwidthGBps); bw > 0 {
			t.AddRow(res.Benchmark, res.Workload, res.API.String(), fmt.Sprintf("%.2f", bw))
		}
	}
	doc.Tables = append(doc.Tables, t)
	doc.Notes = append(doc.Notes,
		"extension family: not part of the paper's figures or the calibration objective")
	return doc, nil
}

// runSummary reproduces the headline geometric means quoted in the abstract
// and §VII.
func runSummary(opts Options) (*report.Document, error) {
	opts = opts.defaults()
	runner := opts.Runner()
	benchmarks, err := suite.Rodinia()
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:   "Headline geometric-mean Vulkan speedups",
		Columns: []string{"Platform", "Baseline", "Measured", "Paper"},
	}
	doc := &report.Document{ID: "summary", Title: t.Title, Tables: []*report.Table{t}}
	add := func(platformID string, apis []hw.API, baseline hw.API, paper string) error {
		p, err := platforms.ByID(platformID)
		if err != nil {
			return err
		}
		suiteRes, err := runner.RunSuite(p, benchmarks, apis)
		if err != nil {
			return err
		}
		addFailures(doc, suiteRes, platformID)
		g, err := suiteRes.GeoMeanSpeedup(hw.APIVulkan, baseline)
		if err != nil {
			// A degraded keep-going run can lose a whole baseline: keep the
			// row (the document already records why) instead of aborting.
			if len(suiteRes.Failed) > 0 {
				t.AddRow(p.Profile.Name, baseline.String(), "n/a (degraded)", paper)
				return nil
			}
			return err
		}
		t.AddRow(p.Profile.Name, baseline.String(), fmt.Sprintf("%.2fx", g), paper)
		doc.AddMetric(report.MetricPlatformGeomean(platformID, hw.APIVulkan.String(), baseline.String()), "x", g)
		return nil
	}
	if err := add(platforms.IDGTX1050Ti, []hw.API{hw.APICUDA, hw.APIVulkan}, hw.APICUDA, "1.53x"); err != nil {
		return nil, err
	}
	if err := add(platforms.IDGTX1050Ti, []hw.API{hw.APIOpenCL, hw.APIVulkan}, hw.APIOpenCL, "1.66x (desktop avg vs OpenCL)"); err != nil {
		return nil, err
	}
	if err := add(platforms.IDRX560, []hw.API{hw.APIOpenCL, hw.APIVulkan}, hw.APIOpenCL, "1.26x"); err != nil {
		return nil, err
	}
	if err := add(platforms.IDNexus, []hw.API{hw.APIOpenCL, hw.APIVulkan}, hw.APIOpenCL, "1.59x"); err != nil {
		return nil, err
	}
	if err := add(platforms.IDSnapdragon, []hw.API{hw.APIOpenCL, hw.APIVulkan}, hw.APIOpenCL, "0.83x"); err != nil {
		return nil, err
	}
	return doc, nil
}
