// Command perfbench is the repository's benchmark. It drives the built vcbench
// binary through one workload per run, or through all of them in turn, and
// prints every end-to-end metric (or, with -trace 1, every per-layer metric)
// by name, unit and sample count, followed by one JSON result line. run.sh
// builds both binaries first.
//
// Workloads:
//
//	cold-run-fig4b  vcbench -run fig4b -reps 1 -format json -o OUT -store EMPTY
//	cold-run-fig1a  vcbench -run fig1a -reps 1 -format json -o OUT -store EMPTY
//	warm-check-all  vcbench -check all -reps 1 -store WARM, a fresh store copy per pass
//	serve-whatif    one vcbench serve -reps 1 -store WARM per run, under a seeded closed loop
//
// WARM is the store an untimed cold -run all leaves, built once per checkout
// by the first run. End-to-end numbers come from untraced vcbench processes.
// A run with -trace 1 also re-drives the workload in-process through the same
// public entry points the CLI uses, timing the calls into each layer from
// this package.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runFunc runs one workload for a measurement time; seed draws its inputs.
type runFunc func(b *bench, seed int64, d time.Duration) (*outcome, error)

// workloads lists each workload's untraced and traced runs, in the order
// -workload all runs them.
var workloads = []struct {
	name       string
	run, trace runFunc
}{
	{"cold-run-fig4b", runCold("fig4b"), traceCold("fig4b")},
	{"cold-run-fig1a", runCold("fig1a"), traceCold("fig1a")},
	{"warm-check-all", runWarm, traceWarm},
	{"serve-whatif", runServe, traceServe},
}

func main() {
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	usage := strings.Join(known, ", ") + ", or all of them in turn"
	var (
		root     = flag.String("root", ".", "repository checkout under test")
		build    = flag.String("build", ".bench_build", "directory holding the built vcbench binary, stores and scratch files")
		workload = flag.String("workload", "", usage)
		seed     = flag.Int64("seed", 1, "seed of the serve-whatif request stream (the batch workloads' inputs are the paper's fixed grid)")
		seconds  = flag.Int("seconds", 15, "measurement time of one run; a batch pass that takes longer runs once")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 re-drives the workload in-process and reports per-layer metrics")
	)
	flag.Parse()
	var names []string
	runs := map[string]runFunc{}
	for _, w := range workloads {
		if *workload == w.name || *workload == "all" {
			names = append(names, w.name)
			runs[w.name] = w.run
			if *trace == 1 {
				runs[w.name] = w.trace
			}
		}
	}
	if len(names) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", usage)
		os.Exit(2)
	}
	b, err := newBench(*root, *build)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer b.close()
	specs, table := endToEnd, printed
	if *trace == 1 {
		specs, table = perLayer, perLayer
	}
	results := map[string]*outcome{}
	for _, name := range names {
		fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d go=%s code_version=%s\n",
			name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.Version(), b.codeVersion)
		b.speed = newSpeedometer()
		out, err := runs[name](b, *seed, time.Duration(*seconds)*time.Second)
		if err != nil {
			b.close()
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		if *trace == 0 {
			scale := b.speed.scale()
			fmt.Printf("perfbench: reference %.3f ms (median of %d), so end-to-end times below are the measured ones times %.4f\n",
				median(b.speed.samples), len(b.speed.samples), scale)
			out.normalize(scale)
		}
		out.printTable(os.Stdout, table, *trace == 0)
		results[name] = out
	}
	printResult(os.Stdout, results, specs)
}

// outcome is what one run measured and verified.
type outcome struct {
	attempted, failed int
	problems          []string
	values            map[string]value
}

// value is one metric reading with the number of samples behind it.
type value struct {
	v float64
	n int
}

func newOutcome() *outcome { return &outcome{values: map[string]value{}} }

// op counts one operation; a non-nil err fails it.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err != nil {
		o.failed++
		o.problem(err)
		return false
	}
	return true
}

// problem records a verification failure that makes the run incorrect.
func (o *outcome) problem(err error) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, err.Error())
	}
}

func (o *outcome) set(name string, v float64, n int) { o.values[name] = value{v, n} }

// normalize puts the end-to-end metrics at the reference speed (speed.go):
// times are multiplied by scale, rates divided by it, and memory kept.
func (o *outcome) normalize(scale float64) {
	for _, m := range printed {
		v := o.values[m.name]
		switch m.unit {
		case "MB":
		case "1/s":
			v.v /= scale
		default:
			v.v *= scale
		}
		o.values[m.name] = v
	}
}

// metricSpec is one reported metric. moves names the end-to-end metric and
// workload a per-layer metric should move.
type metricSpec struct {
	name, unit, moves string
}

// endToEnd lists the metrics a user of vcbench sees. The result line carries
// each of them for every workload, so none may read 0. An operation is one
// command on the batch workloads and one request on serve-whatif.
var endToEnd = []metricSpec{
	{"wall_s", "s", "batch: command spawn to exit, median; serve: one sweep of the catalog at the loop's rate"},
	{"cpu_s", "s", "batch: user+sys CPU of the command, median; serve: server CPU per sweep of the catalog"},
	{"rss_peak_mb", "MB", "peak RSS of the vcbench process: median over batch commands; the run's serve process"},
	{"setup_s", "s", "spawn to ready, median of probes spread over the run: serve to its first 200 from /readyz, batch to the exit of -run table1 over the workload's store"},
	{"rps", "1/s", "serve: verified 200 responses per second of load; batch: cells answered per second of command wall"},
	{"p50_ms", "ms", "serve: median request round trip; batch: median command wall"},
	{"cpu_us_per_req", "us", "vcbench CPU per cell answered: per verified request on serve"},
}

// tailLatency lists serve-whatif's tail percentiles, which are printed with
// the end-to-end metrics but left out of the result line. On the shared
// 2-core machine the benchmark was built on, background load from other
// tenants moved the p99 by 20 to 30% and the p99.9 by 75 to 95% between sets
// of ten runs of the same code, and spread them by up to 48% within a set,
// while the median round trip and the rate moved by at most 12%: no bound
// could tell a regression from that. A batch run holds no tail with ten
// samples beyond it, so they read 0 there.
var tailLatency = []metricSpec{
	{"p99_ms", "ms", "serve: 99th percentile request round trip; printed only"},
	{"p999_ms", "ms", "serve: 99.9th percentile request round trip; printed only"},
}

// printed is what a run without -trace 1 prints.
var printed = append(append([]metricSpec(nil), endToEnd...), tailLatency...)

// perLayer lists the layer metrics of the traced run. Counts come from the
// program's own counters (-cache-stats, /metrics) read in an untraced pass;
// times come from spans this package records around calls into each layer.
// A layer a workload never calls reads 0 with 0 samples.
var perLayer = []metricSpec{
	{"core.runner.cells_executed", "count", "every metric of the cold workloads; must be 0 on warm-check-all and serve-whatif"},
	{"core.runner.cells_replayed", "count", "wall_s on warm-check-all, rps on serve-whatif"},
	{"core.store.hit_ratio", "ratio", "wall_s on warm-check-all, rps on serve-whatif; 0 on the cold workloads"},
	{"core.runner.execute_s", "s", "wall_s, cpu_s, rss_peak_mb on the cold workloads; none on the warm workloads"},
	{"core.runner.execute_us_per_dispatch", "us", "cpu_s on the cold workloads"},
	{"sim.dispatches", "count", "cpu_s on the cold workloads"},
	{"core.store.disk.put_us", "us", "wall_s on the cold workloads"},
	{"core.store.disk.bytes", "bytes", "wall_s on the cold workloads"},
	{"core.store.disk.get_us", "us", "wall_s, cpu_s on warm-check-all; none on the cold workloads, where every disk get misses"},
	{"core.store.disk.decode_failures", "count", "must be 0; wall_s, cpu_s on warm-check-all"},
	{"core.store.mem.get_us", "us", "p50_ms on serve-whatif, wall_s on warm-check-all"},
	{"core.snapshot.replay_us", "us", "p50_ms, cpu_us_per_req on serve-whatif; wall_s on warm-check-all; none on the cold workloads"},
	{"core.snapshot.replay_p99_us", "us", "p99_ms on serve-whatif"},
	{"core.runner.cellkey_us", "us", "cpu_us_per_req, p50_ms on serve-whatif"},
	{"report.encode_wire_us", "us", "cpu_us_per_req on serve-whatif"},
	{"report.encode_json_ms", "ms", "wall_s on the cold workloads"},
	{"expected.compare_ms", "ms", "wall_s on warm-check-all"},
	{"experiments.self_ms", "ms", "wall_s on the cold workloads and warm-check-all"},
	{"codeversion.fingerprint_ms", "ms", "setup_s on every workload, wall_s on warm-check-all"},
	{"core.store.open_ms", "ms", "setup_s on every workload, wall_s on warm-check-all"},
	{"serve.handler_us", "us", "p50_ms, rps on serve-whatif"},
	{"serve.handler_self_us", "us", "p50_ms, rps on serve-whatif"},
	{"net.http_overhead_us", "us", "rps, cpu_us_per_req on serve-whatif"},
	{"serve.allocs_per_req", "count", "cpu_us_per_req, p999_ms, rss_peak_mb on serve-whatif"},
	{"serve.bytes_per_req", "bytes", "cpu_us_per_req, p999_ms, rss_peak_mb on serve-whatif"},
	{"serve.replays_total", "count", "rps on serve-whatif"},
	{"serve.executions_total", "count", "must be 0 on serve-whatif"},
	{"serve.followers_total", "count", "p99_ms on serve-whatif"},
	{"serve.breaker_trips_total", "count", "must be 0 on serve-whatif"},
	{"trace.overhead_pct", "%", "none: traced wall against untraced wall"},
	{"unexplained_pct", "%", "none: end-to-end time the layer spans, less the trace overhead, do not cover"},
}

// printTable prints every metric of specs with its unit, sample count and
// definition or the end-to-end metric it should move, then fail_ratio when
// withFails is set, and writes the run's problems to stderr.
func (o *outcome) printTable(w io.Writer, specs []metricSpec, withFails bool) {
	fmt.Fprintf(w, "%-36s %-6s %8s %14s  %s\n", "metric", "unit", "n", "value", "definition / should move")
	for _, m := range specs {
		v := o.values[m.name]
		fmt.Fprintf(w, "%-36s %-6s %8d %14.6g  %s\n", m.name, m.unit, v.n, v.v, m.moves)
	}
	if withFails {
		fmt.Fprintf(w, "%-36s %-6s %8d %14.6g  failed operations over attempted ones\n", "fail_ratio", "ratio", o.attempted, o.failRatio())
	}
	for _, p := range o.problems {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
}

func (o *outcome) failRatio() float64 {
	if o.attempted == 0 {
		return 1
	}
	return float64(o.failed) / float64(o.attempted)
}

func (o *outcome) correct() bool { return len(o.problems) == 0 && o.failed == 0 && o.attempted > 0 }

// printResult writes the JSON result as the last line of w. With one
// workload its metrics keep their names; -workload all names them
// workload/metric and sums the operations.
func printResult(w io.Writer, results map[string]*outcome, specs []metricSpec) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	correct, attempted, failed := true, 0, 0
	metrics := map[string]reading{}
	for name, o := range results {
		correct = correct && o.correct()
		attempted += o.attempted
		failed += o.failed
		for _, m := range specs {
			key := m.name
			if len(results) > 1 {
				key = name + "/" + m.name
			}
			metrics[key] = reading{o.values[m.name].v, m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		panic(err) // every value is finite: quantile and ratio helpers never return NaN
	}
	fmt.Fprintln(w, string(line))
}

// batchStats sets the end-to-end metrics of a batch run from its passes;
// cells[i] is the number of cells pass i answered. A batch workload's
// operation is one command, so the request-level metrics read the command:
// p50_ms its median wall, rps the cells it answers per second of wall and
// cpu_us_per_req its CPU per cell.
func (o *outcome) batchStats(passes []*proc, cells []float64, setup []time.Duration) {
	var wall, cpu, rss, rate, cpuPerCell, setupS []float64
	for i, p := range passes {
		wall = append(wall, p.wall.Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.rssMB)
		if cells[i] > 0 {
			rate = append(rate, cells[i]/p.wall.Seconds())
			cpuPerCell = append(cpuPerCell, float64(p.cpu.Microseconds())/cells[i])
		}
	}
	for _, d := range setup {
		setupS = append(setupS, d.Seconds())
	}
	o.set("wall_s", median(wall), len(wall))
	o.set("cpu_s", median(cpu), len(cpu))
	o.set("rss_peak_mb", median(rss), len(rss))
	o.set("setup_s", median(setupS), len(setupS))
	o.set("rps", median(rate), len(rate))
	o.set("cpu_us_per_req", median(cpuPerCell), len(cpuPerCell))
	o.set("p50_ms", 1e3*median(wall), len(wall))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// lastLine returns the last non-empty line of a command's output, for error
// messages.
func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
