// Command benchjson converts `go test -bench -benchmem` output on stdin into
// a tracked JSON perf baseline. It is the backend of `make bench`:
//
//	go test -run '^$' -bench '^BenchmarkExecute' -benchmem ./internal/kernels \
//	    | go run ./cmd/benchjson -update BENCH_dispatch.json
//
// The file keeps two snapshots per benchmark: "baseline", written the first
// time a benchmark appears and preserved on later updates (the pre-optimisation
// reference), and "current", overwritten on every run. Comparing the two shows
// the dispatch engine's perf trajectory (ns/op, B/op, allocs/op) over PRs.
//
// -compare turns the tool into a regression gate: it reads an existing file
// (no stdin) and fails when any benchmark's "current" exceeds its "baseline"
// beyond the tolerances:
//
//	go run ./cmd/benchjson -compare BENCH_dispatch.json -tol-ns 0.5 -tol-allocs 0 -tol-bytes 0.1
//
// ns/op needs a generous tolerance on shared CI runners; allocs/op is
// deterministic and defaults to exact. B/op is gated only when -tol-bytes is
// given, to catch buffers copied again; pooled scratch and runtime
// bookkeeping move it by up to a few hundred bytes between runs of the same
// code, so a B/op rise under bytesSlack is never reported. A negative
// tolerance disables that dimension entirely.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Entry is one benchmark measurement.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (e.g. the serve benchmarks'
	// p50-ns/op, p99-ns/op, replays/s, shed-rate). Recorded for trend
	// visibility; -compare gates only on the standard dimensions above.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// File is the on-disk schema of BENCH_dispatch.json.
type File struct {
	// Note documents the file for readers stumbling over it in the tree.
	Note string `json:"note"`
	// Baseline holds the first recorded numbers per benchmark and is never
	// overwritten by -update (delete the file to re-baseline).
	Baseline map[string]Entry `json:"baseline"`
	// Current holds the numbers of the latest `make bench` run.
	Current map[string]Entry `json:"current"`
}

// bytesSlack is the B/op rise -compare always allows: the run-to-run noise
// of the microbenchmarks' ~1.5 KB, far below any copied buffer.
const bytesSlack = 4 << 10

const note = "Tracked perf baseline; regenerate `current` with `make bench` " +
	"(bench-dispatch for the kernels.Execute microbenchmarks, bench-suite for the " +
	"sweep/run-all wall-time benchmarks). `baseline` is the first recorded " +
	"reference and is preserved across updates."

func main() {
	update := flag.String("update", "BENCH_dispatch.json", "JSON file to create or update")
	compare := flag.String("compare", "", "compare current vs baseline in this JSON file and exit non-zero on regression (no stdin)")
	tolNs := flag.Float64("tol-ns", 0.5, "with -compare: allowed relative ns/op regression (0.5 = +50%; negative disables)")
	tolAllocs := flag.Float64("tol-allocs", 0, "with -compare: allowed relative allocs/op regression (0 = exact; negative disables)")
	tolBytes := flag.Float64("tol-bytes", -1, "with -compare: allowed relative B/op regression (negative disables)")
	flag.Parse()

	if *compare != "" {
		if err := compareFile(*compare, *tolNs, *tolAllocs, *tolBytes); err != nil {
			fatal(err)
		}
		return
	}

	entries, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(entries) == 0 {
		fatal(fmt.Errorf("no benchmark result lines on stdin"))
	}

	f := &File{Note: note, Baseline: map[string]Entry{}, Current: map[string]Entry{}}
	if raw, err := os.ReadFile(*update); err == nil {
		if err := json.Unmarshal(raw, f); err != nil {
			// A corrupt baseline must not be silently re-baselined from scratch:
			// name the file and the way back to a valid one.
			fatal(fmt.Errorf("existing %s is corrupt (%v); fix it or delete it and regenerate with `%s`", *update, err, regenHint(*update)))
		}
		f.Note = note
		if f.Baseline == nil {
			f.Baseline = map[string]Entry{}
		}
	}
	f.Current = entries
	for name, e := range entries {
		if _, ok := f.Baseline[name]; !ok {
			f.Baseline[name] = e
		}
	}

	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*update, append(out, '\n'), 0o644); err != nil {
		fatal(err)
	}
	for _, name := range sortedNames(entries) {
		cur, base := f.Current[name], f.Baseline[name]
		fmt.Printf("%-36s %12.0f ns/op %10.0f B/op %8.0f allocs/op (baseline %8.0f allocs/op)\n",
			name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp, base.AllocsPerOp)
	}
	fmt.Printf("wrote %s\n", *update)
}

// compareFile fails when any benchmark present in both sections regresses
// `current` beyond the tolerated fraction of `baseline`. Benchmarks that
// exist in only one section (freshly added or retired) are skipped:
// comparing them would gate on missing data.
func compareFile(path string, tolNs, tolAllocs, tolBytes float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("baseline %s does not exist; generate it with `%s`", path, regenHint(path))
		}
		return fmt.Errorf("reading baseline %s: %w", path, err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("baseline %s is corrupt (%v); delete it and regenerate with `%s`", path, err, regenHint(path))
	}
	regressions := 0
	compared := 0
	check := func(name, metric string, base, cur, tol, slack float64) {
		// A zero baseline is a legitimate target (e.g. an allocation-free hot
		// path): its limit is simply 0, and any positive current regresses it.
		if tol < 0 || base < 0 {
			return
		}
		limit := max(base*(1+tol), base+slack)
		if cur > limit {
			fmt.Printf("FAIL %-40s %s %12.0f > %12.0f (baseline %12.0f, tol +%.0f%%)\n",
				name, metric, cur, limit, base, tol*100)
			regressions++
			return
		}
		fmt.Printf("ok   %-40s %s %12.0f <= %12.0f (baseline %12.0f)\n", name, metric, cur, limit, base)
	}
	for _, name := range sortedNames(f.Current) {
		base, ok := f.Baseline[name]
		if !ok {
			continue
		}
		cur := f.Current[name]
		compared++
		check(name, "ns/op    ", base.NsPerOp, cur.NsPerOp, tolNs, 0)
		check(name, "allocs/op", base.AllocsPerOp, cur.AllocsPerOp, tolAllocs, 0)
		check(name, "B/op     ", base.BytesPerOp, cur.BytesPerOp, tolBytes, bytesSlack)
	}
	if compared == 0 {
		return fmt.Errorf("%s has no benchmark present in both baseline and current", path)
	}
	if regressions > 0 {
		return fmt.Errorf("%d perf regression(s) vs baseline in %s", regressions, path)
	}
	fmt.Printf("%s: %d benchmarks within tolerance of baseline\n", path, compared)
	return nil
}

// parseBench extracts benchmark lines of the form
//
//	BenchmarkName-8  100  12345 ns/op  678 B/op  9 allocs/op
//
// from go test output. The -GOMAXPROCS suffix is stripped so results from
// different machines land on the same key.
func parseBench(src *os.File) (map[string]Entry, error) {
	entries := map[string]Entry{}
	sc := bufio.NewScanner(src)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		var e Entry
		seen := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp, seen = v, true
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			default:
				if e.Extra == nil {
					e.Extra = map[string]float64{}
				}
				e.Extra[unit] = v
			}
		}
		if seen {
			entries[name] = e
		}
	}
	return entries, sc.Err()
}

// regenHint names the make target that rebuilds the given tracked baseline,
// so error messages tell the user the exact way back to a valid file.
func regenHint(path string) string {
	switch filepath.Base(path) {
	case "BENCH_dispatch.json":
		return "make bench-dispatch"
	case "BENCH_suite.json":
		return "make bench-suite"
	case "BENCH_serve.json":
		return "make bench-serve"
	case "BENCH_replay.json":
		return "make bench-replay"
	default:
		return "make bench"
	}
}

func sortedNames(m map[string]Entry) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
