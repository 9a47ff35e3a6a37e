package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/sim"
	"vcomputebench/internal/stats"
)

// ErrExcluded is wrapped by Runner errors when a platform quirk excludes the
// benchmark/API combination (the paper's driver failures and out-of-memory
// datasets).
type ExclusionError struct {
	Benchmark string
	API       hw.API
	Platform  string
	Reason    string
}

func (e *ExclusionError) Error() string {
	return fmt.Sprintf("core: %s/%s excluded on %s: %s", e.Benchmark, e.API, e.Platform, e.Reason)
}

// DefaultRepetitions is the paper's repetition count: "we execute several
// times and report the average of the obtained execution times".
const DefaultRepetitions = 3

// Runner executes benchmarks with repetitions and averages the results.
type Runner struct {
	// Repetitions is the number of measured runs to average (the paper
	// executes several times and reports the average; default
	// DefaultRepetitions).
	Repetitions int
	// Warmup is the number of extra runs executed before the measured
	// repetitions and excluded from all statistics (driver warm-up, JIT
	// caches). Default 0.
	Warmup int
	// Parallelism bounds the worker goroutines RunSuite fans the
	// (benchmark, workload, API) grid out across: 0 means runtime.NumCPU(),
	// 1 forces the serial path, higher values cap the pool size.
	Parallelism int
	// DispatchParallelism caps the worker goroutines each simulated dispatch
	// fans out across (kernels.DispatchConfig.Parallelism). 0 derives a core
	// budget: standalone Run calls use the whole machine, while RunSuite
	// divides runtime.NumCPU() by its own pool size so concurrent cells and
	// their dispatch pools do not oversubscribe the host. Dispatch counters —
	// and therefore all results — are identical for any value.
	DispatchParallelism int
	// Seed seeds input generation.
	Seed int64
	// Validate forwards the validation request to the benchmarks.
	Validate bool
	// Cache, when non-nil, decouples kernel execution from the timing model:
	// the first run of a cell executes the benchmark once, recording its
	// timing trace as a replayable Snapshot; subsequent runs of the same cell
	// — including on platform clones that differ only in DriverProfile knob
	// values, as a calibration sweep produces — replay the snapshot
	// analytically instead of re-executing workgroups. Results are
	// bit-identical either way. nil preserves the plain execution path.
	// Snapshots are only recorded from clean first attempts: a faulted or
	// retry-recovered execution is never stored. Any SnapshotStore works here:
	// the in-memory SnapshotCache, a persistent DiskStore, or a TieredStore
	// composing both.
	Cache SnapshotStore

	// Context, when non-nil, bounds the whole run: cancelling it stops the
	// suite scheduler from launching new cells and fails the next execution
	// attempt of in-flight cells at their next dispatch. nil means
	// context.Background() (never cancelled).
	Context context.Context
	// Faults, when non-nil, plans deterministic fault injection per execution
	// attempt (see internal/faults). Planning is a pure function of the cell
	// site, so the fault schedule is identical at any Parallelism. Snapshot
	// replays are analytic and never consult it: injection models execution.
	Faults FaultPlanner
	// CellTimeout bounds each execution attempt of one cell; the deadline is
	// enforced at dispatch boundaries, and an injected hang blocks until it
	// expires. 0 disables the deadline (hangs then surface immediately
	// instead of blocking a deadline-less run forever).
	CellTimeout time.Duration
	// Retries is the per-cell retry budget for failures classified transient
	// (injected driver faults and hangs, deadline expiries). Permanent
	// failures and exclusions never retry. Default 0: fail on first error.
	Retries int
	// RetryBackoff is the base of the deterministic exponential backoff slept
	// before retry n (RetryBackoff << n). 0 retries immediately; there is no
	// jitter, so a retried schedule stays reproducible.
	RetryBackoff time.Duration
	// KeepGoing degrades instead of aborting: hard cell failures become
	// structured SuiteResult.Failed entries and the suite keeps running.
	// Cancellation still aborts. Default false preserves fail-fast.
	KeepGoing bool
}

// NewRunner returns a runner with the default repetition count.
func NewRunner() *Runner { return &Runner{Repetitions: DefaultRepetitions, Seed: 42} }

// Run executes the benchmark with the given API and workload on a fresh device
// instance of the platform, repeating and averaging.
func (r *Runner) Run(p *platforms.Platform, b Benchmark, api hw.API, w Workload) (*Result, error) {
	return r.run(r.baseContext(), p, b, api, w, r.DispatchParallelism, nil)
}

// RunCell is the request-scoped single-cell entry point: Run under an
// explicit context that bounds this cell only, instead of the runner-wide
// r.Context. The serve path hands every request its own context here, so one
// shared Runner can carry many concurrent requests with independent
// deadlines. All runner policy applies unchanged: snapshot replay through
// r.Cache, per-attempt CellTimeout, the transient retry budget, and fault
// planning. A nil ctx falls back to the runner's own base context.
func (r *Runner) RunCell(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload) (*Result, error) {
	if ctx == nil {
		ctx = r.baseContext()
	}
	return r.run(ctx, p, b, api, w, r.DispatchParallelism, nil)
}

// run is Run with an explicit cell context, per-dispatch core budget (0 =
// whole machine) and input stream table; RunSuite passes the budget it
// computed for its pool size and the table its cells share, and a nil table
// gives the call its own. With a snapshot cache attached, a cell already
// executed under an execution-compatible platform is replayed analytically
// instead of re-executed.
func (r *Runner) run(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload,
	dispatchParallel int, streams *inputStreams) (*Result, error) {
	if p == nil || b == nil {
		return nil, fmt.Errorf("core: Run with nil platform or benchmark")
	}
	if reason, excluded := p.Excluded(b.Name(), api); excluded {
		return nil, &ExclusionError{Benchmark: b.Name(), API: api, Platform: p.ID, Reason: reason}
	}
	if !p.Profile.Supports(api) {
		return nil, &ExclusionError{
			Benchmark: b.Name(), API: api, Platform: p.ID,
			Reason: fmt.Sprintf("platform has no %s driver", api),
		}
	}
	supported := false
	for _, a := range b.APIs() {
		if a == api {
			supported = true
			break
		}
	}
	if !supported {
		return nil, &ExclusionError{
			Benchmark: b.Name(), API: api, Platform: p.ID,
			Reason: fmt.Sprintf("benchmark has no %s implementation", api),
		}
	}
	record := r.Cache != nil
	var key SnapshotKey
	if record {
		key = r.snapshotKey(p, b, api, w)
		if snap, ok := r.Cache.Get(key); ok {
			// Analytic replay re-values an already-executed trace; fault
			// injection models execution and never applies here.
			return snap.Replay(p)
		}
	}
	if streams == nil {
		streams = newInputStreams()
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: %s/%s on %s (%s): %w", b.Name(), api, p.ID, w.Label, err)
		}
		var plan *faults.Plan
		if r.Faults != nil {
			plan = r.Faults.Plan(faults.Site{
				Platform: p.ID, Benchmark: b.Name(), Workload: w.Label,
				API: string(api), Attempt: attempt,
			})
		}
		res, snap, err := r.executeAttempt(ctx, p, b, api, w, dispatchParallel, streams, record, plan)
		if err == nil && plan != nil && plan.Fired() {
			// A fired fault that did not surface as an error means some layer
			// swallowed it; trusting the result would defeat the fault model.
			err = fmt.Errorf("core: %s/%s on %s (%s): injected fault did not surface: %w",
				b.Name(), api, p.ID, w.Label, plan.Err())
		}
		if err == nil {
			// Cache only clean first attempts: a recovered cell re-executes on
			// the next run instead of risking a snapshot tainted by the fault.
			if record && attempt == 0 && (plan == nil || !plan.Fired()) {
				r.Cache.Put(key, snap)
			}
			return res, nil
		}
		class := Classify(err)
		if class == FailureExcluded {
			return nil, err
		}
		if class == FailureTransient && attempt < r.Retries && ctx.Err() == nil {
			r.sleepBackoff(ctx, attempt)
			continue
		}
		return nil, &CellError{
			Benchmark: b.Name(), Workload: w.Label, Platform: p.ID, API: api,
			Class: class, Attempts: attempt + 1, Err: err,
		}
	}
}

// baseContext resolves the runner's context (Background when unset).
func (r *Runner) baseContext() context.Context {
	if r.Context != nil {
		return r.Context
	}
	return context.Background()
}

// DefaultRetryBackoff is the backoff base cmd/vcbench applies when -retries
// is requested without an explicit -retry-backoff.
const DefaultRetryBackoff = 100 * time.Millisecond

// RetryDelay is the deterministic exponential backoff slept before retry
// attempt+1: base << attempt, with the shift capped so it cannot overflow.
// No jitter by design — a retried fault schedule must stay reproducible.
func RetryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	if attempt > 16 {
		attempt = 16
	}
	return base << uint(attempt)
}

// sleepBackoff waits the retry delay, returning early on cancellation.
func (r *Runner) sleepBackoff(ctx context.Context, attempt int) {
	d := RetryDelay(r.RetryBackoff, attempt)
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// executeAttempt runs one attempt of a cell under the per-cell deadline,
// converting a panicking benchmark into an error instead of a dead process.
func (r *Runner) executeAttempt(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API,
	w Workload, dispatchParallel int, streams *inputStreams, record bool, plan *faults.Plan) (res *Result, snap *Snapshot, err error) {
	if r.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.CellTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			res, snap = nil, nil
			err = fmt.Errorf("core: %s/%s on %s (%s): %w", b.Name(), api, p.ID, w.Label,
				&PanicError{Value: v, Stack: debug.Stack()})
		}
	}()
	return r.execute(ctx, p, b, api, w, dispatchParallel, streams, record, plan)
}

// faultHook builds the pre-dispatch hook installed on every device of one
// attempt: it enforces the attempt's deadline and fires the planned fault at
// its dispatch ordinal. nil when neither applies, keeping the clean fast
// path untouched.
func faultHook(ctx context.Context, plan *faults.Plan) func() error {
	if ctx.Done() == nil && plan == nil {
		return nil
	}
	dispatch := 0
	return func() error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: cell attempt aborted before dispatch %d: %w", dispatch, err)
		}
		d := dispatch
		dispatch++
		if plan == nil || !plan.FireAt(d) {
			return nil
		}
		if plan.Class == faults.Hang {
			if _, hasDeadline := ctx.Deadline(); hasDeadline {
				// The hang holds the dispatch until the cell deadline expires;
				// the deadline error classifies transient, like the hang.
				<-ctx.Done()
				return fmt.Errorf("core: %v: %w", plan.Err(), ctx.Err())
			}
			// Without a deadline a real hang would block forever; surface it
			// immediately so deadline-less runs stay deterministic and alive.
			return fmt.Errorf("core: %w (no cell timeout; hang surfaces immediately)", plan.Err())
		}
		return plan.Err()
	}
}

// execute runs the benchmark's repetitions on fresh devices and averages the
// measurements. With record set, the first measured repetition is captured as
// a timing trace and returned as a replayable Snapshot alongside the result.
// The fault hook — shared by all repetitions of the attempt, so the planned
// fault's dispatch ordinal counts across them — enforces ctx and plan at
// every dispatch. Every repetition draws its inputs from the same streams.
func (r *Runner) execute(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload,
	dispatchParallel int, streams *inputStreams, record bool, plan *faults.Plan) (*Result, *Snapshot, error) {
	reps := r.Repetitions
	if reps <= 0 {
		reps = 1
	}
	warmup := r.Warmup
	if warmup < 0 {
		warmup = 0
	}
	hook := faultHook(ctx, plan)

	var kernelTimes, totalTimes []time.Duration
	var last *Result
	var rec *hw.Recorder
	var recKernel, recTotal time.Duration
	for rep := 0; rep < warmup+reps; rep++ {
		dev, err := p.NewDevice()
		if err != nil {
			return nil, nil, fmt.Errorf("core: creating device for %s: %w", p.ID, err)
		}
		dev.SetDispatchParallelism(dispatchParallel)
		dev.SetFaultHook(hook)
		host := sim.NewHost()
		var repRec *hw.Recorder
		if record && rep == warmup {
			// Trace the first measured repetition. The simulator is
			// deterministic — every repetition of a cell is identical — so one
			// trace stands for them all; the equality checks below keep that
			// assumption honest.
			repRec = hw.NewRecorder(api)
			dev.SetRecorder(repRec)
			host.SetTraceSink(repRec)
		}
		rctx := &RunContext{
			Ctx:      ctx,
			Host:     host,
			Device:   dev,
			Platform: p,
			API:      api,
			Workload: w,
			Seed:     r.Seed,
			Validate: r.Validate && rep == 0,
			rec:      repRec,
			streams:  streams,
		}
		res, err := b.Run(rctx)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %s/%s on %s (%s): %w", b.Name(), api, p.ID, w.Label, err)
		}
		res.Benchmark = b.Name()
		res.API = api
		res.Platform = p.ID
		res.Workload = w.Label
		if last != nil && last.Checksum != res.Checksum {
			return nil, nil, fmt.Errorf("core: %s/%s on %s (%s): checksum changed between repetitions (%v vs %v)",
				b.Name(), api, p.ID, w.Label, last.Checksum, res.Checksum)
		}
		last = res
		if rep < warmup {
			continue // warm-up runs are validated but never measured
		}
		if repRec != nil {
			rec = repRec
			recKernel, recTotal = res.KernelTime, res.TotalTime
		}
		if rec != nil && (res.KernelTime != recKernel || res.TotalTime != recTotal) {
			return nil, nil, fmt.Errorf("core: %s/%s on %s (%s): repetitions diverged (%v/%v vs %v/%v); "+
				"a non-deterministic benchmark cannot be snapshotted",
				b.Name(), api, p.ID, w.Label, res.KernelTime, res.TotalTime, recKernel, recTotal)
		}
		kernelTimes = append(kernelTimes, res.KernelTime)
		totalTimes = append(totalTimes, res.TotalTime)
	}
	var snap *Snapshot
	if record {
		var err error
		snap, err = newSnapshot(p, b, api, w, rec.Trace(), last, recKernel, recTotal, reps)
		if err != nil {
			return nil, nil, err
		}
	}
	kernelStats, err := stats.SummarizeDurations(kernelTimes)
	if err != nil {
		return nil, nil, err
	}
	totalStats, err := stats.SummarizeDurations(totalTimes)
	if err != nil {
		return nil, nil, err
	}
	last.KernelTime = kernelStats.Mean
	last.TotalTime = totalStats.Mean
	last.KernelStats = kernelStats
	last.TotalStats = totalStats
	return last, snap, nil
}

// SuiteResult collects the results of running several benchmarks across APIs
// on one platform.
type SuiteResult struct {
	Platform string
	// Results maps benchmark -> workload label -> API -> result.
	Results map[string]map[string]map[hw.API]*Result
	// Skipped lists excluded combinations with their reasons.
	Skipped []ExclusionError
	// Failed lists the cells a keep-going run lost to hard failures, in grid
	// order (deterministic at any Parallelism). Empty on fail-fast runs,
	// which return the first hard error instead.
	Failed []CellFailure
}

// Add inserts a result into the nested map.
func (s *SuiteResult) Add(res *Result) {
	if s.Results == nil {
		s.Results = make(map[string]map[string]map[hw.API]*Result)
	}
	byWorkload, ok := s.Results[res.Benchmark]
	if !ok {
		byWorkload = make(map[string]map[hw.API]*Result)
		s.Results[res.Benchmark] = byWorkload
	}
	byAPI, ok := byWorkload[res.Workload]
	if !ok {
		byAPI = make(map[hw.API]*Result)
		byWorkload[res.Workload] = byAPI
	}
	byAPI[res.API] = res
}

// Lookup retrieves a result, if present.
func (s *SuiteResult) Lookup(benchmark, workload string, api hw.API) (*Result, bool) {
	byWorkload, ok := s.Results[benchmark]
	if !ok {
		return nil, false
	}
	byAPI, ok := byWorkload[workload]
	if !ok {
		return nil, false
	}
	r, ok := byAPI[api]
	return r, ok
}

// Speedup returns the speedup of api over the baseline API for one
// benchmark/workload, using kernel times (the paper's metric).
func (s *SuiteResult) Speedup(benchmark, workload string, api, baseline hw.API) (float64, bool) {
	a, okA := s.Lookup(benchmark, workload, api)
	b, okB := s.Lookup(benchmark, workload, baseline)
	if !okA || !okB || a.KernelTime <= 0 {
		return 0, false
	}
	return stats.Speedup(b.KernelTime, a.KernelTime), true
}

// GeoMeanSpeedup returns the geometric-mean speedup of api over baseline
// across every benchmark/workload pair present for both APIs. The nested maps
// are walked in sorted key order: float accumulation is not associative, so
// Go's randomized map iteration would otherwise make the last digits of the
// geomean vary between runs and break the byte-identical output guarantee.
func (s *SuiteResult) GeoMeanSpeedup(api, baseline hw.API) (float64, error) {
	var xs []float64
	benches := make([]string, 0, len(s.Results))
	for bench := range s.Results {
		benches = append(benches, bench)
	}
	sort.Strings(benches)
	for _, bench := range benches {
		byWorkload := s.Results[bench]
		workloads := make([]string, 0, len(byWorkload))
		for wl := range byWorkload {
			workloads = append(workloads, wl)
		}
		sort.Strings(workloads)
		for _, wl := range workloads {
			if sp, ok := s.Speedup(bench, wl, api, baseline); ok && sp > 0 {
				xs = append(xs, sp)
			}
		}
	}
	return stats.GeoMean(xs)
}

// RunSuite runs the given benchmarks for every workload of the platform's
// device class and every requested API, collecting results and recording
// exclusions instead of failing on them. The grid is executed by a worker
// pool sized by r.Parallelism (see runSuiteTasks); results are merged in grid
// order, so the output is identical to a serial run. With KeepGoing set, hard
// cell failures degrade into Failed entries instead of aborting; cancellation
// of r.Context always aborts with its error, so an interrupted run can never
// pass for a merely degraded one.
func (r *Runner) RunSuite(p *platforms.Platform, benchmarks []Benchmark, apis []hw.API) (*SuiteResult, error) {
	tasks := enumerateSuite(p, benchmarks, apis)
	outcomes := r.runSuiteTasks(p, tasks)
	out := &SuiteResult{Platform: p.ID}
	for i, o := range outcomes {
		if o.err != nil {
			var excl *ExclusionError
			if errors.As(o.err, &excl) {
				// Exclusions apply per benchmark/API, but the grid yields one
				// per workload; record each distinct exclusion once so reports
				// do not repeat it for every input size.
				if !containsExclusion(out.Skipped, *excl) {
					out.Skipped = append(out.Skipped, *excl)
				}
				continue
			}
			if r.KeepGoing && !errors.Is(o.err, context.Canceled) {
				out.Failed = append(out.Failed, cellFailure(tasks[i], o.err))
				continue
			}
			return nil, o.err
		}
		if o.res != nil {
			out.Add(o.res)
		}
	}
	if err := r.baseContext().Err(); err != nil {
		// Cells never launched leave no outcome; without this check an
		// interrupt between cells would return a silently truncated suite.
		return nil, fmt.Errorf("core: suite on %s interrupted: %w", p.ID, err)
	}
	return out, nil
}

// cellFailure builds the reporting entry for one failed cell, preferring the
// structured CellError the runner wraps failures in.
func cellFailure(t suiteTask, err error) CellFailure {
	f := CellFailure{
		Benchmark: t.bench.Name(), Workload: t.workload.Label, API: t.api,
		Class: Classify(err), Attempts: 1, Reason: err.Error(),
	}
	var ce *CellError
	if errors.As(err, &ce) {
		f.Class = ce.Class
		f.Attempts = ce.Attempts
		f.Reason = ce.Err.Error()
	}
	return f
}

func containsExclusion(skipped []ExclusionError, e ExclusionError) bool {
	for i := range skipped {
		if skipped[i] == e {
			return true
		}
	}
	return false
}
