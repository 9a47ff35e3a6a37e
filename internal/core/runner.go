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

// Runner measures benchmark cells. The simulator is deterministic, so a cell
// executes once, on one fresh device, and its Result is the replay of the
// snapshot taken from that run: the paper's average of several runs is the
// one run. A store hit replays the same way, so every Result is built by one
// code path.
type Runner struct {
	// Deprecated: ignored: a cell runs once and reports that run; removed
	// once perfbench stops setting it.
	Repetitions int
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
	// Cache, when non-nil, keeps the snapshot of every executed cell: later
	// runs of the same cell — including on platform clones that differ only
	// in DriverProfile knob values, as a calibration sweep produces — replay
	// it analytically instead of re-executing
	// workgroups. Results are bit-identical either way; nil executes every
	// cell. Snapshots are only stored from clean first attempts: a faulted or
	// retry-recovered execution is never stored. Each cell makes exactly one
	// lookup (ReplayCell); execution (ExecuteCell) only writes. Any
	// SnapshotStore works here: the in-memory SnapshotCache, a persistent
	// DiskStore, or a TieredStore composing the LRU over a lower store.
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

// NewRunner returns a runner with the default input seed.
func NewRunner() *Runner { return &Runner{Seed: 42} }

// Run measures the benchmark with the given API and workload on the platform:
// a replay of the stored snapshot on a hit, else one execution on a fresh
// device.
func (r *Runner) Run(p *platforms.Platform, b Benchmark, api hw.API, w Workload) (*Result, error) {
	return r.run(r.baseContext(), p, b, api, w, cellEnv{dispatchParallel: r.DispatchParallelism})
}

// ReplayCell is the lookup half of a cell: the exclusion checks, then
// exactly one r.Cache lookup, replaying a hit analytically. hit=false with a
// nil error means the cell must execute, which ExecuteCell does without a
// second lookup; a caller with bounded capacity may refuse it instead. A nil
// Cache always misses. Replay never consults r.Faults: injection models
// execution.
func (r *Runner) ReplayCell(p *platforms.Platform, b Benchmark, api hw.API, w Workload) (res *Result, hit bool, err error) {
	if err := checkCell(p, b, api); err != nil {
		return nil, false, err
	}
	if r.Cache == nil {
		return nil, false, nil
	}
	snap, ok := r.Cache.Get(r.snapshotKey(p, b, api, w))
	if !ok {
		return nil, false, nil
	}
	res, err = snap.Replay(p)
	return res, true, err
}

// ExecuteCell is the execution half of a cell whose lookup missed: the
// exclusion checks, then execution attempts with the per-attempt CellTimeout,
// the transient retry budget and fault planning, offering a clean first
// attempt to r.Cache. It never reads the store. ctx bounds this cell only,
// in place of r.Context, so one shared Runner can carry many concurrent
// cells with independent deadlines.
func (r *Runner) ExecuteCell(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload) (*Result, error) {
	if err := checkCell(p, b, api); err != nil {
		return nil, err
	}
	return r.execCell(ctx, p, b, api, w, cellEnv{dispatchParallel: r.DispatchParallelism})
}

// cellEnv is what a cell's execution shares with the cells around it.
type cellEnv struct {
	// dispatchParallel is the per-dispatch core budget (0 = whole machine).
	dispatchParallel int
	// streams is the input stream table; nil gives the cell its own.
	streams *inputStreams
	// memo is the dispatch memo of the cell's triple, or nil for the device's
	// own.
	memo *hw.DispatchMemo
}

// run is Run with an explicit cell context and environment: RunSuite passes
// the core budget it computed for its pool size, the stream table its cells
// share and the memo of the cell's triple. It composes ReplayCell with
// ExecuteCell's execution, the same lookup-then-execute path the serve front
// end takes.
func (r *Runner) run(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload, env cellEnv) (*Result, error) {
	res, hit, err := r.ReplayCell(p, b, api, w)
	if hit || err != nil {
		return res, err
	}
	return r.execCell(ctx, p, b, api, w, env)
}

// checkCell rejects nil arguments and the cells a platform quirk, a missing
// driver or a missing implementation excludes.
func checkCell(p *platforms.Platform, b Benchmark, api hw.API) error {
	if p == nil || b == nil {
		return fmt.Errorf("core: Run with nil platform or benchmark")
	}
	if reason, excluded := p.Excluded(b.Name(), api); excluded {
		return &ExclusionError{Benchmark: b.Name(), API: api, Platform: p.ID, Reason: reason}
	}
	if !p.Profile.Supports(api) {
		return &ExclusionError{
			Benchmark: b.Name(), API: api, Platform: p.ID,
			Reason: fmt.Sprintf("platform has no %s driver", api),
		}
	}
	for _, a := range b.APIs() {
		if a == api {
			return nil
		}
	}
	return &ExclusionError{
		Benchmark: b.Name(), API: api, Platform: p.ID,
		Reason: fmt.Sprintf("benchmark has no %s implementation", api),
	}
}

// execCell executes a checked cell: attempts with retries, each under the
// cell deadline and its fault plan, storing a clean first attempt. An
// attempt the memo could not serve runs again without it; that rerun is not
// a retry: it keeps the attempt's plan, its dispatch ordinals count from 0
// again, and a clean rerun of the first attempt is stored.
func (r *Runner) execCell(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload, env cellEnv) (*Result, error) {
	if env.streams == nil {
		env.streams = newInputStreams()
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
		res, snap, err := r.executeAttempt(ctx, p, b, api, w, env, plan)
		if env.memo != nil && env.memo.Missed() && (plan == nil || !plan.Fired()) {
			// A fault that fired first ended the attempt as the cell alone
			// would have; only a miss that ended it reruns.
			alone := env
			alone.memo = nil
			res, snap, err = r.executeAttempt(ctx, p, b, api, w, alone, plan)
		}
		if err == nil && plan != nil && plan.Fired() {
			// A fired fault that did not surface as an error means some layer
			// swallowed it; trusting the result would defeat the fault model.
			err = fmt.Errorf("core: %s/%s on %s (%s): injected fault did not surface: %w",
				b.Name(), api, p.ID, w.Label, plan.Err())
		}
		if err == nil {
			// Cache only clean first attempts: a recovered cell re-executes on
			// the next run instead of risking a snapshot tainted by the fault.
			if r.Cache != nil && attempt == 0 && (plan == nil || !plan.Fired()) {
				r.Cache.Put(r.snapshotKey(p, b, api, w), snap)
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
	w Workload, env cellEnv, plan *faults.Plan) (res *Result, snap *Snapshot, err error) {
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
	return r.execute(ctx, p, b, api, w, env, plan)
}

// faultHook builds the pre-dispatch hook installed on the device of one
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

// execute runs the benchmark once on a fresh device and returns the replay of
// the snapshot taken from that run's trace, with the snapshot. The replay
// check fails the cell when the replay disagrees with what the run itself
// measured: such a cell would give one answer executed and another stored.
// The fault hook enforces ctx and plan at every dispatch.
func (r *Runner) execute(ctx context.Context, p *platforms.Platform, b Benchmark, api hw.API, w Workload,
	env cellEnv, plan *faults.Plan) (*Result, *Snapshot, error) {
	dev, err := p.NewDevice()
	if err != nil {
		return nil, nil, fmt.Errorf("core: creating device for %s: %w", p.ID, err)
	}
	dev.SetDispatchParallelism(env.dispatchParallel)
	dev.SetFaultHook(faultHook(ctx, plan))
	dev.SetDispatchMemo(env.memo)
	host := hw.NewHost(dev, api)
	rctx := &RunContext{
		Ctx:      ctx,
		Host:     host,
		Device:   dev,
		Platform: p,
		API:      api,
		Workload: w,
		Seed:     r.Seed,
		Validate: r.Validate,
		streams:  env.streams,
	}
	run, err := b.Run(rctx)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %s/%s on %s (%s): %w", b.Name(), api, p.ID, w.Label, err)
	}
	snap, err := newSnapshot(p, b, api, w, host.Trace(), run)
	if err != nil {
		return nil, nil, err
	}
	res, err := snap.Replay(p)
	if err != nil {
		return nil, nil, err
	}
	if res.KernelTime != run.KernelTime || res.TotalTime != run.TotalTime {
		return nil, nil, fmt.Errorf("core: %s/%s on %s (%s): replay gives %v/%v where the run measured %v/%v; "+
			"the trace does not capture how the benchmark measured",
			b.Name(), api, p.ID, w.Label, res.KernelTime, res.TotalTime, run.KernelTime, run.TotalTime)
	}
	return res, snap, nil
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
