package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// suiteTask is one cell of the (benchmark, workload, API) grid RunSuite
// walks. idx is the cell's position in grid order; outcomes are merged by it
// so the suite result is deterministic regardless of completion order.
// triple numbers the cell's (benchmark, workload) pair on the suite's
// platform: the API cells of a triple are adjacent in grid order.
type suiteTask struct {
	idx      int
	triple   int
	bench    Benchmark
	workload Workload
	api      hw.API
}

// suiteOutcome is the result of one suite task. Exactly one of res/err is set
// for executed tasks; both are nil for tasks the serial path never reached
// after an earlier hard error.
type suiteOutcome struct {
	res *Result
	err error
}

// enumerateSuite flattens the benchmark × workload × API grid in the order
// the serial runner used, which is also the order results are merged in.
func enumerateSuite(p *platforms.Platform, benchmarks []Benchmark, apis []hw.API) []suiteTask {
	var tasks []suiteTask
	triple := 0
	for _, b := range benchmarks {
		for _, w := range b.Workloads(p.Profile.Class) {
			for _, api := range apis {
				tasks = append(tasks, suiteTask{idx: len(tasks), triple: triple, bench: b, workload: w, api: api})
			}
			triple++
		}
	}
	return tasks
}

// suiteUnit is what one worker runs at a time: the API cells of a triple
// that share a dispatch memo, in grid order, or a single cell.
type suiteUnit struct {
	cells []suiteTask
	// shared: the cells share a memo.
	shared bool
}

// suiteUnits splits the grid into the units its workers run.
func suiteUnits(p *platforms.Platform, tasks []suiteTask) []suiteUnit {
	var units []suiteUnit
	for start := 0; start < len(tasks); {
		end := start + 1
		for end < len(tasks) && tasks[end].triple == tasks[start].triple {
			end++
		}
		cells := tasks[start:end]
		if sharedTriple(p, cells) {
			units = append(units, suiteUnit{cells: cells, shared: true})
		} else {
			for i := range cells {
				units = append(units, suiteUnit{cells: cells[i : i+1]})
			}
		}
		start = end
	}
	return units
}

// sharedTriple reports whether a triple's cells share a dispatch memo: a
// registered benchmark's do when at least two can execute. The memo matches
// dispatches by what they bind, so a workload whose API paths dispatch
// different device work (Descriptor.PerAPIDeviceWork) shares the dispatches
// they have in common and executes the rest.
func sharedTriple(p *platforms.Platform, cells []suiteTask) bool {
	if _, isReg := cells[0].bench.(registered); !isReg {
		return false
	}
	runnable := 0
	for _, t := range cells {
		if checkCell(p, t.bench, t.api) == nil {
			runnable++
		}
	}
	return runnable >= 2
}

// workers resolves the effective worker-pool size: Parallelism if positive,
// runtime.NumCPU() when unset (0), and 1 for any negative value.
func (r *Runner) workers() int {
	switch {
	case r.Parallelism > 0:
		return r.Parallelism
	case r.Parallelism == 0:
		return runtime.NumCPU()
	default:
		return 1
	}
}

// dispatchBudget is the core-budgeting rule between the suite scheduler and
// the per-dispatch worker pools: with an explicit DispatchParallelism that
// wins; otherwise a parallel suite divides the machine between its cells
// (runtime.NumCPU() / pool size, at least 1) and a serial suite leaves each
// dispatch the whole machine (0 = GOMAXPROCS). Dispatch counters are
// identical for any budget, so this only shapes scheduling, never results.
func (r *Runner) dispatchBudget(workers int) int {
	if r.DispatchParallelism > 0 {
		return r.DispatchParallelism
	}
	if workers <= 1 {
		return 0
	}
	budget := runtime.NumCPU() / workers
	if budget < 1 {
		budget = 1
	}
	return budget
}

// runSuiteTasks executes every task and returns the outcomes indexed in grid
// order. Each execution creates a fresh simulated device. The API cells of a
// triple that share device work run one after another, in grid order, on
// one worker, and share the triple's dispatch memo, which is dropped when
// the last of them ends: a dispatch one of them executed, the others take
// from it. Beyond that, cells share one thing: the suite's input stream
// table, whose words are read-only and which extends a stream only under
// that stream's lock. So the units fan out across a worker pool; with one
// worker they run inline. Both paths stop launching new cells once a hard
// error demands an abort (in-flight parallel cells still finish) — on every
// hard error by default, matching the historical fail-fast serial
// behaviour, or only on cancellation when the runner keeps going. A
// panicking cell is recovered into a failed outcome; the pool, and the
// process, survive it.
func (r *Runner) runSuiteTasks(p *platforms.Platform, tasks []suiteTask) []suiteOutcome {
	outcomes := make([]suiteOutcome, len(tasks))
	ctx := r.baseContext()
	units := suiteUnits(p, tasks)
	workers := min(r.workers(), len(units))
	dispatchParallel := r.dispatchBudget(workers)
	streams := newInputStreams()
	var aborted atomic.Bool // set on the first aborting error so no new cell starts
	runUnit := func(u suiteUnit) {
		env := cellEnv{dispatchParallel: dispatchParallel, streams: streams}
		if u.shared {
			env.memo = hw.NewDispatchMemo()
		}
		for _, t := range u.cells {
			if aborted.Load() || ctx.Err() != nil {
				return // unexecuted cells stay zero; the merge skips them, RunSuite surfaces a cancellation
			}
			res, err := r.safeRun(p, t, env)
			outcomes[t.idx] = suiteOutcome{res: res, err: err}
			if r.abortOn(err) {
				aborted.Store(true)
			}
		}
	}
	if workers <= 1 {
		for _, u := range units {
			runUnit(u)
		}
		return outcomes
	}

	ch := make(chan suiteUnit)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range ch {
				runUnit(u)
			}
		}()
	}
	for _, u := range units {
		ch <- u
	}
	close(ch)
	wg.Wait()
	return outcomes
}

// safeRun executes one cell, converting a panic that escapes the runner's
// own machinery (result summarising, snapshot binding — benchmark panics are
// already recovered per attempt) into a failed outcome so no cell can kill
// the scheduler.
func (r *Runner) safeRun(p *platforms.Platform, t suiteTask, env cellEnv) (res *Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			res = nil
			err = &CellError{
				Benchmark: t.bench.Name(), Workload: t.workload.Label, Platform: p.ID, API: t.api,
				Class: FailurePermanent, Attempts: 1,
				Err: &PanicError{Value: v, Stack: debug.Stack()},
			}
		}
	}()
	return r.run(r.baseContext(), p, t.bench, t.api, t.workload, env)
}

// abortOn decides whether a cell error stops the scheduler from launching
// further cells: exclusions never do, cancellation always does, and other
// hard errors do unless the runner keeps going.
func (r *Runner) abortOn(err error) bool {
	if err == nil {
		return false
	}
	var excl *ExclusionError
	if errors.As(err, &excl) {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return true
	}
	return !r.KeepGoing
}
