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
type suiteTask struct {
	idx      int
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
	for _, b := range benchmarks {
		for _, w := range b.Workloads(p.Profile.Class) {
			for _, api := range apis {
				tasks = append(tasks, suiteTask{idx: len(tasks), bench: b, workload: w, api: api})
			}
		}
	}
	return tasks
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
// order. Each execution creates a fresh simulated device. Sibling cells
// share one thing: the suite's input stream table, whose words are read-only
// and which extends a stream only under that stream's lock. So tasks fan out
// across a worker pool; with one worker the tasks run inline. Both paths stop
// launching new cells once a hard error demands an abort (in-flight parallel
// cells still finish) — on every hard error by default, matching the
// historical fail-fast serial behaviour, or only on cancellation when the
// runner keeps going. A panicking cell is recovered into a failed outcome;
// the pool, and the process, survive it.
func (r *Runner) runSuiteTasks(p *platforms.Platform, tasks []suiteTask) []suiteOutcome {
	outcomes := make([]suiteOutcome, len(tasks))
	ctx := r.baseContext()
	workers := r.workers()
	if workers > len(tasks) {
		workers = len(tasks)
	}
	dispatchParallel := r.dispatchBudget(workers)
	streams := newInputStreams()
	if workers <= 1 {
		for _, t := range tasks {
			if ctx.Err() != nil {
				break // unexecuted cells stay zero; RunSuite surfaces the cancellation
			}
			res, err := r.safeRun(p, t, dispatchParallel, streams)
			outcomes[t.idx] = suiteOutcome{res: res, err: err}
			if r.abortOn(err) {
				break
			}
		}
		return outcomes
	}

	ch := make(chan suiteTask)
	var wg sync.WaitGroup
	var aborted atomic.Bool // set on the first aborting error so workers stop picking up new cells
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				if aborted.Load() || ctx.Err() != nil {
					continue // drain; unexecuted cells stay zero and the merge skips them
				}
				res, err := r.safeRun(p, t, dispatchParallel, streams)
				outcomes[t.idx] = suiteOutcome{res: res, err: err}
				if r.abortOn(err) {
					aborted.Store(true)
				}
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return outcomes
}

// safeRun executes one cell, converting a panic that escapes the runner's
// own machinery (result summarising, snapshot binding — benchmark panics are
// already recovered per attempt) into a failed outcome so no cell can kill
// the scheduler.
func (r *Runner) safeRun(p *platforms.Platform, t suiteTask, dispatchParallel int, streams *inputStreams) (res *Result, err error) {
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
	return r.run(r.baseContext(), p, t.bench, t.api, t.workload, dispatchParallel, streams)
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
