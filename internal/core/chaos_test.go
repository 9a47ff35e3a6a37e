package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// plannerFunc adapts a function to core.FaultPlanner, so tests can inject
// exact fault schedules instead of hashed rates.
type plannerFunc func(site faults.Site) *faults.Plan

func (f plannerFunc) Plan(site faults.Site) *faults.Plan { return f(site) }

// faultAttempts returns a planner that injects class at dispatch 0 for every
// attempt below n (n=-1: every attempt), so tests control exactly which
// retries fault.
func faultAttempts(class faults.Class, n int) plannerFunc {
	return func(site faults.Site) *faults.Plan {
		if n >= 0 && site.Attempt >= n {
			return nil
		}
		return &faults.Plan{Class: class, Dispatch: 0, Site: site}
	}
}

// dispatchBench is a fakeBench whose run performs real kernel dispatches on
// the cell's simulated device, so the fault hook at the ExecuteKernel seam is
// actually exercised (a run that never dispatches can never fault).
func dispatchBench(name string, apis []hw.API, workloads []core.Workload, dispatches int) *fakeBench {
	prog := &kernels.Program{
		Name:      "chaos_noop",
		LocalSize: kernels.D1(1),
		Fn:        func(*kernels.Workgroup) {},
	}
	b := &fakeBench{name: name, apis: apis, workloads: workloads}
	b.run = func(ctx *core.RunContext) (*core.Result, error) {
		q, err := ctx.Device.Queue(hw.QueueCompute, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < dispatches; i++ {
			if _, err := q.ExecuteKernel(prog, kernels.DispatchConfig{Groups: kernels.D1(1)}, nil, hw.Cost{}); err != nil {
				return nil, err
			}
		}
		n := ctx.Workload.Param("n", 1)
		base := time.Duration(n) * time.Microsecond
		res := measured(ctx, base, 2*base)
		res.Dispatches, res.Checksum = dispatches, float64(n)
		return res, nil
	}
	return b
}

// TestChaosPanicRecovery: a panicking benchmark cell must become a failed
// outcome — classified permanent, attributed to its cell — in both scheduler
// paths and both failure modes, never a dead process.
func TestChaosPanicRecovery(t *testing.T) {
	p := platforms.GTX1050Ti()
	mkBench := func() *fakeBench {
		b := &fakeBench{name: "panicky", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0", "w1", "w2")}
		b.run = func(ctx *core.RunContext) (*core.Result, error) {
			if ctx.Workload.Label == "w1" {
				panic("kernel walked off the grid")
			}
			return measured(ctx, time.Millisecond, time.Millisecond), nil
		}
		return b
	}
	for _, par := range []int{1, 8} {
		r := &core.Runner{Repetitions: 1, Parallelism: par, Seed: 1}
		_, err := r.RunSuite(p, []core.Benchmark{mkBench()}, []hw.API{hw.APIVulkan})
		var ce *core.CellError
		if !errors.As(err, &ce) {
			t.Fatalf("parallelism %d fail-fast: err = %v, want a CellError", par, err)
		}
		if ce.Class != core.FailurePermanent || ce.Workload != "w1" || !strings.Contains(ce.Error(), "panicked") {
			t.Fatalf("parallelism %d fail-fast: CellError = %+v", par, ce)
		}

		kg := &core.Runner{Repetitions: 1, Parallelism: par, Seed: 1, KeepGoing: true}
		res, err := kg.RunSuite(p, []core.Benchmark{mkBench()}, []hw.API{hw.APIVulkan})
		if err != nil {
			t.Fatalf("parallelism %d keep-going: %v", par, err)
		}
		if len(res.Failed) != 1 {
			t.Fatalf("parallelism %d keep-going: Failed = %+v, want exactly the panicking cell", par, res.Failed)
		}
		f := res.Failed[0]
		if f.Workload != "w1" || f.Class != core.FailurePermanent || !strings.Contains(f.Reason, "panicked") {
			t.Fatalf("parallelism %d keep-going: failure = %+v", par, f)
		}
		if got := len(res.Results["panicky"]); got != 2 {
			t.Fatalf("parallelism %d keep-going: %d surviving workloads, want 2", par, got)
		}
	}
}

// TestChaosKernelPanicRecovery: a kernel body that indexes past its buffer
// panics on a dispatch worker goroutine, where no recover of the runner can
// reach it. kernels.Execute must re-raise the panic of the lowest-indexed
// workgroup on the cell's goroutine, so it becomes a permanent CellError with
// the same text at any dispatch parallelism, or a degraded entry under
// KeepGoing, never a dead process. The panicking workgroups, left with
// logged accesses and counted loads, must not leak into the next dispatch.
func TestChaosKernelPanicRecovery(t *testing.T) {
	p := platforms.GTX1050Ti()
	// Four workgroups of 64, all sampled. Groups 2 and 3 panic mid-invocation,
	// each with its own index, after every lane has loaded in range.
	bad := &kernels.Program{
		Name:      "chaos_out_of_range",
		LocalSize: kernels.D1(64),
		Bindings:  1,
		Fn: func(wg *kernels.Workgroup) {
			buf := wg.Buffer(0)
			g := wg.GroupIndex()
			wg.ForEach(func(inv *kernels.Invocation) {
				buf.LoadU32(inv, inv.LocalIndex()%4)
				if g >= 2 && inv.LocalIndex() == 40 {
					buf.LoadU32(inv, 1000+g)
				}
			})
		},
	}
	clean := &kernels.Program{
		Name:      "chaos_in_range",
		LocalSize: kernels.D1(64),
		Bindings:  2,
		Fn: func(wg *kernels.Workgroup) {
			in, out := wg.Buffer(0), wg.Buffer(1)
			wg.ForEach(func(inv *kernels.Invocation) {
				out.StoreU32(inv, inv.GlobalX(), in.LoadU32(inv, inv.GlobalX()%4))
			})
		},
	}
	dispatch := func(parallelism int) kernels.DispatchConfig {
		return kernels.DispatchConfig{
			Groups:      kernels.D1(4),
			Buffers:     []kernels.Words{make(kernels.Words, 4), make(kernels.Words, 4*64)},
			Parallelism: parallelism,
		}
	}
	want, _, _, err := kernels.Execute(clean, dispatch(1))
	if err != nil {
		t.Fatal(err)
	}
	mkBench := func() *fakeBench {
		b := &fakeBench{name: "oob", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0", "w1", "w2")}
		b.run = func(ctx *core.RunContext) (*core.Result, error) {
			q, err := ctx.Device.Queue(hw.QueueCompute, 0)
			if err != nil {
				return nil, err
			}
			prog := clean
			if ctx.Workload.Label == "w1" {
				prog = bad
			}
			if _, err := q.ExecuteKernel(prog, dispatch(0), nil, hw.Cost{}); err != nil {
				return nil, err
			}
			res := measured(ctx, time.Millisecond, time.Millisecond)
			res.Dispatches = 1
			return res, nil
		}
		return b
	}

	var text string
	for _, par := range []int{1, 4} {
		b := mkBench()
		r := &core.Runner{Repetitions: 1, Seed: 1, DispatchParallelism: par}
		_, err := r.Run(p, b, hw.APIVulkan, b.workloads[1])
		var ce *core.CellError
		if !errors.As(err, &ce) {
			t.Fatalf("dispatch parallelism %d: err = %v, want a CellError", par, err)
		}
		if ce.Class != core.FailurePermanent || !strings.Contains(ce.Error(), "index out of range [1002] with length 4") {
			t.Fatalf("dispatch parallelism %d: CellError = %v (%s), want workgroup 2's permanent panic", par, ce, ce.Class)
		}
		if text == "" {
			text = ce.Error()
		} else if ce.Error() != text {
			t.Fatalf("panic text depends on dispatch parallelism:\n  1: %s\n  %d: %s", text, par, ce.Error())
		}

		kg := &core.Runner{Repetitions: 1, Parallelism: 2, Seed: 1, KeepGoing: true, DispatchParallelism: par}
		res, err := kg.RunSuite(p, []core.Benchmark{mkBench()}, []hw.API{hw.APIVulkan})
		if err != nil {
			t.Fatalf("dispatch parallelism %d keep-going: %v", par, err)
		}
		if len(res.Failed) != 1 || res.Failed[0].Workload != "w1" || res.Failed[0].Class != core.FailurePermanent {
			t.Fatalf("dispatch parallelism %d keep-going: Failed = %+v, want the out-of-range cell", par, res.Failed)
		}
		if got := len(res.Results["oob"]); got != 2 {
			t.Fatalf("dispatch parallelism %d keep-going: %d surviving workloads, want 2", par, got)
		}

		for i := 0; i < 4; i++ {
			got, _, _, err := kernels.Execute(clean, dispatch(par))
			if err != nil {
				t.Fatal(err)
			}
			if *got != *want {
				t.Fatalf("dispatch parallelism %d: counters after a kernel panic\n  got  %+v\n  want %+v", par, *got, *want)
			}
		}
	}
}

// TestChaosTransientRetryRecovers: transient faults within the retry budget
// are absorbed; one past the budget surfaces with the full attempt count.
func TestChaosTransientRetryRecovers(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := dispatchBench("flaky", []hw.API{hw.APIVulkan}, testWorkloads("w0"), 2)
	r := &core.Runner{Repetitions: 1, Seed: 1, Retries: 2, Faults: faultAttempts(faults.DriverFault, 2)}
	res, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
	if err != nil {
		t.Fatalf("faults on attempts 0-1 with Retries=2 should recover: %v", err)
	}
	if res.Dispatches != 2 {
		t.Fatalf("recovered result = %+v, want the clean attempt's", res)
	}
	if calls := b.calls.Load(); calls != 3 {
		t.Fatalf("benchmark ran %d times, want 3 (2 faulted attempts + 1 clean)", calls)
	}

	short := &core.Runner{Repetitions: 1, Seed: 1, Retries: 1, Faults: faultAttempts(faults.DriverFault, 2)}
	b2 := dispatchBench("flaky", []hw.API{hw.APIVulkan}, testWorkloads("w0"), 2)
	_, err = short.Run(p, b2, hw.APIVulkan, b2.workloads[0])
	var ce *core.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("exhausted retries: err = %v, want CellError", err)
	}
	if ce.Class != core.FailureTransient || ce.Attempts != 2 {
		t.Fatalf("exhausted retries: CellError = %+v, want transient after 2 attempts", ce)
	}
}

// TestChaosPermanentNotRetried: device loss burns no retry budget.
func TestChaosPermanentNotRetried(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := dispatchBench("doomed", []hw.API{hw.APIVulkan}, testWorkloads("w0"), 1)
	r := &core.Runner{Repetitions: 1, Seed: 1, Retries: 5, Faults: faultAttempts(faults.DeviceLost, -1)}
	_, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
	var ce *core.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CellError", err)
	}
	if ce.Class != core.FailurePermanent || ce.Attempts != 1 {
		t.Fatalf("CellError = %+v, want permanent after exactly 1 attempt", ce)
	}
	if calls := b.calls.Load(); calls != 1 {
		t.Fatalf("benchmark ran %d times, want 1 (permanent faults never retry)", calls)
	}
	var inj *faults.Error
	if !errors.As(err, &inj) || inj.Class != faults.DeviceLost {
		t.Fatalf("injected class lost in wrapping: %v", err)
	}
}

// TestChaosKeepGoingDeterministicOrder: the Failed list is merged in grid
// order, so serial and parallel keep-going runs agree exactly.
func TestChaosKeepGoingDeterministicOrder(t *testing.T) {
	p := platforms.GTX1050Ti()
	apis := []hw.API{hw.APIOpenCL, hw.APIVulkan}
	// Fail every Vulkan attempt of workload "m" and every OpenCL attempt of
	// workload "s": multiple failures across the grid, none order-dependent.
	planner := plannerFunc(func(site faults.Site) *faults.Plan {
		if (site.Workload == "m" && site.API == string(hw.APIVulkan)) ||
			(site.Workload == "s" && site.API == string(hw.APIOpenCL)) {
			return &faults.Plan{Class: faults.OOM, Dispatch: 0, Site: site}
		}
		return nil
	})
	run := func(par int) *core.SuiteResult {
		t.Helper()
		benches := []core.Benchmark{
			dispatchBench("alpha", apis, testWorkloads("s", "m", "l"), 1),
			dispatchBench("beta", apis, testWorkloads("s", "m"), 1),
		}
		r := &core.Runner{Repetitions: 1, Parallelism: par, Seed: 1, KeepGoing: true, Faults: planner}
		res, err := r.RunSuite(p, benches, apis)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if len(serial.Failed) != 4 {
		t.Fatalf("serial.Failed = %+v, want 4 failed cells", serial.Failed)
	}
	if !reflect.DeepEqual(serial.Failed, parallel.Failed) {
		t.Fatalf("Failed order diverged:\nserial:   %+v\nparallel: %+v", serial.Failed, parallel.Failed)
	}
	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Fatalf("surviving results diverged between serial and parallel")
	}
}

// TestChaosCellTimeout: a benchmark stuck on host work is cut off by the
// per-cell deadline and classified transient (a retry gets a fresh budget).
func TestChaosCellTimeout(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := &fakeBench{name: "stuck", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0")}
	b.run = func(ctx *core.RunContext) (*core.Result, error) {
		<-ctx.Ctx.Done() // honour the deadline like a cooperative host loop
		return nil, ctx.Ctx.Err()
	}
	r := &core.Runner{Repetitions: 1, Seed: 1, CellTimeout: 20 * time.Millisecond}
	_, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
	var ce *core.CellError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want CellError", err)
	}
	if ce.Class != core.FailureTransient {
		t.Fatalf("deadline expiry classified %s, want transient: %v", ce.Class, err)
	}
}

// TestChaosHangWithoutDeadlineSurfaces: with no cell timeout an injected hang
// reports immediately instead of blocking the run forever, and stays
// transient.
func TestChaosHangWithoutDeadlineSurfaces(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := dispatchBench("hanging", []hw.API{hw.APIVulkan}, testWorkloads("w0"), 1)
	r := &core.Runner{Repetitions: 1, Seed: 1, Faults: faultAttempts(faults.Hang, -1)}
	done := make(chan error, 1)
	go func() {
		_, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
		done <- err
	}()
	select {
	case err := <-done:
		var ce *core.CellError
		if !errors.As(err, &ce) || ce.Class != core.FailureTransient {
			t.Fatalf("err = %v, want a transient CellError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("deadline-less hang blocked the run")
	}
}

// TestChaosHangDeadlineRecovery: with a cell timeout the hang holds the
// dispatch until the deadline, then the retry budget re-runs the cell clean.
func TestChaosHangDeadlineRecovery(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := dispatchBench("hangonce", []hw.API{hw.APIVulkan}, testWorkloads("w0"), 1)
	r := &core.Runner{
		Repetitions: 1, Seed: 1,
		CellTimeout: 30 * time.Millisecond, Retries: 1,
		Faults: faultAttempts(faults.Hang, 1),
	}
	res, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
	if err != nil {
		t.Fatalf("hang on attempt 0 with Retries=1 should recover: %v", err)
	}
	if res == nil || res.Dispatches != 1 {
		t.Fatalf("recovered result = %+v", res)
	}
	if calls := b.calls.Load(); calls != 2 {
		t.Fatalf("benchmark ran %d times, want 2 (hung attempt + clean retry)", calls)
	}
}

// TestChaosRetryDelayDeterministic: the backoff doubles per attempt, caps its
// shift, and disappears at base 0 — no jitter anywhere.
func TestChaosRetryDelayDeterministic(t *testing.T) {
	base := 100 * time.Millisecond
	for attempt, want := range []time.Duration{base, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond} {
		if got := core.RetryDelay(base, attempt); got != want {
			t.Errorf("RetryDelay(%v, %d) = %v, want %v", base, attempt, got, want)
		}
	}
	if got := core.RetryDelay(0, 3); got != 0 {
		t.Errorf("RetryDelay(0, 3) = %v, want 0", got)
	}
	if got, want := core.RetryDelay(time.Millisecond, 100), time.Millisecond<<16; got != want {
		t.Errorf("RetryDelay shift not capped: got %v, want %v", got, want)
	}
}
