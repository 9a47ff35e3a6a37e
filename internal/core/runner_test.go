package core_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
)

// fakeBench is a deterministic in-memory benchmark: run derives the result
// from the context (API, workload), so tests control timing, checksums and
// failures without touching the simulator. Every executed cell is
// snapshotted and replayed, so a run that returns times must measure them on
// its host clock (see measured).
type fakeBench struct {
	name      string
	apis      []hw.API
	workloads []core.Workload
	calls     atomic.Int64
	run       func(ctx *core.RunContext) (*core.Result, error)
}

func (f *fakeBench) Name() string                       { return f.name }
func (f *fakeBench) Workloads(hw.Class) []core.Workload { return f.workloads }
func (f *fakeBench) APIs() []hw.API                     { return f.apis }
func (f *fakeBench) Run(ctx *core.RunContext) (*core.Result, error) {
	f.calls.Add(1)
	return f.run(ctx)
}

func testWorkloads(labels ...string) []core.Workload {
	ws := make([]core.Workload, len(labels))
	for i, l := range labels {
		ws[i] = core.Workload{Label: l, Params: map[string]int{"n": (i + 1) * 1000}}
	}
	return ws
}

// measured spends kernel and then total-kernel on the run's host clock and
// returns a Result holding what the run measured: the kernel time from a
// stopwatch, the total time read by ctx.Result. Measuring through the host,
// as a real benchmark does, binds both to trace readings the runner replays.
func measured(ctx *core.RunContext, kernel, total time.Duration) *core.Result {
	sw := ctx.Stopwatch()
	ctx.Host.Spend(hw.FixedCost(kernel))
	k := sw.Elapsed()
	ctx.Host.Spend(hw.FixedCost(total - kernel))
	return ctx.Result(k)
}

// constantResult returns a run function with fixed timing and checksum.
func constantResult(kernel, total time.Duration) func(*core.RunContext) (*core.Result, error) {
	return func(ctx *core.RunContext) (*core.Result, error) {
		res := measured(ctx, kernel, total)
		res.Dispatches, res.Checksum = 1, 7
		return res, nil
	}
}

func TestRunExclusionMissingAPIImplementation(t *testing.T) {
	p := platforms.GTX1050Ti()
	b := &fakeBench{
		name:      "fake",
		apis:      []hw.API{hw.APIVulkan},
		workloads: testWorkloads("w0"),
		run:       constantResult(time.Millisecond, 2*time.Millisecond),
	}
	_, err := core.NewRunner().Run(p, b, hw.APIOpenCL, b.workloads[0])
	var excl *core.ExclusionError
	if !errors.As(err, &excl) {
		t.Fatalf("expected ExclusionError, got %v", err)
	}
	if excl.Benchmark != "fake" || excl.API != hw.APIOpenCL || excl.Platform != p.ID {
		t.Fatalf("exclusion misattributed: %+v", excl)
	}
}

func TestRunExclusionPlatformQuirk(t *testing.T) {
	base := platforms.GTX1050Ti()
	p := &platforms.Platform{
		ID:      base.ID,
		Profile: base.Profile,
		Quirks:  []platforms.Quirk{{Benchmark: "fake", API: hw.APIVulkan, Reason: "driver bug"}},
	}
	b := &fakeBench{
		name:      "fake",
		apis:      []hw.API{hw.APIVulkan},
		workloads: testWorkloads("w0"),
		run:       constantResult(time.Millisecond, 2*time.Millisecond),
	}
	_, err := core.NewRunner().Run(p, b, hw.APIVulkan, b.workloads[0])
	var excl *core.ExclusionError
	if !errors.As(err, &excl) {
		t.Fatalf("expected ExclusionError for platform quirk, got %v", err)
	}
	if excl.Reason != "driver bug" {
		t.Fatalf("exclusion reason = %q, want %q", excl.Reason, "driver bug")
	}
}

// TestRunExecutesOncePerAttempt: a cell executes once whatever the
// repetition count, with or without a store, and reports that run.
func TestRunExecutesOncePerAttempt(t *testing.T) {
	p := platforms.GTX1050Ti()
	for _, store := range []core.SnapshotStore{nil, core.NewSnapshotCache(0)} {
		b := &fakeBench{
			name:      "fake",
			apis:      []hw.API{hw.APIVulkan},
			workloads: testWorkloads("w0"),
			run:       constantResult(time.Millisecond, 2*time.Millisecond),
		}
		r := &core.Runner{Repetitions: 3, Seed: 1, Cache: store}
		res, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
		if err != nil {
			t.Fatalf("store %T: %v", store, err)
		}
		if calls := b.calls.Load(); calls != 1 {
			t.Fatalf("store %T: benchmark ran %d times for one Run at 3 repetitions, want 1", store, calls)
		}
		if ms := time.Millisecond; res.KernelTime != ms || res.TotalTime != 2*ms {
			t.Fatalf("store %T: result = %+v", store, res)
		}
	}
}

// TestRunFailsWhenReplayDisagrees: a cell whose replay differs from what its
// run measured fails, with or without a store, and is never stored, so a
// later hit cannot disagree with the miss. The fake re-points its stopwatch
// reading at a later mark after reading it, which the trace then replays.
func TestRunFailsWhenReplayDisagrees(t *testing.T) {
	p := platforms.GTX1050Ti()
	for _, store := range []*core.SnapshotCache{nil, core.NewSnapshotCache(0)} {
		b := &fakeBench{name: "fake", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0")}
		b.run = func(ctx *core.RunContext) (*core.Result, error) {
			sw := ctx.Stopwatch()
			ctx.Host.Spend(hw.FixedCost(time.Millisecond))
			kernel := sw.Elapsed()
			ctx.Host.Spend(hw.FixedCost(time.Millisecond))
			later := ctx.Host.Mark()
			readings := ctx.Host.Trace().Readings
			readings[len(readings)-1].B = later
			res := ctx.Result(kernel)
			res.Checksum = 7
			return res, nil
		}
		r := &core.Runner{Repetitions: 3, Seed: 1}
		if store != nil {
			r.Cache = store
		}
		_, err := r.Run(p, b, hw.APIVulkan, b.workloads[0])
		if err == nil || !strings.Contains(err.Error(), "replay gives 2ms/2ms where the run measured 1ms/2ms") {
			t.Fatalf("store %v: err = %v, want the replay mismatch", store != nil, err)
		}
		if store != nil {
			if st := store.Stats(); st.Entries != 0 {
				t.Fatalf("a cell that failed its replay check was stored: %+v", st)
			}
		}
	}
}

// TestRunBindsTimesByHandle: a Result's times bind to the trace readings
// that produced them, whatever other reading has the same value. The kernel
// stopwatch times one sync and a second stopwatch one submit; on a profile
// where the two knobs are equal the readings coincide, and the cell still
// executes with the sync time, and a store hit on a profile with the sync
// latency doubled follows the sync knob alone.
func TestRunBindsTimesByHandle(t *testing.T) {
	const us = time.Microsecond
	withSync := func(sync time.Duration) *platforms.Platform {
		p := platforms.GTX1050Ti()
		drv := p.Profile.Drivers[hw.APIVulkan]
		drv.SubmitOverhead, drv.SyncLatency = 12*us, sync
		p.Profile.Drivers[hw.APIVulkan] = drv
		return p
	}
	b := &fakeBench{name: "fake", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0")}
	b.run = func(ctx *core.RunContext) (*core.Result, error) {
		sw := ctx.Stopwatch()
		ctx.Host.Spend(hw.KnobCost(hw.KnobSync))
		kernel := sw.Elapsed()
		other := ctx.Stopwatch()
		ctx.Host.Spend(hw.KnobCost(hw.KnobSubmit))
		other.Elapsed()
		return ctx.Result(kernel), nil
	}
	r := &core.Runner{Repetitions: 1, Seed: 1, Cache: core.NewSnapshotCache(0)}
	for _, sync := range []time.Duration{12 * us, 24 * us} {
		res, err := r.Run(withSync(sync), b, hw.APIVulkan, b.workloads[0])
		if err != nil {
			t.Fatalf("sync %v: %v", sync, err)
		}
		if res.KernelTime != sync || res.TotalTime != sync+12*us {
			t.Fatalf("sync %v: kernel %v, total %v; want %v and %v", sync, res.KernelTime, res.TotalTime, sync, sync+12*us)
		}
	}
	if calls := b.calls.Load(); calls != 1 {
		t.Fatalf("the cell executed %d times, want once and then a store hit", calls)
	}
}

// TestRunFailsResultLiteral: a Result built as a literal, not by ctx.Result,
// binds no trace reading, so its cell fails with one clear error and is
// never stored.
func TestRunFailsResultLiteral(t *testing.T) {
	store := core.NewSnapshotCache(0)
	b := &fakeBench{name: "fake", apis: []hw.API{hw.APIVulkan}, workloads: testWorkloads("w0")}
	b.run = func(ctx *core.RunContext) (*core.Result, error) {
		sw := ctx.Stopwatch()
		ctx.Host.Spend(hw.FixedCost(time.Millisecond))
		return &core.Result{KernelTime: sw.Elapsed().D, TotalTime: ctx.Host.Now()}, nil
	}
	r := &core.Runner{Repetitions: 1, Seed: 1, Cache: store}
	_, err := r.Run(platforms.GTX1050Ti(), b, hw.APIVulkan, b.workloads[0])
	if err == nil || !strings.Contains(err.Error(), "the Result was not built by ctx.Result") {
		t.Fatalf("err = %v, want the unbound-Result error", err)
	}
	if st := store.Stats(); st.Entries != 0 {
		t.Fatalf("a cell whose Result binds no reading was stored: %+v", st)
	}
}

// gridBench derives timing purely from (API, workload), so results are
// identical no matter which worker runs the task or in what order.
func gridBench(name string, apis []hw.API, workloads []core.Workload) *fakeBench {
	b := &fakeBench{name: name, apis: apis, workloads: workloads}
	b.run = func(ctx *core.RunContext) (*core.Result, error) {
		n := ctx.Workload.Param("n", 1)
		base := time.Duration(n) * time.Microsecond
		if ctx.API == hw.APIVulkan {
			base /= 2
		}
		res := measured(ctx, base, 3*base)
		res.Dispatches, res.Checksum = n/1000, float64(n)
		return res, nil
	}
	return b
}

func TestRunSuiteSerialParallelEquivalence(t *testing.T) {
	apis := []hw.API{hw.APIOpenCL, hw.APIVulkan, hw.APICUDA}
	makeBenches := func() []core.Benchmark {
		return []core.Benchmark{
			gridBench("alpha", apis, testWorkloads("s", "m", "l")),
			gridBench("beta", []hw.API{hw.APIVulkan}, testWorkloads("s", "m")), // OpenCL/CUDA excluded
			gridBench("gamma", apis, testWorkloads("s")),
		}
	}
	p := platforms.GTX1050Ti()

	serialRunner := &core.Runner{Repetitions: 2, Parallelism: 1, Seed: 1}
	serial, err := serialRunner.RunSuite(p, makeBenches(), apis)
	if err != nil {
		t.Fatal(err)
	}
	parallelRunner := &core.Runner{Repetitions: 2, Parallelism: 8, Seed: 1}
	parallel, err := parallelRunner.RunSuite(p, makeBenches(), apis)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Results, parallel.Results) {
		t.Errorf("parallel results differ from serial:\nserial:   %+v\nparallel: %+v", serial.Results, parallel.Results)
	}
	if !reflect.DeepEqual(serial.Skipped, parallel.Skipped) {
		t.Errorf("parallel exclusions differ from serial:\nserial:   %+v\nparallel: %+v", serial.Skipped, parallel.Skipped)
	}
	if len(serial.Skipped) != 2 { // beta misses 2 APIs; recorded once each, not per workload
		t.Errorf("expected 2 deduplicated exclusions, got %d: %+v", len(serial.Skipped), serial.Skipped)
	}
	// Default parallelism (0 = NumCPU) must agree as well.
	defaultRunner := &core.Runner{Repetitions: 2, Seed: 1}
	byDefault, err := defaultRunner.RunSuite(p, makeBenches(), apis)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Results, byDefault.Results) {
		t.Errorf("default-parallelism results differ from serial")
	}
}

// TestGeoMeanSpeedupDeterministic: the geomean accumulates logs in float
// arithmetic, which is not associative, so the nested result maps must be
// walked in sorted order. With the old map-iteration accumulation this test
// flakes: the speedup magnitudes are chosen so that reordering the sum
// changes the last bits of the result.
func TestGeoMeanSpeedupDeterministic(t *testing.T) {
	s := &core.SuiteResult{}
	// A wide spread of magnitudes makes the log-sum order-sensitive.
	speeds := []float64{1e-7, 3.14159, 1e9, 1.0000001, 42.42, 7e-3, 123456.789, 2.718281828}
	for i, sp := range speeds {
		bench := fmt.Sprintf("bench%d", i%4)
		wl := fmt.Sprintf("w%d", i/4)
		s.Add(&core.Result{Benchmark: bench, Workload: wl, API: hw.APIOpenCL,
			KernelTime: time.Duration(float64(time.Second) * sp)})
		s.Add(&core.Result{Benchmark: bench, Workload: wl, API: hw.APIVulkan,
			KernelTime: time.Second})
	}
	first, err := s.GeoMeanSpeedup(hw.APIVulkan, hw.APIOpenCL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		g, err := s.GeoMeanSpeedup(hw.APIVulkan, hw.APIOpenCL)
		if err != nil {
			t.Fatal(err)
		}
		if g != first {
			t.Fatalf("geomean not deterministic: call %d returned %v, first call %v", i, g, first)
		}
	}
}

func TestRunSuiteReturnsHardErrors(t *testing.T) {
	boom := fmt.Errorf("device melted")
	bad := &fakeBench{
		name:      "bad",
		apis:      []hw.API{hw.APIVulkan},
		workloads: testWorkloads("w0", "w1"),
		run: func(ctx *core.RunContext) (*core.Result, error) {
			if ctx.Workload.Label == "w1" {
				return nil, boom
			}
			return measured(ctx, time.Millisecond, time.Millisecond), nil
		},
	}
	for _, par := range []int{1, 8} {
		r := &core.Runner{Repetitions: 1, Parallelism: par, Seed: 1}
		_, err := r.RunSuite(platforms.GTX1050Ti(), []core.Benchmark{bad}, []hw.API{hw.APIVulkan})
		if err == nil || !errors.Is(err, boom) {
			t.Errorf("parallelism %d: expected hard error to surface, got %v", par, err)
		}
	}
}
