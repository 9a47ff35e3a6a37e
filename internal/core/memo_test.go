package core

import (
	"reflect"
	"slices"
	"testing"

	"vcomputebench/internal/faults"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/kernels"
	"vcomputebench/internal/platforms"
)

// memoStep adds push word 0 to every element of binding 0 and writes the sum
// to binding 1.
var memoStep = &kernels.Program{
	Name:              "core_memo_step",
	LocalSize:         kernels.D1(64),
	Bindings:          2,
	PushConstantWords: 1,
	Fn: func(wg *kernels.Workgroup) {
		in, out := wg.Buffer(0), wg.Buffer(1)
		add := wg.PushU32(0)
		wg.ForEach(func(inv *kernels.Invocation) {
			i := inv.GlobalX()
			out.StoreU32(inv, i, in.LoadU32(inv, i)+add)
		})
	},
}

// memoBench is a registered two-API workload that drives the device
// directly: the host fills a buffer, a chain of memoStep dispatches
// ping-pongs it with a second one, and the host checksums the result. Its
// knobs make the Vulkan path differ from the OpenCL one.
type memoBench struct {
	dispatches int
	// vulkanInput: the Vulkan host uploads one different word.
	vulkanInput bool
	// vulkanPeek >= 0: the Vulkan host reads the intermediate buffer after
	// that dispatch, which the OpenCL host never reads.
	vulkanPeek int
	// stream: the hosts upload a seeded input stream's prefix, and with
	// vulkanCopy the Vulkan host uploads a copy of it, which is not frozen.
	stream, vulkanCopy bool
	// done counts each API's dispatches that returned without error.
	done map[hw.API]int
}

var memoAPIs = []hw.API{hw.APIOpenCL, hw.APIVulkan}

func (m *memoBench) bench() Benchmark {
	m.done = map[hw.API]int{}
	return registered{&Descriptor{
		Name: "memo", Family: FamilyExtension, Application: "memo test", Dwarf: "-", Domain: "-",
		APIs:      memoAPIs,
		Workloads: func(hw.Class) []Workload { return []Workload{{Label: "256", Params: map[string]int{"n": 256}}} },
		Run:       m.run,
	}}
}

func (m *memoBench) run(ctx *RunContext) (*Result, error) {
	n := ctx.Workload.Param("n", 0)
	q, err := ctx.Device.Queue(hw.QueueCompute, 0)
	if err != nil {
		return nil, err
	}
	var bufs [2]*hw.Allocation
	for i := range bufs {
		if bufs[i], err = ctx.Device.Memory().Allocate(hw.HeapDeviceLocal, int64(n)*4); err != nil {
			return nil, err
		}
	}
	a, b := bufs[0], bufs[1]
	in := make(kernels.Words, n)
	for i := range in {
		in[i] = uint32(i)
	}
	if m.vulkanInput && ctx.API == hw.APIVulkan {
		in[n-1]++
	}
	upload := in
	if m.stream {
		upload = ctx.RandomI32(ctx.Seed, n, 0, 1000)
		if m.vulkanCopy && ctx.API == hw.APIVulkan {
			upload = slices.Clone(upload)
		}
	}
	a.Write(0, upload)
	sw := ctx.Stopwatch()
	for k := range m.dispatches {
		cfg := kernels.DispatchConfig{Groups: kernels.D1(n / 64), Push: kernels.Words{uint32(k + 1)}}
		if _, err := q.ExecuteKernel(memoStep, cfg, []hw.Binding{a.Bind(0, n), b.Bind(0, n)}, hw.Cost{}); err != nil {
			return nil, err
		}
		m.done[ctx.API]++
		a, b = b, a
		if k == m.vulkanPeek && ctx.API == hw.APIVulkan {
			a.Read(in, 0)
		}
	}
	ctx.Host.WaitQueue(q)
	res := ctx.Result(sw.Elapsed())
	res.Dispatches = m.dispatches
	a.Read(in, 0)
	res.Checksum = ChecksumWords(in)
	return res, nil
}

// memoSuite runs the workload's triple through RunSuite and returns its
// results by API, with the dispatches the suite executed and took from the
// memo.
func memoSuite(t *testing.T, r *Runner, b Benchmark) (res map[hw.API]*Result, executed, fromMemo uint64) {
	t.Helper()
	e0, m0 := hw.DispatchCounts()
	suite, err := r.RunSuite(platforms.GTX1050Ti(), []Benchmark{b}, memoAPIs)
	if err != nil {
		t.Fatal(err)
	}
	e1, m1 := hw.DispatchCounts()
	return suite.Results[b.Name()]["256"], e1 - e0, m1 - m0
}

// requireUnshared checks each suite result against a run of its cell alone,
// which no memo serves.
func requireUnshared(t *testing.T, r Runner, b Benchmark, got map[hw.API]*Result) {
	t.Helper()
	p := platforms.GTX1050Ti()
	for _, api := range memoAPIs {
		want, err := r.Run(p, b, api, b.Workloads(p.Profile.Class)[0])
		if err != nil {
			t.Fatalf("%s alone: %v", api, err)
		}
		if !reflect.DeepEqual(got[api], want) {
			t.Fatalf("%s: suite result %+v differs from the cell run alone %+v", api, got[api], want)
		}
	}
}

// TestMemoServesSiblingDispatches: the second API cell of a triple takes
// every dispatch from the memo, and each Result equals the cell run alone.
func TestMemoServesSiblingDispatches(t *testing.T) {
	m := &memoBench{dispatches: 6, vulkanPeek: -1}
	b := m.bench()
	r := Runner{Repetitions: 1, Seed: 1, Parallelism: 1}
	res, executed, fromMemo := memoSuite(t, &r, b)
	if executed != 6 || fromMemo != 6 {
		t.Fatalf("%d executed, %d from the memo; want 6 and 6", executed, fromMemo)
	}
	requireUnshared(t, r, b, res)
}

// TestMemoNamesStreamInputs: when both hosts upload a stream prefix, which
// the memo names by its stream, the Vulkan cell takes every dispatch from the
// memo. When the Vulkan host uploads a copy of the prefix instead, the memo
// names the copy by its hash, so no Vulkan dispatch matches and every one
// executes. The checksums agree, and each Result equals the cell run alone.
func TestMemoNamesStreamInputs(t *testing.T) {
	for _, c := range []struct {
		vulkanCopy       bool
		executed, shared uint64
	}{{false, 4, 4}, {true, 8, 0}} {
		m := &memoBench{dispatches: 4, vulkanPeek: -1, stream: true, vulkanCopy: c.vulkanCopy}
		b := m.bench()
		r := Runner{Repetitions: 1, Seed: 1, Parallelism: 1}
		res, executed, fromMemo := memoSuite(t, &r, b)
		if executed != c.executed || fromMemo != c.shared {
			t.Fatalf("copy %v: %d executed, %d from the memo; want %d and %d", c.vulkanCopy, executed, fromMemo, c.executed, c.shared)
		}
		if res[hw.APIOpenCL].Checksum != res[hw.APIVulkan].Checksum {
			t.Fatalf("copy %v: equal inputs gave different checksums", c.vulkanCopy)
		}
		requireUnshared(t, r, b, res)
	}
}

// TestMemoDifferentInputExecutesEverything: when the Vulkan host uploads one
// different word, no dispatch of the Vulkan cell matches one of the OpenCL
// cell: every dispatch executes in both, and each Result equals the cell run
// alone.
func TestMemoDifferentInputExecutesEverything(t *testing.T) {
	m := &memoBench{dispatches: 5, vulkanInput: true, vulkanPeek: -1}
	b := m.bench()
	r := Runner{Repetitions: 1, Seed: 1, Parallelism: 1}
	res, executed, fromMemo := memoSuite(t, &r, b)
	if executed != 10 || fromMemo != 0 {
		t.Fatalf("%d executed, %d from the memo; want 10 and 0", executed, fromMemo)
	}
	if res[hw.APIOpenCL].Checksum == res[hw.APIVulkan].Checksum {
		t.Fatal("different inputs gave equal checksums")
	}
	requireUnshared(t, r, b, res)
}

// TestMemoMissRerunsWithoutMemo: a Vulkan host that reads an intermediate the
// OpenCL host never read needs content the memo lacks. The attempt runs again
// without the memo, executing every dispatch, and its result equals the cell
// run alone and is stored like any clean first attempt.
func TestMemoMissRerunsWithoutMemo(t *testing.T) {
	m := &memoBench{dispatches: 6, vulkanPeek: 2}
	b := m.bench()
	r := Runner{Repetitions: 1, Seed: 1, Parallelism: 1, Cache: NewSnapshotCache(0)}
	res, executed, fromMemo := memoSuite(t, &r, b)
	if executed != 12 || fromMemo != 3 {
		t.Fatalf("%d executed, %d from the memo; want 12 (the leader's and the rerun's) and 3 (before the miss)", executed, fromMemo)
	}
	if st := r.Cache.Stats(); st.Entries != 2 {
		t.Fatalf("store holds %d entries, want both cells", st.Entries)
	}
	requireUnshared(t, Runner{Repetitions: 1, Seed: 1}, b, res)
}

// TestMemoHitsKeepFaultOrdinals: a fault planned at dispatch k of the Vulkan
// cell fires at k although dispatches 0..k-1 come from the memo, as it does
// in the cell run alone, and the retry takes every dispatch from the memo.
// After a miss the rerun keeps the plan and counts dispatch ordinals from 0
// again, so the fault fires at k there.
func TestMemoHitsKeepFaultOrdinals(t *testing.T) {
	const k = 3
	planner := plannerFunc(func(site faults.Site) *faults.Plan {
		if site.API != string(hw.APIVulkan) || site.Attempt > 0 {
			return nil
		}
		return &faults.Plan{Class: faults.DriverFault, Dispatch: k, Site: site}
	})
	for _, peek := range []int{-1, 1} {
		m := &memoBench{dispatches: 6, vulkanPeek: peek}
		b := m.bench()
		r := Runner{Repetitions: 1, Seed: 1, Parallelism: 1, Faults: planner, Retries: 1}
		res, executed, fromMemo := memoSuite(t, &r, b)
		// OpenCL, then the faulted Vulkan attempt, then its retry.
		wantDone := 6 + k + 6
		wantExecuted, wantMemo := uint64(6), uint64(k+6)
		if peek >= 0 {
			// The first attempt takes dispatches 0 and 1 from the memo, stops
			// at the peek and reruns without the memo; the rerun faults at k.
			// The retry stops at the peek too and reruns in full.
			wantDone = 6 + 2 + k + 2 + 6
			wantExecuted, wantMemo = 6+k+6, 2+2
		}
		if got := m.done[hw.APIOpenCL] + m.done[hw.APIVulkan]; got != wantDone {
			t.Fatalf("peek %d: %d dispatches returned, want %d", peek, got, wantDone)
		}
		if executed != wantExecuted || fromMemo != wantMemo {
			t.Fatalf("peek %d: %d executed, %d from the memo; want %d and %d", peek, executed, fromMemo, wantExecuted, wantMemo)
		}
		m.done = map[hw.API]int{}
		requireUnshared(t, r, b, res)
		if got := m.done[hw.APIVulkan]; got != k+6 {
			t.Fatalf("peek %d: the Vulkan cell alone returned %d dispatches, want %d", peek, got, k+6)
		}
	}
}

// TestMemoSharedByRunnableSiblings: the API cells of a triple run as one
// unit on a shared memo when at least two can execute, whether or not the
// workload declares per-API device work; otherwise each cell is a unit of its
// own, scheduled as before the memo.
func TestMemoSharedByRunnableSiblings(t *testing.T) {
	m := &memoBench{dispatches: 1, vulkanPeek: -1}
	reg := m.bench().(registered)
	shape := func(p *platforms.Platform, apis []hw.API) (units []int, shared []bool) {
		for _, u := range suiteUnits(p, enumerateSuite(p, []Benchmark{reg}, apis)) {
			units, shared = append(units, len(u.cells)), append(shared, u.shared)
		}
		return units, shared
	}
	gtx := platforms.GTX1050Ti()
	if units, shared := shape(gtx, memoAPIs); !reflect.DeepEqual(units, []int{2}) || !shared[0] {
		t.Fatalf("two runnable cells: units %v shared %v, want one shared unit of 2", units, shared)
	}
	cells := enumerateSuite(gtx, []Benchmark{reg}, memoAPIs)
	if !sharedTriple(gtx, cells) {
		t.Fatal("sharedTriple = false, want true")
	}
	nexus, err := platforms.ByID(platforms.IDNexus)
	if err != nil {
		t.Fatal(err)
	}
	if units, shared := shape(nexus, []hw.API{hw.APIOpenCL, hw.APICUDA}); !reflect.DeepEqual(units, []int{1, 1}) || shared[0] || shared[1] {
		t.Fatalf("one runnable cell: units %v shared %v, want two unshared units of 1", units, shared)
	}
	reg.d.PerAPIDeviceWork = true
	if units, shared := shape(gtx, memoAPIs); !reflect.DeepEqual(units, []int{2}) || !shared[0] {
		t.Fatalf("per-API device work: units %v shared %v, want one shared unit of 2", units, shared)
	}
}

// plannerFunc adapts a function to FaultPlanner.
type plannerFunc func(site faults.Site) *faults.Plan

func (f plannerFunc) Plan(site faults.Site) *faults.Plan { return f(site) }
