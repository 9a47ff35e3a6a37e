package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"vcomputebench/internal/codeversion"
	"vcomputebench/internal/core"
	"vcomputebench/internal/expected"
	"vcomputebench/internal/experiments"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	_ "vcomputebench/internal/rodinia/suite" // registers the benchmarks, as cmd/vcbench does
	"vcomputebench/internal/serve"
)

// The traced run re-drives a workload in this process through the entry
// points the CLI uses (experiments.All()[i].Run with the CLI's options, a
// core.TieredStore over a core.DiskStore, serve.New(...).Handler()) and
// records a span around every call it makes into a layer. Nothing inside the
// program is instrumented, so calls the program makes internally, such as
// Snapshot.Replay after a store hit, are timed by repeating them on the same
// inputs after the pass.

type span struct{ start, end time.Time }

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// getSpan is one Get on the traced store.
type getSpan struct {
	span
	key  core.SnapshotKey
	snap *core.Snapshot
	mem  bool // answered by the memory tier; otherwise the call reached disk
}

// execSpan is one cell execution: from the Get that missed to the Put of the
// same key.
type execSpan struct {
	span
	key  core.SnapshotKey
	snap *core.Snapshot
}

// tracedStore is the CLI's store composition with a span around every Get
// and Put. Which tier answers a Get is read from the memory tier just before
// the call.
type tracedStore struct {
	*core.TieredStore
	mem *core.SnapshotCache

	mu     sync.Mutex
	gets   []getSpan
	puts   []span
	execs  []execSpan
	missed map[core.SnapshotKey]time.Time
}

func (t *tracedStore) Get(k core.SnapshotKey) (*core.Snapshot, bool) {
	mem := t.mem.Peek(k)
	start := time.Now()
	snap, ok := t.TieredStore.Get(k)
	end := time.Now()
	t.mu.Lock()
	t.gets = append(t.gets, getSpan{span{start, end}, k, snap, mem && ok})
	if !ok {
		t.missed[k] = end
	}
	t.mu.Unlock()
	return snap, ok
}

func (t *tracedStore) Put(k core.SnapshotKey, s *core.Snapshot) {
	start := time.Now()
	t.TieredStore.Put(k, s)
	end := time.Now()
	t.mu.Lock()
	t.puts = append(t.puts, span{start, end})
	if missed, ok := t.missed[k]; ok {
		t.execs = append(t.execs, execSpan{span{missed, start}, k, s})
		delete(t.missed, k)
	}
	t.mu.Unlock()
}

// openStore opens the CLI's store composition over dir, traced or not, and
// returns the time core.OpenDiskStore took.
func openStore(dir string, traced bool) (core.SnapshotStore, *core.TieredStore, *tracedStore, time.Duration, error) {
	start := time.Now()
	disk, err := core.OpenDiskStore(dir, codeversion.Fingerprint(), nil)
	open := time.Since(start)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	mem := core.NewSnapshotCache(0)
	tiered := core.NewTieredStore(mem, disk)
	if !traced {
		return tiered, tiered, nil, open, nil
	}
	ts := &tracedStore{TieredStore: tiered, mem: mem, missed: map[core.SnapshotKey]time.Time{}}
	return ts, tiered, ts, open, nil
}

// timeFingerprint times the process's first codeversion.Fingerprint call, the
// only one that computes it, and checks it against the binary's.
func (b *bench) timeFingerprint(o *outcome) {
	start := time.Now()
	fp := codeversion.Fingerprint()
	o.set("codeversion.fingerprint_ms", ms(time.Since(start)), 1)
	if fp != b.codeVersion {
		o.problem(fmt.Errorf("in-process code version %s, vcbench -code-version %s", fp, b.codeVersion))
	}
}

// resolver maps store keys back to the registry values the program's
// functions take, and times calls the program makes internally.
type resolver struct {
	runner    *core.Runner
	platforms map[string]*platforms.Platform
}

func newResolver() *resolver {
	// Repetitions and Seed as every workload runs them (-reps 1, -seed 42).
	return &resolver{runner: &core.Runner{Repetitions: 1, Seed: 42}, platforms: map[string]*platforms.Platform{}}
}

func (r *resolver) platform(id string) *platforms.Platform {
	if p, ok := r.platforms[id]; ok {
		return p
	}
	p, err := platforms.ByID(id)
	if err != nil {
		p = nil
	}
	r.platforms[id] = p
	return p
}

// replay times Snapshot.Replay of a stored snapshot under its key's
// registered platform; ok is false when that platform's execution
// fingerprint differs from the key's.
func (r *resolver) replay(k core.SnapshotKey, snap *core.Snapshot) (time.Duration, *core.Result, bool) {
	p := r.platform(k.Platform)
	if p == nil || snap == nil {
		return 0, nil, false
	}
	start := time.Now()
	res, err := snap.Replay(p)
	return time.Since(start), res, err == nil
}

// cellKey times Runner.CellKey for the key's cell.
func (r *resolver) cellKey(k core.SnapshotKey) (time.Duration, bool) {
	p := r.platform(k.Platform)
	if p == nil {
		return 0, false
	}
	b, err := core.Get(k.Benchmark)
	if err != nil {
		return 0, false
	}
	for _, w := range b.Workloads(p.Profile.Class) {
		if w.Label == k.Workload {
			start := time.Now()
			r.runner.CellKey(p, b, k.API, w)
			return time.Since(start), true
		}
	}
	return 0, false
}

// batchTrace is one in-process batch pass.
type batchTrace struct {
	wall, open      time.Duration
	runs            []span // one per experiment Run
	encode, compare time.Duration
	store           *tracedStore // nil on untraced passes
}

// inProcessPass re-drives a batch workload: with check unset the cold
// experiment exp runs into an empty store and its document is encoded and
// compared with its golden (the cold workloads); otherwise every experiment
// with published values runs over a copy of the warm store and is compared
// with them (warm-check-all).
func (b *bench) inProcessPass(o *outcome, check bool, exp string, traced bool) (*batchTrace, error) {
	dir, err := b.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	if check {
		if err := cloneStore(b.warm, storeDir); err != nil {
			return nil, err
		}
	}
	tr := &batchTrace{}
	start := time.Now()
	cache, _, ts, open, err := openStore(storeDir, traced)
	if err != nil {
		return nil, err
	}
	tr.open, tr.store = open, ts
	opts := experiments.Options{
		Repetitions: 1, Parallelism: runtime.NumCPU(), Seed: 42,
		Context: context.Background(), RetryBackoff: core.DefaultRetryBackoff, Cache: cache,
	}
	var failure error
	if check {
		s := time.Now()
		failure = expected.Validate(experiments.IDs())
		tr.compare += time.Since(s)
	}
	for _, e := range experiments.All() {
		if failure != nil {
			break
		}
		if check && !expected.HasExpectations(e.ID) || !check && e.ID != exp {
			continue
		}
		s := time.Now()
		doc, err := e.Run(opts)
		tr.runs = append(tr.runs, span{s, time.Now()})
		if err != nil {
			failure = fmt.Errorf("%s: %w", e.ID, err)
			break
		}
		s = time.Now()
		if check {
			for _, c := range expected.CompareDocument(e.ID, doc) {
				if !c.Pass && failure == nil {
					failure = fmt.Errorf("check failed: %s", c)
				}
			}
			tr.compare += time.Since(s)
			continue
		}
		data, err := report.EncodeJSON([]*report.Document{doc})
		tr.encode += time.Since(s)
		if err == nil && !bytes.Equal(data, b.goldens[e.ID+".json"]) {
			err = fmt.Errorf("in-process %s differs from its golden", e.ID)
		}
		if err != nil {
			failure = err
		}
	}
	tr.wall = time.Since(start)
	o.op(failure)
	return tr, nil
}

// layerTimes pools the per-call samples of traced passes.
type layerTimes struct {
	passes                 int
	memGet, diskGet, put   []float64 // µs
	replay, cellKey        []float64 // µs
	open                   []float64 // ms
	executions, dispatches int
	execute, dispatchTime  time.Duration // dispatchTime: executions whose dispatch count is known
	self, encode, compare  time.Duration
	attributed             []float64 // s: open + experiment runs + encode + compare, per pass
	r                      *resolver
}

// addBatch analyses one traced batch pass after its clock stopped.
func (lt *layerTimes) addBatch(tr *batchTrace) {
	lt.passes++
	lt.open = append(lt.open, ms(tr.open))
	ts := tr.store
	children := make([]span, 0, len(ts.gets)*2+len(ts.puts)+len(ts.execs))
	keys := map[core.SnapshotKey]bool{}
	for _, g := range ts.gets {
		if g.mem {
			lt.memGet = append(lt.memGet, us(g.dur()))
		} else {
			lt.diskGet = append(lt.diskGet, us(g.dur()))
		}
		children = append(children, g.span)
		if d, _, ok := lt.r.replay(g.key, g.snap); ok {
			lt.replay = append(lt.replay, us(d))
			// The runner replays right after the Get returns.
			children = append(children, span{g.end, g.end.Add(d)})
		}
		keys[g.key] = true
	}
	for k := range keys {
		if d, ok := lt.r.cellKey(k); ok {
			lt.cellKey = append(lt.cellKey, us(d))
		}
	}
	for _, p := range ts.puts {
		lt.put = append(lt.put, us(p.dur()))
		children = append(children, p)
	}
	for _, e := range ts.execs {
		children = append(children, e.span)
		lt.executions++
		lt.execute += e.dur()
		if _, res, ok := lt.r.replay(e.key, e.snap); ok {
			lt.dispatches += res.Dispatches
			lt.dispatchTime += e.dur()
		}
	}
	attributed := tr.open + tr.encode + tr.compare
	for _, run := range tr.runs {
		attributed += run.dur()
		lt.self += run.dur() - covered(run, children)
	}
	lt.attributed = append(lt.attributed, attributed.Seconds())
	lt.encode += tr.encode
	lt.compare += tr.compare
}

// covered is the length of the union of the spans, clipped to within.
func covered(within span, spans []span) time.Duration {
	var in []span
	for _, s := range spans {
		if !s.end.After(within.start) || !s.start.Before(within.end) {
			continue
		}
		if s.start.Before(within.start) {
			s.start = within.start
		}
		if s.end.After(within.end) {
			s.end = within.end
		}
		in = append(in, s)
	}
	sort.Slice(in, func(i, j int) bool { return in[i].start.Before(in[j].start) })
	var total time.Duration
	for i := 0; i < len(in); {
		cur := in[i]
		for i++; i < len(in) && !in[i].start.After(cur.end); i++ {
			if in[i].end.After(cur.end) {
				cur.end = in[i].end
			}
		}
		total += cur.dur()
	}
	return total
}

// set reports the pooled samples as per-layer metrics: per-call medians, and
// per-pass totals for the layers a pass calls many times.
func (lt *layerTimes) set(o *outcome) {
	n := float64(lt.passes)
	o.set("core.store.mem.get_us", median(lt.memGet), len(lt.memGet))
	o.set("core.store.disk.get_us", median(lt.diskGet), len(lt.diskGet))
	o.set("core.store.disk.put_us", median(lt.put), len(lt.put))
	o.set("core.snapshot.replay_us", median(lt.replay), len(lt.replay))
	o.set("core.snapshot.replay_p99_us", quantile(lt.replay, 0.99), len(lt.replay))
	o.set("core.runner.cellkey_us", median(lt.cellKey), len(lt.cellKey))
	o.set("core.store.open_ms", median(lt.open), len(lt.open))
	o.set("core.runner.execute_s", lt.execute.Seconds()/n, lt.executions)
	o.set("sim.dispatches", float64(lt.dispatches)/n, lt.executions)
	if lt.dispatches > 0 {
		o.set("core.runner.execute_us_per_dispatch", us(lt.dispatchTime)/float64(lt.dispatches), lt.dispatches)
	}
	o.set("experiments.self_ms", ms(lt.self)/n, lt.passes)
	o.set("report.encode_json_ms", ms(lt.encode)/n, lt.passes)
	o.set("expected.compare_ms", ms(lt.compare)/n, lt.passes)
}

// setStoreCounts reports the store counters read in an untraced pass.
func setStoreCounts(o *outcome, executed, replayed, diskBytes, decodeFailures float64) {
	if decodeFailures > 0 {
		o.problem(fmt.Errorf("%g store entries failed to decode", decodeFailures))
	}
	o.set("core.runner.cells_executed", executed, 1)
	o.set("core.runner.cells_replayed", replayed, 1)
	if executed+replayed > 0 {
		o.set("core.store.hit_ratio", replayed/(executed+replayed), int(executed+replayed))
	}
	o.set("core.store.disk.bytes", diskBytes, 1)
	o.set("core.store.disk.decode_failures", decodeFailures, 1)
}

// setTraceChecks reports how much the trace slowed the work down and how much
// of the end-to-end time its spans leave unexplained. The spans carry the
// trace's own overhead, so the attributed time is deflated by it first.
func setTraceChecks(o *outcome, traced, untraced, endToEnd, attributed []float64) {
	t, u := median(traced), median(untraced)
	if t <= 0 || u <= 0 {
		return
	}
	o.set("trace.overhead_pct", 100*(t-u)/u, len(traced)+len(untraced))
	if e := median(endToEnd); e > 0 {
		o.set("unexplained_pct", 100*(e-median(attributed)*u/t)/e, len(endToEnd)+len(attributed))
	}
}

// traceCold returns the traced run of a cold workload that reproduces exp.
func traceCold(exp string) runFunc {
	return func(b *bench, _ int64, d time.Duration) (*outcome, error) {
		return traceBatch(b, d, false, exp, b.coldPass(exp))
	}
}

func traceWarm(b *bench, _ int64, d time.Duration) (*outcome, error) {
	return traceBatch(b, d, true, "", b.warmPass)
}

// traceBatch runs untraced vcbench passes for the counts and the end-to-end
// wall, then alternates traced and untraced in-process passes for d.
func traceBatch(b *bench, d time.Duration, check bool, exp string, pass func(*outcome) (*proc, storeStats, error)) (*outcome, error) {
	o := newOutcome()
	b.timeFingerprint(o)
	var endToEnd []float64
	for i := 0; i < 5; i++ {
		p, st, err := pass(o)
		if err != nil {
			return nil, err
		}
		if p != nil {
			endToEnd = append(endToEnd, p.wall.Seconds())
			setStoreCounts(o, float64(st.executed), float64(st.replayed), float64(st.diskBytes), float64(st.decodeFailures))
		}
	}
	until := time.Now().Add(d)
	lt := &layerTimes{r: newResolver()}
	var traced, untraced []float64
	for len(untraced) == 0 || time.Now().Before(until) {
		on := len(traced) <= len(untraced)
		tr, err := b.inProcessPass(o, check, exp, on)
		if err != nil {
			return nil, err
		}
		if on {
			traced = append(traced, tr.wall.Seconds())
			lt.addBatch(tr)
		} else {
			untraced = append(untraced, tr.wall.Seconds())
		}
	}
	lt.set(o)
	fp := o.values["codeversion.fingerprint_ms"].v / 1e3
	attributed := make([]float64, len(lt.attributed))
	for i, a := range lt.attributed {
		attributed[i] = a + fp // every vcbench process computes the fingerprint once
	}
	setTraceChecks(o, traced, untraced, endToEnd, attributed)
	return o, nil
}

// serveTrace is one in-process pass over the serve stream.
type serveTrace struct {
	wall          time.Duration
	open          time.Duration
	handler       []float64 // µs per request
	bodies        [][]byte  // traced passes only
	store         *tracedStore
	disk          core.TierStats // the disk tier after the pass
	allocs, bytes float64        // per request, untraced passes only
}

// inProcessPass answers the stream one request at a time through
// serve.New(...).Handler() over a fresh copy of the warm store, with the
// serve CLI's defaults. serve.Config.Store takes the traced composition;
// the CLI's -store puts the disk tier behind a circuit breaker, which costs a
// mutex and an atomic load per Get.
func (l *serveLoad) inProcessPass(o *outcome, traced bool) (*serveTrace, error) {
	dir, err := l.b.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	if err := cloneStore(l.b.warm, storeDir); err != nil {
		return nil, err
	}
	st := &serveTrace{}
	cache, tiered, ts, open, err := openStore(storeDir, traced)
	if err != nil {
		return nil, err
	}
	st.open, st.store = open, ts
	srv, err := serve.New(serve.Config{
		Store: cache, Repetitions: 1, Seed: 42, Retries: 1,
		RetryBackoff: core.DefaultRetryBackoff, RequestTimeout: 30 * time.Second,
		CodeVersion: codeversion.Fingerprint(),
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	n := len(l.stream)
	st.handler = make([]float64, n)
	if traced {
		st.bodies = make([][]byte, n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i, r := range l.stream {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		st.handler[i] = us(time.Since(t0))
		if traced {
			st.bodies[i] = w.Body.Bytes()
		}
		err := l.checkRepeat(r, crc32.ChecksumIEEE(w.Body.Bytes()))
		if w.Code != http.StatusOK {
			err = fmt.Errorf("in-process %s: status %d", r.body, w.Code)
		}
		o.op(err)
	}
	st.wall = time.Since(start)
	runtime.ReadMemStats(&after)
	stats := tiered.Stats()
	st.disk = stats.Tiers[len(stats.Tiers)-1]
	if !traced {
		harnessAllocs, harnessBytes := requestAllocs(l.stream)
		st.allocs = float64(after.Mallocs-before.Mallocs)/float64(n) - harnessAllocs
		st.bytes = float64(after.TotalAlloc-before.TotalAlloc)/float64(n) - harnessBytes
	}
	return st, nil
}

// requestAllocs measures the allocations per request of the in-process
// harness alone (request, recorder, checksum), to subtract from the pass.
func requestAllocs(stream []request) (allocs, size float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range stream {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(r.body))
		w := httptest.NewRecorder()
		_, _ = req, w
	}
	runtime.ReadMemStats(&after)
	n := float64(len(stream))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// traceServe runs the closed loop on one untraced serve process for half of
// d, for the counters and the client-observed latency, then alternates traced
// and untraced in-process passes over the same stream for the rest.
func traceServe(b *bench, seed int64, d time.Duration) (*outcome, error) {
	o := newOutcome()
	b.timeFingerprint(o)
	l, err := newServeLoad(b, seed)
	if err != nil {
		return nil, err
	}
	until := time.Now().Add(d)
	run, err := l.run(o, d/2, 0)
	if err != nil {
		return nil, err
	}
	c := run.counters
	o.set("serve.replays_total", c["vcbench_serve_replays_total"], 1)
	o.set("serve.executions_total", c["vcbench_serve_executions_total"], 1)
	o.set("serve.followers_total", c["vcbench_serve_singleflight_followers_total"], 1)
	o.set("serve.breaker_trips_total", c["vcbench_serve_breaker_trips_total"], 1)

	r := newResolver()
	var handler, self, memGet, diskGet, replay, cellKey, encode, open []float64
	var traced, untraced, allocs, allocBytes []float64
	var disk core.TierStats // summed decode failures, the last pass's size
	for len(untraced) == 0 || time.Now().Before(until) {
		on := len(traced) <= len(untraced)
		st, err := l.inProcessPass(o, on)
		if err != nil {
			return nil, err
		}
		open = append(open, ms(st.open))
		disk.Bytes = st.disk.Bytes
		disk.DecodeFailures += st.disk.DecodeFailures
		if !on {
			untraced = append(untraced, st.wall.Seconds())
			allocs = append(allocs, st.allocs)
			allocBytes = append(allocBytes, st.bytes)
			continue
		}
		traced = append(traced, st.wall.Seconds())
		if len(st.store.gets) != len(l.stream) {
			return nil, fmt.Errorf("traced pass made %d store lookups for %d requests", len(st.store.gets), len(l.stream))
		}
		for i, g := range st.store.gets {
			get := us(g.dur())
			if g.mem {
				memGet = append(memGet, get)
			} else {
				diskGet = append(diskGet, get)
			}
			rd, _, ok1 := r.replay(g.key, g.snap)
			kd, ok2 := r.cellKey(g.key)
			docs, _, _, err := report.DecodeWire(st.bodies[i])
			if !ok1 || !ok2 || err != nil {
				return nil, fmt.Errorf("cannot re-time request %s", l.stream[i].body)
			}
			start := time.Now()
			_, err = report.EncodeWire(docs, nil)
			ed := time.Since(start)
			if err != nil {
				return nil, err
			}
			replay, cellKey, encode = append(replay, us(rd)), append(cellKey, us(kd)), append(encode, us(ed))
			handler = append(handler, st.handler[i])
			// resolve calls CellKey and the runner derives the same key again.
			self = append(self, st.handler[i]-get-2*us(kd)-us(rd)-us(ed))
		}
	}
	var lat []float64
	for _, a := range run.answers {
		lat = append(lat, a.ms)
	}
	o.set("serve.handler_us", median(handler), len(handler))
	o.set("serve.handler_self_us", median(self), len(self))
	o.set("core.store.mem.get_us", median(memGet), len(memGet))
	o.set("core.store.disk.get_us", median(diskGet), len(diskGet))
	o.set("core.snapshot.replay_us", median(replay), len(replay))
	o.set("core.snapshot.replay_p99_us", quantile(replay, 0.99), len(replay))
	o.set("core.runner.cellkey_us", median(cellKey), len(cellKey))
	o.set("report.encode_wire_us", median(encode), len(encode))
	o.set("core.store.open_ms", median(open), len(open))
	o.set("serve.allocs_per_req", median(allocs), len(allocs))
	o.set("serve.bytes_per_req", median(allocBytes), len(allocBytes))
	p50 := 1e3 * median(lat)
	o.set("net.http_overhead_us", p50-median(handler), len(lat))

	setStoreCounts(o, c["vcbench_serve_store_executions_total"], c["vcbench_serve_store_hits_total"],
		float64(disk.Bytes), float64(disk.DecodeFailures))
	setTraceChecks(o, traced, untraced, []float64{p50}, []float64{median(handler)})
	return o, nil
}
