package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vcomputebench/internal/core"
	"vcomputebench/internal/hw"
	"vcomputebench/internal/platforms"
	"vcomputebench/internal/report"
	_ "vcomputebench/internal/rodinia/suite"
)

// newTestServer builds a server over an in-memory store with fast runner
// settings; override fields via mutate.
func newTestServer(t *testing.T, mutate func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Repetitions: 1,
		Seed:        42,
		CodeVersion: "test-build",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.cancelBase)
	return s
}

// simulateBody is the canonical test cell: a fast micro benchmark on the
// desktop platform.
func simulateBody(extra string) string {
	body := fmt.Sprintf(`{"platform":%q,"benchmark":"vectoradd","api":"vulkan"%s}`, platforms.IDGTX1050Ti, extra)
	return body
}

// postSimulate issues one POST /v1/simulate against the handler and returns
// the recorded response.
func postSimulate(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeEnvelope decodes a wire envelope body, failing the test on malformed
// JSON.
func decodeEnvelope(t *testing.T, body []byte) ([]*report.Document, *report.WireError, bool) {
	t.Helper()
	docs, werr, degraded, err := report.DecodeWire(body)
	if err != nil {
		t.Fatalf("decoding envelope %q: %v", body, err)
	}
	return docs, werr, degraded
}

// TestServeWarmStoreDeterminism is the serving determinism contract: on a warm
// store, N concurrent identical requests produce byte-identical bodies and
// execute nothing — Stats().Misses stays at the single warm-up miss.
// Run under -race this doubles as the data-race check on the whole hot path.
func TestServeWarmStoreDeterminism(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	warm := postSimulate(t, h, simulateBody(""))
	if warm.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", warm.Code, warm.Body.String())
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("warm-up executed %d cells, want 1", got)
	}
	want := warm.Body.Bytes()

	const n = 24
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postSimulate(t, h, simulateBody(""))
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], want) {
			t.Fatalf("request %d: body differs from warm-up:\n%s\nvs\n%s", i, bodies[i], want)
		}
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("warm store served %d executions, want 1 (replay-only hot path)", got)
	}
	// Concurrent identical requests may collapse onto one flight: its leader
	// replays and its followers share the leader's bytes without counting a
	// replay. Every request is one or the other.
	replays, followers := s.metrics.replays.Load(), s.metrics.followers.Load()
	if replays < 1 || replays+followers != n {
		t.Fatalf("replay counter = %d, followers = %d; want at least 1 replay and %d requests in all", replays, followers, n)
	}
	docs, werr, degraded := decodeEnvelope(t, want)
	if werr != nil || degraded || len(docs) != 1 || len(docs[0].Results) != 1 {
		t.Fatalf("clean envelope decoded to docs=%d werr=%v degraded=%v", len(docs), werr, degraded)
	}
}

// TestServeSingleflightColdStore: concurrent identical requests against a cold
// store still execute the cell exactly once — either the flight collapses them
// onto one leader, or late arrivals replay the freshly stored snapshot. Both
// paths answer the same bytes.
func TestServeSingleflightColdStore(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	const n = 16
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := postSimulate(t, h, simulateBody(""))
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: body differs:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("cold-store burst executed %d cells, want exactly 1", got)
	}
}

// TestServeKnobOverrideReplays: a request overriding timing-only driver knobs
// must replay the base platform's snapshot (the knobs are outside the
// execution fingerprint), not execute — and must answer different timings
// than the base cell.
func TestServeKnobOverrideReplays(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	base := postSimulate(t, h, simulateBody(""))
	if base.Code != http.StatusOK {
		t.Fatalf("base status %d: %s", base.Code, base.Body.String())
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("base executed %d cells, want 1", got)
	}

	over := postSimulate(t, h, simulateBody(`,"driver_knobs":{"kernel_launch_overhead_ns":5000000}`))
	if over.Code != http.StatusOK {
		t.Fatalf("override status %d: %s", over.Code, over.Body.String())
	}
	if got := s.Stats().Misses; got != 1 {
		t.Fatalf("knob override executed a cell (executions %d); want replay of the base snapshot", got)
	}
	if bytes.Equal(base.Body.Bytes(), over.Body.Bytes()) {
		t.Fatal("knob override answered the base body; the override was not applied")
	}
	docs, _, _ := decodeEnvelope(t, over.Body.Bytes())
	if len(docs) != 1 {
		t.Fatalf("override envelope holds %d documents, want 1", len(docs))
	}
	foundNote := false
	for _, note := range docs[0].Notes {
		if strings.Contains(note, "kernel_launch_overhead_ns") {
			foundNote = true
		}
	}
	if !foundNote {
		t.Fatalf("override document carries no knob note: %v", docs[0].Notes)
	}
	// The same override twice is byte-identical (the knob replay is as
	// deterministic as the base replay).
	again := postSimulate(t, h, simulateBody(`,"driver_knobs":{"kernel_launch_overhead_ns":5000000}`))
	if !bytes.Equal(over.Body.Bytes(), again.Body.Bytes()) {
		t.Fatal("repeated knob override answered different bytes")
	}
}

// TestServeBadRequests pins the 400/405 half of the status table: every
// malformed or unresolvable request is refused with a structured envelope
// before touching the runner.
func TestServeBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()

	cases := []struct {
		name   string
		method string
		body   string
		status int
	}{
		{"get method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"malformed json", http.MethodPost, "{not json", http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"platform":"gtx1050ti","benchmark":"vectoradd","api":"vulkan","bogus":1}`, http.StatusBadRequest},
		{"unknown platform", http.MethodPost, `{"platform":"riva-tnt2","benchmark":"vectoradd","api":"vulkan"}`, http.StatusBadRequest},
		{"unknown benchmark", http.MethodPost, `{"platform":"gtx1050ti","benchmark":"quake","api":"vulkan"}`, http.StatusBadRequest},
		{"unknown api", http.MethodPost, `{"platform":"gtx1050ti","benchmark":"vectoradd","api":"directx"}`, http.StatusBadRequest},
		{"unknown workload", http.MethodPost, `{"platform":"gtx1050ti","benchmark":"vectoradd","api":"vulkan","workload":"galactic"}`, http.StatusBadRequest},
		{"unknown knob", http.MethodPost, simulateBody(`,"driver_knobs":{"warp_size":64}`), http.StatusBadRequest},
		{"negative knob", http.MethodPost, simulateBody(`,"driver_knobs":{"sync_latency_ns":-1}`), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, "/v1/simulate", strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			docs, werr, _ := decodeEnvelope(t, w.Body.Bytes())
			if len(docs) != 0 || werr == nil || werr.Class != "bad-request" {
				t.Fatalf("envelope docs=%d werr=%+v, want error class bad-request", len(docs), werr)
			}
		})
	}
	if got := s.Stats().Misses; got != 0 {
		t.Fatalf("bad requests executed %d cells, want 0", got)
	}
}

// TestServeExcludedCell: a cell the paper excludes answers 422 with the
// taxonomy's excluded class — a permanent property of the request, not a
// server failure.
func TestServeExcludedCell(t *testing.T) {
	s := newTestServer(t, nil)
	// backprop failed to run on the Nexus in the paper (§V-B2).
	body := fmt.Sprintf(`{"platform":%q,"benchmark":"backprop","api":"opencl"}`, platforms.IDNexus)
	w := postSimulate(t, s.Handler(), body)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
	}
	_, werr, _ := decodeEnvelope(t, w.Body.Bytes())
	if werr == nil || werr.Class != string(core.FailureExcluded) {
		t.Fatalf("error = %+v, want class %q", werr, core.FailureExcluded)
	}
}

// TestServePanicRecovery: a panicking handler answers a structured 500 reusing
// the permanent failure class, and the server keeps serving.
func TestServePanicRecovery(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) { cfg.Log = io.Discard })
	h := s.recovered(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("exploding handler")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/simulate", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	_, werr, _ := decodeEnvelope(t, w.Body.Bytes())
	if werr == nil || werr.Class != string(core.FailurePermanent) || !strings.Contains(werr.Message, "exploding handler") {
		t.Fatalf("error = %+v, want permanent class carrying the panic value", werr)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	// The process survived: the real handler still answers.
	if w := postSimulate(t, s.Handler(), simulateBody("")); w.Code != http.StatusOK {
		t.Fatalf("request after recovered panic: status %d", w.Code)
	}
}

// TestServeDrainingRefusesWork: once the drain begins, readyz flips to 503 and
// new simulate requests are refused with the draining class and a Retry-After.
func TestServeDrainingRefusesWork(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	close(s.draining)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", w.Code)
	}

	sim := postSimulate(t, h, simulateBody(""))
	if sim.Code != http.StatusServiceUnavailable {
		t.Fatalf("simulate while draining: status %d, want 503", sim.Code)
	}
	if ra := sim.Header().Get("Retry-After"); ra == "" {
		t.Fatal("draining 503 carries no Retry-After header")
	}
	_, werr, _ := decodeEnvelope(t, sim.Body.Bytes())
	if werr == nil || werr.Class != "draining" {
		t.Fatalf("error = %+v, want class draining", werr)
	}

	// Liveness is unaffected: the process is up, just not accepting work.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d, want 200", w.Code)
	}
}

// TestServeGracefulDrain runs the real listener lifecycle: serve on an
// ephemeral port, answer a request, cancel the context, and require a nil
// return (the CLI's exit 0) with the listener closed.
func TestServeGracefulDrain(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.DrainTimeout = 5 * time.Second
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(simulateBody("")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d, want 200", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drain returned %v, want nil (clean exit)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not complete")
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

// TestServeMetricsEndpoint smoke-checks the exposition after mixed traffic:
// every series the dashboard scrapes is present.
func TestServeMetricsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	postSimulate(t, h, simulateBody(""))
	postSimulate(t, h, simulateBody(""))
	postSimulate(t, h, "{bad")

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, series := range []string{
		`vcbench_serve_requests_total{code="200"} 2`,
		`vcbench_serve_requests_total{code="400"} 1`,
		"vcbench_serve_executions_total 1",
		"vcbench_serve_replays_total 1",
		"vcbench_serve_shed_total 0",
		"vcbench_serve_latency_seconds_count 3",
		"vcbench_serve_store_executions_total 1",
	} {
		if !strings.Contains(body, series) {
			t.Fatalf("metrics output missing %q:\n%s", series, body)
		}
	}
}

// TestServeCodeVersion: the endpoint reports the configured build fingerprint.
func TestServeCodeVersion(t *testing.T) {
	s := newTestServer(t, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/code-version", nil))
	var out map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["code_version"] != "test-build" {
		t.Fatalf("code_version = %q, want test-build", out["code_version"])
	}
}

// TestChaosServeShedsWhenSaturated pins the admission contract: with one
// executor held and no queue, a cold cell is shed with 429 + Retry-After while
// a warm cell still replays 200 — replays are structurally exempt from
// shedding — and the shed cell succeeds once capacity returns.
func TestChaosServeShedsWhenSaturated(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Executors = 1
		cfg.QueueDepth = -1 // shed the moment the pool is busy
	})
	h := s.Handler()

	// Warm one cell while capacity exists.
	if w := postSimulate(t, h, simulateBody("")); w.Code != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", w.Code, w.Body.String())
	}

	// Occupy the only executor slot, deterministically saturating the pool.
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cold := fmt.Sprintf(`{"platform":%q,"benchmark":"membandwidth","api":"opencl"}`, platforms.IDGTX1050Ti)
	shed := postSimulate(t, h, cold)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated cold request: status %d, want 429: %s", shed.Code, shed.Body.String())
	}
	if ra := shed.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("shed Retry-After = %q, want \"1\"", ra)
	}
	_, werr, _ := decodeEnvelope(t, shed.Body.Bytes())
	if werr == nil || werr.Class != "shed" {
		t.Fatalf("shed error = %+v, want class shed", werr)
	}
	if got := s.metrics.shed.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// The warm cell replays through the saturation untouched.
	if w := postSimulate(t, h, simulateBody("")); w.Code != http.StatusOK {
		t.Fatalf("warm replay under saturation: status %d, want 200 (replays are never shed)", w.Code)
	}

	// Capacity returns; the shed cell now executes.
	release()
	if w := postSimulate(t, h, cold); w.Code != http.StatusOK {
		t.Fatalf("retry after release: status %d: %s", w.Code, w.Body.String())
	}
	if got := s.metrics.executions.Load(); got != 2 {
		t.Fatalf("executions = %d, want 2 (warm-up and the retried cold cell)", got)
	}
	// Each request made exactly one store lookup, the shed one included.
	if st := s.Stats(); st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("store lookups: %d misses, %d hits; want 3 misses (warm-up, shed, retry) and 1 hit (the warm replay)",
			st.Misses, st.Hits)
	}
}

// vanishingStore models an entry evicted between looking resident and the
// lookup: a side-effect-free probe (Peek) always answers true, yet Get always
// misses.
type vanishingStore struct{ *core.SnapshotCache }

func (vanishingStore) Peek(core.SnapshotKey) bool { return true }

func (vanishingStore) Get(core.SnapshotKey) (*core.Snapshot, bool) { return nil, false }

// TestChaosServeVanishedEntryTakesASlot: admission rests on the lookup
// itself, so an entry that looked resident but is gone by the lookup is an
// execution like any other miss. With the only executor held and no queue it
// is shed; once the slot frees it executes, counted as an execution and not
// as a replay.
func TestChaosServeVanishedEntryTakesASlot(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Store = vanishingStore{core.NewSnapshotCache(0)}
		cfg.Executors = 1
		cfg.QueueDepth = -1
	})
	h := s.Handler()
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if w := postSimulate(t, h, simulateBody("")); w.Code != http.StatusTooManyRequests {
		t.Fatalf("vanished entry under saturation: status %d, want 429: %s", w.Code, w.Body.String())
	}
	release()
	if w := postSimulate(t, h, simulateBody("")); w.Code != http.StatusOK {
		t.Fatalf("vanished entry after release: status %d, want 200: %s", w.Code, w.Body.String())
	}
	if ex, rp := s.metrics.executions.Load(), s.metrics.replays.Load(); ex != 1 || rp != 0 {
		t.Fatalf("executions = %d, replays = %d; want 1 execution and 0 replays", ex, rp)
	}
}

// TestChaosServeExcludedUnderSaturation: an excluded cell answers 422 at any
// load. Its exclusion is decided before the store lookup and admission, so a
// saturated pool neither sheds it nor records a store miss.
func TestChaosServeExcludedUnderSaturation(t *testing.T) {
	s := newTestServer(t, func(cfg *Config) {
		cfg.Executors = 1
		cfg.QueueDepth = -1
	})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	body := fmt.Sprintf(`{"platform":%q,"benchmark":"backprop","api":"opencl"}`, platforms.IDNexus)
	if w := postSimulate(t, s.Handler(), body); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("excluded cell under saturation: status %d, want 422: %s", w.Code, w.Body.String())
	}
	if shed, misses := s.metrics.shed.Load(), s.Stats().Misses; shed != 0 || misses != 0 {
		t.Fatalf("shed = %d, store misses = %d; want neither", shed, misses)
	}
}

// entryFiles lists the committed entry files of a disk store directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// breakerFixture persists several distinct cells into a DiskStore and returns
// their keys with the entry file each was written to, so breaker tests have
// real entries to corrupt.
func breakerFixture(t *testing.T, disk *core.DiskStore) (keys []core.SnapshotKey, files []string) {
	t.Helper()
	p, err := platforms.ByID(platforms.IDGTX1050Ti)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Get("vectoradd")
	if err != nil {
		t.Fatal(err)
	}
	runner := &core.Runner{Repetitions: 1, Seed: 42, Cache: disk}
	written := map[string]bool{}
	for _, api := range []hw.API{hw.APIVulkan, hw.APIOpenCL, hw.APICUDA} {
		w := b.Workloads(p.Profile.Class)[0]
		if _, err := runner.Run(p, b, api, w); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, runner.CellKey(p, b, api, w))
		for _, e := range entryFiles(t, disk.Dir()) {
			if !written[e] {
				written[e] = true
				files = append(files, e)
			}
		}
		if len(files) != len(keys) {
			t.Fatalf("after %d cells the store holds %d entries", len(keys), len(files))
		}
	}
	return keys, files
}

// TestChaosServeBreakerTripsAndRecovers drives the disk-tier circuit breaker
// through its whole lifecycle: three consecutive decode failures trip it open
// (reads answer miss without touching the disk, writes are dropped), and the
// periodic half-open probe closes it again once reads come back clean.
func TestChaosServeBreakerTripsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	disk, err := core.OpenDiskStore(dir, "breaker-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := breakerFixture(t, disk)
	if len(keys) < breakerThreshold {
		t.Fatalf("fixture produced %d cells, need %d", len(keys), breakerThreshold)
	}

	// Corrupt every persisted entry; each read degrades to a miss and counts a
	// decode failure.
	snaps := entryFiles(t, dir)
	if len(snaps) != len(keys) {
		t.Fatalf("store holds %d entries, want %d", len(snaps), len(keys))
	}
	for _, path := range snaps {
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	br := newBreaker(disk)
	for i, k := range keys[:breakerThreshold] {
		if _, ok := br.Get(k); ok {
			t.Fatalf("read %d of a corrupt entry reported a hit", i)
		}
		open, _ := br.state()
		wantOpen := i == breakerThreshold-1
		if open != wantOpen {
			t.Fatalf("after %d decode failures breaker open = %v, want %v", i+1, open, wantOpen)
		}
	}
	if open, trips := br.state(); !open || trips != 1 {
		t.Fatalf("breaker open=%v trips=%d, want open with one trip", open, trips)
	}

	// While open, puts are dropped, even for entries the disk could hold.
	spare := core.NewSnapshotCache(0)
	p, _ := platforms.ByID(platforms.IDGTX1050Ti)
	b, _ := core.Get("membandwidth")
	w := b.Workloads(p.Profile.Class)[0]
	spareRunner := &core.Runner{Repetitions: 1, Seed: 42, Cache: spare}
	if _, err := spareRunner.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}
	spareKey := spareRunner.CellKey(p, b, hw.APIVulkan, w)
	snap, ok := spare.Get(spareKey)
	if !ok {
		t.Fatal("spare cell did not cache")
	}
	br.Put(spareKey, snap)
	if n := len(entryFiles(t, dir)); n != 0 {
		t.Fatalf("open breaker wrote through to the disk: %d entries", n)
	}

	// Recovery: the corrupt entries were removed by their failed reads, so the
	// next read the breaker lets through is clean. Reads 1..N-1 are bypassed;
	// the N-th is the half-open probe and closes the breaker.
	for i := 0; i < breakerProbeEvery-1; i++ {
		if _, ok := br.Get(keys[0]); ok {
			t.Fatalf("bypassed read %d reported a hit", i)
		}
		if open, _ := br.state(); !open {
			t.Fatalf("breaker closed after %d bypassed reads, before the probe", i+1)
		}
	}
	if _, ok := br.Get(keys[0]); ok {
		t.Fatal("probe read of a removed entry reported a hit")
	}
	if open, trips := br.state(); open || trips != 1 {
		t.Fatalf("after clean probe breaker open=%v trips=%d, want closed with one trip", open, trips)
	}

	// Closed again: writes land and reads serve them.
	br.Put(spareKey, snap)
	if n := len(entryFiles(t, dir)); n != 1 {
		t.Fatalf("closed breaker left %d entries after one put, want 1", n)
	}
	if got, ok := br.Get(spareKey); !ok || got == nil {
		t.Fatal("closed breaker missed a resident entry")
	}
}

// TestChaosServeBreakerJudgesEachRead mixes concurrent clean and corrupt disk
// reads through the breaker. Each round, breakerThreshold-1 goroutines corrupt
// their own entry and read it while eight goroutines keep reading clean
// entries; a sequential clean read then ends the run of failures. Run it
// under -race. A read is judged by its own decode, not by whether the store's
// shared failure count moved meanwhile: no clean read may miss, and the
// corrupt reads, never three in a row, may not trip the breaker.
func TestChaosServeBreakerJudgesEachRead(t *testing.T) {
	disk, err := core.OpenDiskStore(t.TempDir(), "breaker-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, files := breakerFixture(t, disk)
	clean, corrupt, corruptFiles := keys[0], keys[1:], files[1:]
	if len(corrupt) != breakerThreshold-1 {
		t.Fatalf("fixture has %d entries to corrupt, want %d", len(corrupt), breakerThreshold-1)
	}
	br := newBreaker(disk)
	const rounds, cleanReaders = 40, 8
	var lost atomic.Int64
	for r := 0; r < rounds; r++ {
		var done atomic.Bool
		var readers, corrupters sync.WaitGroup
		for g := 0; g < cleanReaders; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for first := true; first || !done.Load(); first = false {
					if _, ok := br.Get(clean); !ok {
						lost.Add(1)
					}
				}
			}()
		}
		for i, k := range corrupt {
			corrupters.Add(1)
			go func() {
				defer corrupters.Done()
				if err := os.WriteFile(corruptFiles[i], []byte("not a snapshot"), 0o644); err != nil {
					t.Error(err)
					return
				}
				if _, ok := br.Get(k); ok {
					t.Errorf("round %d: corrupt entry %d read as a hit", r, i)
				}
			}()
		}
		corrupters.Wait()
		done.Store(true)
		readers.Wait()
		if _, ok := br.Get(clean); !ok {
			lost.Add(1)
		}
	}
	if n := lost.Load(); n > 0 {
		t.Errorf("%d clean reads missed while other reads met corrupt entries", n)
	}
	if open, trips := br.state(); open || trips != 0 {
		t.Errorf("breaker open=%v trips=%d after %d rounds of %d corrupt reads each, want closed and never tripped",
			open, trips, rounds, len(corrupt))
	}
}

// TestChaosServeTieredOverOpenBreaker pins the composition serve builds for
// Config.Disk, core.TieredStore over the breaker: reads an open breaker
// bypasses never reach the disk tier yet count as the composition's misses,
// puts reach memory but not the disk, and the disk tier is listed last.
func TestChaosServeTieredOverOpenBreaker(t *testing.T) {
	dir := t.TempDir()
	disk, err := core.OpenDiskStore(dir, "breaker-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	keys, files := breakerFixture(t, disk)
	snap, ok := disk.Get(keys[0])
	if !ok {
		t.Fatal("fixture entry missing")
	}
	for _, path := range files {
		if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := disk.Stats().Tiers[0]
	br := newBreaker(disk)
	store := core.NewTieredStore(nil, br)
	for _, k := range keys[:breakerThreshold] {
		store.Get(k)
	}
	if open, _ := br.state(); !open {
		t.Fatal("breaker did not trip on consecutive decode failures")
	}

	const bypassed = 5
	for i := 0; i < bypassed; i++ {
		if _, ok := store.Get(keys[1]); ok {
			t.Fatalf("bypassed read %d reported a hit", i)
		}
	}
	store.Put(keys[0], snap)
	if n := len(entryFiles(t, dir)); n != 0 {
		t.Fatalf("put through an open breaker left %d disk entries, want 0", n)
	}
	if _, ok := store.Get(keys[0]); !ok {
		t.Fatal("put through an open breaker did not reach the memory tier")
	}

	st := store.Stats()
	if want := uint64(breakerThreshold + bypassed); st.Misses != want || st.Hits != 1 {
		t.Fatalf("stats = %+v, want %d misses (bypassed reads included) and 1 hit", st, want)
	}
	if len(st.Tiers) != 2 || st.Tiers[0].Tier != "memory" || st.Tiers[1].Tier != "disk" {
		t.Fatalf("tiers = %+v, want [memory disk]", st.Tiers)
	}
	if d := st.Tiers[1]; d.Misses-before.Misses != breakerThreshold || d.DecodeFailures != breakerThreshold || d.Entries != 0 {
		t.Fatalf("disk tier = %+v, want only the %d tripping reads and no entries", d, breakerThreshold)
	}
}

// TestServeDiskTierServesAcrossProcesses: a server over a disk store left by
// an earlier process (same code version) answers without executing — the
// warm-start contract vcbench serve -store relies on.
func TestServeDiskTierServesAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	disk, err := core.OpenDiskStore(dir, "warm-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := platforms.ByID(platforms.IDGTX1050Ti)
	b, _ := core.Get("vectoradd")
	w := b.Workloads(p.Profile.Class)[0]
	warmRunner := &core.Runner{Repetitions: 1, Seed: 42, Cache: disk}
	if _, err := warmRunner.Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}

	// "Fresh process": a new DiskStore handle over the same directory.
	disk2, err := core.OpenDiskStore(dir, "warm-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(cfg *Config) { cfg.Disk = disk2 })
	wr := postSimulate(t, s.Handler(), simulateBody(""))
	if wr.Code != http.StatusOK {
		t.Fatalf("warm disk request: status %d: %s", wr.Code, wr.Body.String())
	}
	if got := s.Stats().Misses; got != 0 {
		t.Fatalf("warm disk store executed %d cells, want 0 (pure replay)", got)
	}
}

// TestServeReplaysStoreAtAnyReps: the store key holds no repetition count
// and a server ignores Repetitions, so a server at Repetitions 3 replays an
// entry another process stored at -reps 1 instead of executing the cell
// again, and answers with the bytes a Repetitions 1 server gives.
func TestServeReplaysStoreAtAnyReps(t *testing.T) {
	dir := t.TempDir()
	disk, err := core.OpenDiskStore(dir, "reps-test", nil)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := platforms.ByID(platforms.IDGTX1050Ti)
	b, _ := core.Get("vectoradd")
	w := b.Workloads(p.Profile.Class)[0]
	if _, err := (&core.Runner{Seed: 42, Cache: disk}).Run(p, b, hw.APIVulkan, w); err != nil {
		t.Fatal(err)
	}

	answer := func(reps int) []byte {
		t.Helper()
		disk, err := core.OpenDiskStore(dir, "reps-test", nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, func(cfg *Config) {
			cfg.Disk = disk
			cfg.Repetitions = reps
		})
		wr := postSimulate(t, s.Handler(), simulateBody(""))
		if wr.Code != http.StatusOK {
			t.Fatalf("Repetitions %d: status %d: %s", reps, wr.Code, wr.Body.String())
		}
		if ex, rp := s.metrics.executions.Load(), s.metrics.replays.Load(); ex != 0 || rp != 1 {
			t.Fatalf("Repetitions %d: executions = %d, replays = %d; want the stored entry replayed, nothing executed", reps, ex, rp)
		}
		return wr.Body.Bytes()
	}
	three, one := answer(3), answer(1)
	if !bytes.Equal(three, one) {
		t.Fatalf("Repetitions changed the answer:\n--- 3 ---\n%s\n--- 1 ---\n%s", three, one)
	}
	if bytes.Contains(three, []byte("kernel_stats")) {
		t.Fatalf("answer still reports repetition statistics:\n%s", three)
	}
	docs, werr, _ := decodeEnvelope(t, three)
	if werr != nil || len(docs) != 1 || len(docs[0].Results) != 1 {
		t.Fatalf("envelope decoded to docs=%d werr=%v", len(docs), werr)
	}
}
