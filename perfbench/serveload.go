package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vcomputebench/internal/serve"
)

const (
	// streamPasses is how many seeded passes over the catalog the stream
	// holds. The closed loop starts over at its beginning when a run answers
	// more: the memory tier holds every cell after its first touch, so a
	// second lap costs the server what a fresh pass would.
	streamPasses = 16
	// readyTimeout bounds how long a serve process may take to answer
	// /readyz with 200.
	readyTimeout = 30 * time.Second
)

// serveLoad drives serve-whatif: one vcbench serve process per run, over a
// fresh copy of the warm store, answers the seeded stream for the whole run
// in a closed loop over nproc keep-alive connections. The loop pauses at
// evenly spread points while a separate serve process, over its own copy of
// the store, is timed from spawn to its first 200 from /readyz and drained.
type serveLoad struct {
	b      *bench
	cat    *catalog
	stream []request
	crc    map[string]uint32 // checksum of the first answer to each request body
	conns  int
	next   atomic.Int64 // the loop's position in the stream, over all laps
	client *http.Client // the closed loop's connections
	ctl    *http.Client // /readyz and /metrics, so that probes leave the loop's connections alone
}

func newServeLoad(b *bench, seed int64) (*serveLoad, error) {
	cat, err := loadCatalog(b.goldenDir)
	if err != nil {
		return nil, err
	}
	l := newLoad(cat, makeStream(cat, serve.KnobNames(), seed, streamPasses), runtime.NumCPU())
	l.b = b
	return l, nil
}

// newLoad prepares a closed loop that answers stream over conns connections.
func newLoad(cat *catalog, stream []request, conns int) *serveLoad {
	l := &serveLoad{cat: cat, stream: stream, crc: map[string]uint32{}, conns: conns}
	l.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: l.conns, MaxConnsPerHost: l.conns},
		Timeout:   10 * time.Second,
	}
	l.ctl = &http.Client{Transport: &http.Transport{}, Timeout: 10 * time.Second}
	return l
}

// serveRun is what one run's serve process and probes measured.
type serveRun struct {
	proc                        // the serve process that answered the stream
	setup    []time.Duration    // spawn to ready, one per probe
	answers  []answer           // every request the loop sent on the clock
	ok       int                // verified 200 responses among them
	load     time.Duration      // time the loop ran, pauses excluded
	counters map[string]float64 // the serve process's /metrics at the end
}

// run starts one serve process and answers the stream for d, pausing for
// probes set-up probes spread evenly over d. A serve process that fails to
// start, answer or drain fails an operation of o and ends the run early.
func (l *serveLoad) run(o *outcome, d time.Duration, probes int) (*serveRun, error) {
	r := &serveRun{}
	srv, err := l.start()
	if err != nil {
		return nil, err
	}
	if !o.op(srv.err) {
		return r, nil
	}
	// The stream's first pass over the catalog takes every cell from the disk
	// tier into the memory tier. A long-running server pays that once, so the
	// pass is answered and verified before the clock starts; warm-check-all
	// and core.store.disk.get_us measure that path.
	warm, warmBodies := l.load(srv.base, time.Now().Add(commandTimeout), len(l.cat.cells))
	l.verify(o, warm, warmBodies)
	start := time.Now()
	segments := max(probes, 1)
	bodies := map[int][]byte{}
	for seg := 1; seg <= segments; seg++ {
		l.b.speed.sample()
		t0 := time.Now()
		as, bs := l.load(srv.base, start.Add(d*time.Duration(seg)/time.Duration(segments)), 0)
		r.load += time.Since(t0)
		r.answers = append(r.answers, as...)
		for k, body := range bs {
			bodies[k] = body
		}
		if seg > probes {
			continue
		}
		p, err := l.start()
		if err != nil {
			srv.stop(nil)
			return nil, err
		}
		if o.op(p.stop(p.err)) {
			r.setup = append(r.setup, p.setup)
		}
	}
	r.ok = l.verify(o, r.answers, bodies)
	r.counters, err = l.scrape(srv.base)
	err = srv.stop(err)
	if err == nil && (r.counters["vcbench_serve_executions_total"] > 0 || r.counters["vcbench_serve_store_executions_total"] > 0) {
		err = fmt.Errorf("serve executed cells over a warm store: %v", r.counters)
	}
	if o.op(err) {
		r.proc = srv.proc
	}
	return r, nil
}

// server is one vcbench serve process over its own copy of the warm store.
type server struct {
	proc
	cmd    *exec.Cmd
	cancel context.CancelFunc
	dir    string
	logs   *logWriter
	base   string
	start  time.Time
	setup  time.Duration // spawn to the first 200 from /readyz
	err    error         // why it never became ready
}

// start spawns a serve process and waits until it is ready. An error means
// the benchmark itself could not run; a process that never became ready is
// returned stopped, with its reason in err.
func (l *serveLoad) start() (*server, error) {
	dir, err := l.b.scratch()
	if err != nil {
		return nil, err
	}
	if err := cloneStore(l.b.warm, filepath.Join(dir, "store")); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), commandTimeout)
	s := &server{dir: dir, cancel: cancel, logs: &logWriter{addr: make(chan string, 1)}}
	s.cmd = l.b.command(ctx, dir, "serve", "-addr", "127.0.0.1:0", "-reps", "1", "-store", "store")
	s.cmd.Stderr = s.logs
	s.start = time.Now()
	if err := s.cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	if s.err = l.ready(ctx, s); s.err != nil {
		s.err = s.stop(s.err)
	}
	return s, nil
}

// stop drains the server with SIGTERM, waits for it to exit and removes its
// directory. It returns err, or else why the server did not exit cleanly.
func (s *server) stop(err error) error {
	if s.cmd.ProcessState == nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // a server that already died is reported by Wait
		werr := s.cmd.Wait()
		s.finish(s.start, s.cmd.ProcessState)
		if err == nil && werr != nil {
			err = fmt.Errorf("vcbench serve: %v: %s", werr, lastLine(s.logs.String()))
		}
	}
	s.cancel()
	os.RemoveAll(s.dir)
	return err
}

// ready waits for the listen address on stderr, then for the first 200 from
// /readyz, and records the set-up time.
func (l *serveLoad) ready(ctx context.Context, s *server) error {
	defer l.ctl.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	select {
	case addr := <-s.logs.addr:
		s.base = "http://" + addr
	case <-ctx.Done():
		return fmt.Errorf("vcbench serve printed no listen address: %s", lastLine(s.logs.String()))
	}
	for ctx.Err() == nil {
		if resp, err := l.ctl.Get(s.base + "/readyz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = time.Since(s.start)
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("vcbench serve never answered /readyz with 200")
}

// answer is one request of the closed loop as the client saw it. It holds
// no pointer, so that the collector of this process, which shares the cores
// with the server, never scans the tens of thousands a run keeps.
type answer struct {
	k      int // position in the stream over all laps: the request is stream[k%len(stream)]
	ms     float64
	status int
	sum    uint32 // checksum of the body
}

// load runs the closed loop on base until the deadline, or until limit
// requests were sent when limit > 0: each connection sends the stream's next
// request after the previous reply. It returns the answers and, by stream
// position, the bodies of knob-free requests on the first lap, which are
// verified after the clock stops.
func (l *serveLoad) load(base string, until time.Time, limit int) ([]answer, map[int][]byte) {
	url := base + "/v1/simulate"
	per := make([][]answer, l.conns)
	kept := make([]map[int][]byte, l.conns)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		kept[w] = map[int][]byte{}
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(until) {
				k := int(l.next.Add(1) - 1)
				if limit > 0 && k >= limit {
					return
				}
				i := k % len(l.stream)
				t0 := time.Now()
				body, code := l.post(url, l.stream[i].body)
				per[w] = append(per[w], answer{k: k, ms: ms(time.Since(t0)), status: code, sum: crc32.ChecksumIEEE(body)})
				if k == i && len(l.stream[i].Knobs) == 0 {
					kept[w][k] = body
				}
			}
		}(w)
	}
	wg.Wait()
	var all []answer
	bodies := map[int][]byte{}
	for w, as := range per {
		all = append(all, as...)
		for k, body := range kept[w] {
			bodies[k] = body
		}
	}
	return all, bodies
}

// verify checks every answer: a 200, the golden result for a knob-free
// request on the first lap, and the same bytes as every other answer to the
// same request. It returns how many passed.
func (l *serveLoad) verify(o *outcome, answers []answer, bodies map[int][]byte) (ok int) {
	for _, a := range answers {
		r := l.stream[a.k%len(l.stream)]
		var err error
		switch {
		case a.status != http.StatusOK:
			err = fmt.Errorf("%s: status %d", r.body, a.status)
		case bodies[a.k] != nil:
			err = l.checkGolden(r, bodies[a.k])
		}
		if err == nil {
			err = l.checkRepeat(r, a.sum)
		}
		if o.op(err) {
			ok++
		}
	}
	return ok
}

func (l *serveLoad) post(url string, body []byte) ([]byte, int) {
	resp, err := l.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0
	}
	return data, resp.StatusCode
}

// checkRepeat requires every answer to a request to be byte-identical to the
// first one this run saw, from the serve process and in-process.
func (l *serveLoad) checkRepeat(r request, sum uint32) error {
	want, ok := l.crc[string(r.body)]
	if !ok {
		l.crc[string(r.body)] = sum
		return nil
	}
	if sum != want {
		return fmt.Errorf("%s: answer differs from an earlier answer to the same request", r.body)
	}
	return nil
}

// checkGolden requires a knob-free answer to carry the golden cell's result.
func (l *serveLoad) checkGolden(r request, body []byte) error {
	var env struct {
		Documents []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"documents"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s: %w", r.body, err)
	}
	if len(env.Documents) != 1 || len(env.Documents[0].Results) != 1 {
		return fmt.Errorf("%s: want one document with one result", r.body)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, env.Documents[0].Results[0]); err != nil {
		return fmt.Errorf("%s: %w", r.body, err)
	}
	if !bytes.Equal(got.Bytes(), l.cat.golden[r.cell]) {
		return fmt.Errorf("%s: result differs from the golden cell", r.body)
	}
	return nil
}

// scrape reads the counters of /metrics.
func (l *serveLoad) scrape(base string) (map[string]float64, error) {
	defer l.ctl.CloseIdleConnections()
	resp, err := l.ctl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	counters := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			counters[name] = v
		}
	}
	return counters, nil
}

// logWriter collects serve's stderr and hands over the listen address the
// first time it appears.
type logWriter struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1, written once
	sent bool
}

func (w *logWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.sent {
		if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				w.addr <- addr
				w.sent = true
			}
		}
	}
	return len(p), nil
}

func (w *logWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// runServe reports the serve process's peak RSS, the probes' set-up times,
// and the loop's rate, latency and the server's CPU per request. wall_s and
// cpu_s read one sweep of the catalog at that rate and CPU cost: what a
// client that asks for every cell once waits and costs.
func runServe(b *bench, seed int64, d time.Duration) (*outcome, error) {
	l, err := newServeLoad(b, seed)
	if err != nil {
		return nil, err
	}
	// The client shares the machine's cores with the server. Collecting its
	// garbage a quarter as often takes 5 to 10% off the p99 it sees, which
	// is the client's share, not the server's.
	debug.SetGCPercent(400)
	o := newOutcome()
	r, err := l.run(o, d, setupSamples)
	if err != nil {
		return nil, err
	}
	var lat, setup []float64
	for _, a := range r.answers {
		lat = append(lat, a.ms)
	}
	for _, t := range r.setup {
		setup = append(setup, t.Seconds())
	}
	o.set("setup_s", median(setup), len(setup))
	o.set("p50_ms", median(lat), len(lat))
	o.set("p99_ms", quantile(lat, 0.99), len(lat))
	o.set("p999_ms", quantile(lat, 0.999), len(lat))
	if r.ok == 0 || r.wall == 0 {
		return o, nil // the failure is already counted
	}
	cells, ok := float64(len(l.cat.cells)), float64(r.ok)
	rps := ok / r.load.Seconds()
	o.set("rps", rps, r.ok)
	o.set("cpu_us_per_req", float64(r.cpu.Microseconds())/ok, r.ok)
	o.set("wall_s", cells/rps, r.ok)
	o.set("cpu_s", r.cpu.Seconds()*cells/ok, r.ok)
	o.set("rss_peak_mb", r.rssMB, 1)
	return o, nil
}
