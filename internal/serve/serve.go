// Package serve is the benchmark-as-a-service layer: a long-running HTTP
// frontend over the execute/replay seam (vcbench serve). POST /v1/simulate
// answers one measurement cell — platform × benchmark × API × workload, plus
// optional timing-only DriverProfile knob overrides — with the same versioned
// report schema the CLI writes, and a warm snapshot store makes the hot path
// pure analytic replay: microseconds per request, zero executed workgroups,
// byte-identical to an offline run.
//
// The robustness layer is the point of the package:
//
//   - Admission control: the store lookup itself decides. Each request makes
//     exactly one lookup; a hit replays at once, and a miss passes through a
//     bounded executor pool with a bounded wait queue, shed with 429 +
//     Retry-After when both are full instead of queueing unboundedly. Replays
//     are never shed — they cost microseconds and touch no executor — and a
//     cell the paper excludes answers 422 before any lookup or admission.
//   - Singleflight: concurrent identical requests collapse onto one
//     execution; followers share the leader's response bytes.
//   - Deadlines: the server's CellTimeout/Retries bound every execution
//     attempt (enforced inside the runner at dispatch boundaries), and
//     RequestTimeout bounds how long a follower waits for a shared result.
//   - Panic recovery: a panicking request handler answers 500 with a
//     structured envelope reusing the core failure taxonomy; the process
//     survives.
//   - Circuit breaker: a store tier between the memory LRU and the disk
//     (core.TieredStore over the breaker over core.DiskStore). Consecutive
//     snapshot decode failures trip the disk tier to miss-mode (the
//     degrade-to-miss invariant, promoted to a tier health policy) so a
//     corrupted store costs re-execution, not error storms; the tier is
//     re-probed and closes again when reads come back clean.
//   - Graceful drain: cancelling Run's context stops accepting work,
//     finishes in-flight requests within DrainTimeout, reports final store
//     statistics and returns nil — the CLI maps that to exit 0.
//
// The package is lint-strict (see internal/lint.DefaultConfig): response
// bodies are a pure function of the request and the store, so no wall clock,
// environment or randomness may reach them. The only wall-clock reads live in
// metrics.go, measuring request latency for /metrics.
package serve

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"vcomputebench/internal/core"
)

// Default robustness knob values, applied by New when the config leaves the
// corresponding field zero.
const (
	// DefaultQueueDepth bounds how many executions may wait for an executor
	// slot before further ones are shed.
	DefaultQueueDepth = 64
	// DefaultCellTimeout bounds one execution attempt; generous next to the
	// worst clean cell, tight enough that a hang frees its executor quickly.
	DefaultCellTimeout = 60 * time.Second
	// DefaultDrainTimeout is how long a drain waits for in-flight requests
	// before force-cancelling their cells.
	DefaultDrainTimeout = 30 * time.Second
	// DefaultRetryAfter is the advisory Retry-After on shed and
	// transient-failure responses.
	DefaultRetryAfter = 1 * time.Second
	// DefaultMaxBodyBytes bounds a request body; a simulate request is a few
	// hundred bytes, so anything near this is abuse.
	DefaultMaxBodyBytes = 1 << 20
)

// Config assembles a Server. The zero value of every limit field selects the
// package default; Store/Disk select the snapshot tiers.
type Config struct {
	// Addr is the listen address for Run (e.g. ":8080").
	Addr string

	// Disk, when set, is the persistent snapshot tier; serve wraps it in the
	// circuit breaker and composes a core.TieredStore's in-memory LRU over
	// that. Mutually exclusive with Store.
	Disk *core.DiskStore
	// Store, when set, is used as the snapshot store verbatim (no breaker).
	// Intended for tests and in-memory deployments; nil with nil Disk gets a
	// default-sized in-memory cache.
	Store core.SnapshotStore

	// Deprecated: ignored: a cell runs once and reports that run; removed
	// once perfbench stops setting it.
	Repetitions int

	// Runner knobs, mirroring the CLI flags of the same names. Every request
	// shares one runner, so these are server-wide policy, not per-request.
	Seed         int64
	CellTimeout  time.Duration
	Retries      int
	RetryBackoff time.Duration
	// Faults, when non-nil, plans deterministic fault injection for executed
	// cells (replays never consult it). Reachable from the CLI only behind
	// the servefaults build tag; chaos tests set it directly.
	Faults core.FaultPlanner

	// Executors bounds concurrently executing cells (store misses); 0 means
	// runtime.NumCPU() — replays bypass the pool entirely.
	Executors int
	// QueueDepth bounds executions waiting for a slot; beyond it requests are
	// shed with 429. 0 means DefaultQueueDepth; negative means no queue
	// (shed the moment the pool is busy).
	QueueDepth int
	// RequestTimeout bounds how long a follower request waits for a shared
	// in-flight result before answering 504. 0 means no bound.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain; 0 means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// RetryAfter is the advisory Retry-After duration on 429/503 responses
	// (rounded up to whole seconds); 0 means DefaultRetryAfter.
	RetryAfter time.Duration

	// CodeVersion is the build fingerprint reported by /v1/code-version
	// (codeversion.Fingerprint() in the CLI).
	CodeVersion string
	// Log, when set, receives one-line operational messages (start, drain,
	// final store stats). nil discards them.
	Log io.Writer
}

// Server is one serve instance: a shared runner and snapshot store behind the
// HTTP handler, plus the robustness machinery around them.
type Server struct {
	cfg     Config
	runner  *core.Runner
	store   core.SnapshotStore
	breaker *breaker // nil unless composed over cfg.Disk
	adm     *admission
	flights *flightGroup
	metrics *metrics
	log     io.Writer

	// baseCtx parents every cell execution: requests come and go (and their
	// contexts with them), but an admitted cell runs under the server's
	// lifecycle so followers can still use its result. cancelBase is the
	// drain's force-stop.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	draining chan struct{} // closed when the drain begins
}

// New assembles a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Disk != nil && cfg.Store != nil {
		return nil, fmt.Errorf("serve: Config.Disk and Config.Store are mutually exclusive")
	}
	if cfg.CellTimeout == 0 {
		cfg.CellTimeout = DefaultCellTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Executors <= 0 {
		cfg.Executors = runtime.NumCPU()
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = DefaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	s := &Server{
		cfg:      cfg,
		adm:      newAdmission(cfg.Executors, cfg.QueueDepth),
		flights:  newFlightGroup(),
		metrics:  newMetrics(),
		log:      cfg.Log,
		draining: make(chan struct{}),
	}
	if s.log == nil {
		s.log = io.Discard
	}
	switch {
	case cfg.Disk != nil:
		s.breaker = newBreaker(cfg.Disk)
		s.store = core.NewTieredStore(nil, s.breaker)
	case cfg.Store != nil:
		s.store = cfg.Store
	default:
		s.store = core.NewSnapshotCache(0)
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.runner = &core.Runner{
		Seed:         cfg.Seed,
		Cache:        s.store,
		Faults:       cfg.Faults,
		CellTimeout:  cfg.CellTimeout,
		Retries:      cfg.Retries,
		RetryBackoff: cfg.RetryBackoff,
	}
	return s, nil
}

// Stats returns the snapshot store's traffic. Misses counts the lookups that
// found nothing, each then executed or shed — the number load tests pin to
// zero on warm stores.
func (s *Server) Stats() core.CacheStats { return s.store.Stats() }

// isDraining reports whether the drain has begun.
func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Run listens on cfg.Addr and serves until ctx is cancelled, then drains:
// stop accepting, finish in-flight requests within DrainTimeout, force-cancel
// whatever remains, report final store statistics. A clean drain returns nil
// (the CLI's exit 0); an overrun drain or a listener failure returns the
// error.
func (s *Server) Run(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Run over a caller-provided listener (tests use a
// 127.0.0.1:0 listener to learn the port). The listener is closed when the
// drain begins.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	fmt.Fprintf(s.log, "vcbench serve: listening on %s\n", ln.Addr())
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed on its own; nothing is draining, just stop.
		s.cancelBase()
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	close(s.draining) // readyz flips 503 and new simulate requests are refused
	graceCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(graceCtx) // stop accepting, wait for in-flight
	s.cancelBase()               // past the grace (or after it): force-stop cells
	st := s.store.Stats()
	fmt.Fprintf(s.log, "vcbench serve: drained; store: %d executed, %d replayed, %d entries\n",
		s.metrics.executions.Load(), st.Hits, st.Entries)
	if err != nil {
		return fmt.Errorf("serve: drain incomplete after %v: %w", s.cfg.DrainTimeout, err)
	}
	return nil
}
