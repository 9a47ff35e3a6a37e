package serve

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the only place in the package allowed to read the wall clock:
// request latency is a measurement of the real world for /metrics and the
// serve benchmarks, and never reaches a response body. Everything else in
// internal/serve is lint-strict (no time.Now/Since), so identical requests
// stay byte-identical.

// now returns the wall clock for latency measurement only.
func now() time.Time {
	return time.Now() //lint:allow(latency metrics measure real wall time; values never reach a response body)
}

// histBuckets is the number of power-of-two latency buckets: bucket i counts
// requests with latency in [2^(i-1), 2^i) nanoseconds, so the range spans
// 1 ns to ~9.2 s with the last bucket absorbing everything slower.
const histBuckets = 34

// metrics is the server's observability state: atomic counters plus a fixed
// exponential latency histogram. Everything is cheap enough to touch on every
// request; the directory-scanning store stats are only read when /metrics is
// rendered.
type metrics struct {
	executions atomic.Uint64 // store misses that held an executor slot and executed
	replays    atomic.Uint64 // requests answered by snapshot replay
	shed       atomic.Uint64 // requests answered 429
	followers  atomic.Uint64 // requests that shared another request's result
	panics     atomic.Uint64 // handler panics recovered to 500

	mu       sync.Mutex
	statuses map[int]uint64
	hist     [histBuckets]uint64
	count    uint64
}

func newMetrics() *metrics {
	return &metrics{statuses: make(map[int]uint64)}
}

// observe records one finished request: its status code and latency.
func (m *metrics) observe(status int, d time.Duration) {
	b := latencyBucket(d)
	m.mu.Lock()
	m.statuses[status]++
	m.hist[b]++
	m.count++
	m.mu.Unlock()
}

// latencyBucket maps a duration to its power-of-two histogram bucket.
func latencyBucket(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// quantile estimates the q-quantile latency from the histogram as the upper
// bound of the bucket containing the target rank — a conservative (never
// under-reporting) estimate with power-of-two resolution.
func quantile(hist *[histBuckets]uint64, count uint64, q float64) time.Duration {
	if count == 0 {
		return 0
	}
	rank := uint64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += hist[i]
		if cum >= rank {
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return time.Duration(uint64(1) << uint(histBuckets-1))
}

// snapshot returns a consistent copy of the locked state.
func (m *metrics) snapshot() (statuses map[int]uint64, hist [histBuckets]uint64, count uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	statuses = make(map[int]uint64, len(m.statuses))
	for code, n := range m.statuses {
		statuses[code] = n
	}
	return statuses, m.hist, m.count
}

// render writes the Prometheus-style text exposition. Status codes are
// emitted in sorted order so the output is deterministic.
func (s *Server) renderMetrics() string {
	m := s.metrics
	statuses, hist, count := m.snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP vcbench_serve_requests_total Finished requests by HTTP status code.\n")
	fmt.Fprintf(&b, "# TYPE vcbench_serve_requests_total counter\n")
	codes := make([]int, 0, len(statuses))
	for code := range statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(&b, "vcbench_serve_requests_total{code=\"%d\"} %d\n", code, statuses[code])
	}
	fmt.Fprintf(&b, "# TYPE vcbench_serve_executions_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_executions_total %d\n", m.executions.Load())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_replays_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_replays_total %d\n", m.replays.Load())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_shed_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_singleflight_followers_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_singleflight_followers_total %d\n", m.followers.Load())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_panics_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_executors_in_flight gauge\n")
	fmt.Fprintf(&b, "vcbench_serve_executors_in_flight %d\n", s.adm.inFlight())
	fmt.Fprintf(&b, "# TYPE vcbench_serve_queue_depth gauge\n")
	fmt.Fprintf(&b, "vcbench_serve_queue_depth %d\n", s.adm.queued())
	if s.breaker != nil {
		open, trips := s.breaker.state()
		openVal := 0
		if open {
			openVal = 1
		}
		fmt.Fprintf(&b, "# TYPE vcbench_serve_breaker_open gauge\n")
		fmt.Fprintf(&b, "vcbench_serve_breaker_open %d\n", openVal)
		fmt.Fprintf(&b, "# TYPE vcbench_serve_breaker_trips_total counter\n")
		fmt.Fprintf(&b, "vcbench_serve_breaker_trips_total %d\n", trips)
	}
	fmt.Fprintf(&b, "# TYPE vcbench_serve_latency_seconds summary\n")
	for _, q := range []struct {
		label string
		q     float64
	}{{"0.5", 0.5}, {"0.99", 0.99}} {
		fmt.Fprintf(&b, "vcbench_serve_latency_seconds{quantile=\"%s\"} %g\n",
			q.label, quantile(&hist, count, q.q).Seconds())
	}
	fmt.Fprintf(&b, "vcbench_serve_latency_seconds_count %d\n", count)
	st := s.store.Stats()
	fmt.Fprintf(&b, "# TYPE vcbench_serve_store_hits_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_store_hits_total %d\n", st.Hits)
	fmt.Fprintf(&b, "# TYPE vcbench_serve_store_executions_total counter\n")
	fmt.Fprintf(&b, "vcbench_serve_store_executions_total %d\n", st.Misses)
	return b.String()
}
