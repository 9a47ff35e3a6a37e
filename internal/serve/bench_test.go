package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"vcomputebench/internal/platforms"
	_ "vcomputebench/internal/rodinia/suite"
)

// benchServer assembles a server for benchmarking (in-memory store, one fast
// runner pass per cell).
func benchServer(b *testing.B, mutate func(*Config)) *Server {
	b.Helper()
	cfg := Config{Repetitions: 1, Seed: 42, CodeVersion: "bench"}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.cancelBase)
	return s
}

func benchPost(h http.Handler, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// reportQuantiles turns per-request latencies into the serve perf metrics
// tracked in BENCH_serve.json: p50/p99 request latency and sustained
// throughput.
func reportQuantiles(b *testing.B, lat []time.Duration, elapsed time.Duration, throughputUnit string) {
	b.Helper()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) float64 {
		i := int(p * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds())
	}
	b.ReportMetric(q(0.50), "p50-ns/op")
	b.ReportMetric(q(0.99), "p99-ns/op")
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), throughputUnit)
}

// BenchmarkServeReplay measures the warm-store hot path end to end through
// the HTTP handler: parse, resolve, flight, snapshot replay, envelope encode.
// Reported: ns/op plus p50/p99 latency and replays/s.
func BenchmarkServeReplay(b *testing.B) {
	s := benchServer(b, nil)
	h := s.Handler()
	body := fmt.Sprintf(`{"platform":%q,"benchmark":"vectoradd","api":"vulkan"}`, platforms.IDGTX1050Ti)
	if w := benchPost(h, body); w.Code != http.StatusOK {
		b.Fatalf("warm-up status %d: %s", w.Code, w.Body.String())
	}
	if s.Stats().Misses != 1 {
		b.Fatalf("warm-up executed %d cells, want 1", s.Stats().Misses)
	}

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := now()
	for i := 0; i < b.N; i++ {
		t0 := now()
		w := benchPost(h, body)
		lat = append(lat, now().Sub(t0))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
	elapsed := now().Sub(start)
	b.StopTimer()
	if got := s.Stats().Misses; got != 1 {
		b.Fatalf("replay benchmark executed %d cells, want the single warm-up", got)
	}
	reportQuantiles(b, lat, elapsed, "replays/s")
}

// BenchmarkServeShed measures the shed path under full saturation: one
// executor (held for the whole run), no queue, every cold request answers 429.
// Reported: ns/op for the refusal, p50/p99 latency, sheds/s, and shed-rate
// (fraction of requests shed — 1.0 proves admission control engaged for every
// request).
func BenchmarkServeShed(b *testing.B) {
	s := benchServer(b, func(cfg *Config) {
		cfg.Executors = 1
		cfg.QueueDepth = -1
	})
	h := s.Handler()
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	body := fmt.Sprintf(`{"platform":%q,"benchmark":"vectoradd","api":"vulkan"}`, platforms.IDGTX1050Ti)

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := now()
	for i := 0; i < b.N; i++ {
		t0 := now()
		w := benchPost(h, body)
		lat = append(lat, now().Sub(t0))
		if w.Code != http.StatusTooManyRequests {
			b.Fatalf("status %d, want 429", w.Code)
		}
	}
	elapsed := now().Sub(start)
	b.StopTimer()
	reportQuantiles(b, lat, elapsed, "sheds/s")
	b.ReportMetric(float64(s.metrics.shed.Load())/float64(b.N), "shed-rate")
}
