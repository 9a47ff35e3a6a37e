package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"

	"vcomputebench/internal/core"
	"vcomputebench/internal/report"
)

// response is one finished simulate answer: the status, the envelope body and
// whether a Retry-After header applies. Flights share these between
// concurrent identical requests, so a response is immutable once built.
type response struct {
	status     int
	body       []byte
	retryAfter bool
}

// Handler returns the server's HTTP handler: the full endpoint mux wrapped in
// per-request panic recovery.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/code-version", s.handleCodeVersion)
	mux.HandleFunc("/v1/simulate", s.handleSimulate)
	return s.recovered(mux)
}

// recovered converts a panicking handler into a 500 carrying the core failure
// taxonomy (a panic is a permanent failure), so one bad request can never
// take the server down. The panic value and stack go to the log, not the
// response.
func (s *Server) recovered(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			s.metrics.panics.Add(1)
			perr := &core.PanicError{Value: v, Stack: debug.Stack()}
			fmt.Fprintf(s.log, "vcbench serve: recovered handler panic on %s: %v\n", r.URL.Path, perr)
			resp := s.errorResponse(http.StatusInternalServerError, &report.WireError{
				Class:   string(core.FailurePermanent),
				Message: fmt.Sprintf("handler panic: %v", v),
			})
			s.writeResponse(w, resp)
			s.metrics.observe(resp.status, 0)
		}()
		h.ServeHTTP(w, r)
	})
}

// handleHealthz is liveness: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once draining.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, s.renderMetrics())
}

func (s *Server) handleCodeVersion(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	out, _ := json.Marshal(map[string]string{"code_version": s.cfg.CodeVersion})
	w.Write(append(out, '\n'))
}

// handleSimulate answers one measurement cell. The flow is: parse and resolve
// (400s), refuse while draining (503), then collapse onto a flight — the
// leader runs the cell (one store lookup, then replay, or admission and
// execution), and followers share its bytes. Request latency is observed for
// /metrics.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	start := now()
	resp := s.simulate(r)
	s.writeResponse(w, resp)
	s.metrics.observe(resp.status, now().Sub(start))
}

// simulate computes the response for one simulate request without touching
// the ResponseWriter, so flights can share it.
func (s *Server) simulate(r *http.Request) *response {
	if r.Method != http.MethodPost {
		return s.errorResponse(http.StatusMethodNotAllowed, &report.WireError{
			Class: "bad-request", Message: "POST required",
		})
	}
	if s.isDraining() {
		return s.errorResponse(http.StatusServiceUnavailable, &report.WireError{
			Class: "draining", Message: "server is draining; retry elsewhere",
		}).withRetryAfter()
	}
	var req SimulateRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, DefaultMaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return s.errorResponse(http.StatusBadRequest, &report.WireError{
			Class: "bad-request", Message: fmt.Sprintf("decoding request: %v", err),
		})
	}
	cell, err := resolve(&req)
	if err != nil {
		return s.errorResponse(http.StatusBadRequest, &report.WireError{
			Class: "bad-request", Message: err.Error(),
		})
	}

	// Bound how long this request may wait on a shared in-flight result. The
	// leader itself is not cut off by this: once work starts it runs under
	// the server's lifecycle (bounded by CellTimeout × retries), so a
	// follower's impatience can never cancel a result others are waiting on.
	ctx := r.Context()
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	resp, leader, err := s.flights.do(ctx, cell.key, func() *response { return s.runCell(cell) })
	if err != nil {
		return s.errorResponse(http.StatusGatewayTimeout, &report.WireError{
			Class: "deadline", Message: "request deadline expired while waiting for a shared in-flight result",
		})
	}
	if !leader {
		s.metrics.followers.Add(1)
	}
	return resp
}

// runCell is the flight leader's work. Its one store lookup decides: a hit
// replays, and a miss takes an executor slot (shed with 429 when saturated)
// and executes. An excluded cell fails the lookup's checks and answers 422
// without touching admission; replays never touch it either — they cost
// microseconds and no executor.
func (s *Server) runCell(c *simCell) *response {
	res, hit, err := s.runner.ReplayCell(c.p, c.bench, c.api, c.workload)
	if hit {
		s.metrics.replays.Add(1)
	} else if err == nil {
		release, aerr := s.adm.acquire(s.baseCtx)
		if aerr != nil {
			if errors.Is(aerr, errShed) {
				s.metrics.shed.Add(1)
				return s.errorResponse(http.StatusTooManyRequests, &report.WireError{
					Class: "shed", Message: "executor pool saturated and queue full",
				}).withRetryAfter()
			}
			// The base context only ends when the drain force-stops cells.
			return s.errorResponse(http.StatusServiceUnavailable, &report.WireError{
				Class: "draining", Message: "server is draining; retry elsewhere",
			}).withRetryAfter()
		}
		defer release()
		s.metrics.executions.Add(1)
		res, err = s.runner.ExecuteCell(s.baseCtx, c.p, c.bench, c.api, c.workload)
	}
	if err != nil {
		return s.failureResponse(err)
	}
	doc := &report.Document{
		ID:      "simulate",
		Title:   fmt.Sprintf("%s/%s on %s (%s)", c.bench.Name(), c.api, c.p.ID, c.workload.Label),
		Results: []*core.Result{res},
	}
	for _, kn := range c.knobs {
		doc.Notes = append(doc.Notes, fmt.Sprintf("driver knob override: %s=%g", kn.name, kn.value))
	}
	body, err := report.EncodeWire([]*report.Document{doc}, nil)
	if err != nil {
		return s.failureResponse(err)
	}
	return &response{status: http.StatusOK, body: body}
}

// failureResponse maps a runner error onto the status-code ↔ failure-taxonomy
// table (README "Serving benchmarks"): excluded → 422, transient (after the
// retry budget) → 503 + Retry-After, permanent (including in-cell panics) →
// 500.
func (s *Server) failureResponse(err error) *response {
	werr := &report.WireError{Message: err.Error()}
	var ce *core.CellError
	if errors.As(err, &ce) {
		werr.Attempts = ce.Attempts
	}
	switch core.Classify(err) {
	case core.FailureExcluded:
		werr.Class = string(core.FailureExcluded)
		return s.errorResponse(http.StatusUnprocessableEntity, werr)
	case core.FailureTransient:
		werr.Class = string(core.FailureTransient)
		return s.errorResponse(http.StatusServiceUnavailable, werr).withRetryAfter()
	default:
		werr.Class = string(core.FailurePermanent)
		return s.errorResponse(http.StatusInternalServerError, werr)
	}
}

// errorResponse builds a wire-envelope error body. Encoding a document-less
// envelope cannot fail; the fallback exists for defence in depth.
func (s *Server) errorResponse(status int, werr *report.WireError) *response {
	body, err := report.EncodeWire(nil, werr)
	if err != nil {
		body = []byte(fmt.Sprintf("{\"schema_version\":%d,\"documents\":null}\n", report.SchemaVersion))
	}
	return &response{status: status, body: body}
}

func (r *response) withRetryAfter() *response {
	r.retryAfter = true
	return r
}

// writeResponse writes one response: JSON content type, optional Retry-After
// (whole seconds, rounded up), status, body.
func (s *Server) writeResponse(w http.ResponseWriter, resp *response) {
	w.Header().Set("Content-Type", "application/json")
	if resp.retryAfter {
		secs := int64((s.cfg.RetryAfter + 999999999) / 1000000000)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}
