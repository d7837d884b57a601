// Package server exposes the reseeding Engine over an HTTP JSON API — the
// daemon layer of the reproduction (cmd/reseedd). The operational model
// follows the covering literature's service settings: many related
// covering instances solved against shared, warm artifacts, plus
// long-running exact solves that must yield usable incumbents at any time.
//
// # Endpoints
//
//	GET    /healthz        liveness (also the boot-complete signal)
//	POST   /v1/solve       one Request, answered synchronously
//	POST   /v1/batch       several Requests fanned out on the worker pool
//	POST   /v1/jobs        start an asynchronous anytime solve
//	GET    /v1/jobs        list jobs
//	GET    /v1/jobs/{id}   job status: best-so-far snapshot, then the Response
//	DELETE /v1/jobs/{id}   cancel (a job in its covering phase keeps its
//	                       best-so-far and completes with Interrupted set)
//	GET    /v1/stats       engine cache counters + server gauges
//	GET    /metrics        the same, as Prometheus text exposition
//
// Replicas share artifacts through one store directory, never through
// this API: no endpoint reads or writes a store record.
//
// # Admission control
//
// At most Config.MaxInFlight solves run concurrently; synchronous requests
// beyond that wait in a bounded queue (Config.MaxQueue) and overflow is
// refused with 429 and a Retry-After hint, so a saturated daemon degrades
// by shedding load instead of by collapsing. Jobs are their own queue:
// they wait for a slot as long as they live, and at most Config.MaxJobs
// of them may be unfinished at once — a POST /v1/jobs beyond that is
// refused with the same 429 and Retry-After.
//
// # Error mapping
//
// Invalid requests — engine.RequestError, malformed JSON, unknown fields —
// are 400 with a JSON body naming the offending field where known; unknown
// job ids are 404; queue overflow is 429; everything else is 500. The
// error body is always {"error": "..."} (plus "field" when typed).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for a small daemon.
type Config struct {
	// MaxInFlight bounds the solves running concurrently across /v1/solve,
	// /v1/batch and jobs (a batch holds one slot). Default: 2 × GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds how many synchronous requests may wait for a slot
	// before the server answers 429. Default 64; negative means no queue
	// (shed immediately when saturated).
	MaxQueue int
	// MaxJobs bounds the jobs retained in memory. A new job is refused
	// with 429 while MaxJobs jobs are queued or running; otherwise the
	// oldest finished jobs are evicted to make room. Default 256.
	MaxJobs int
	// MaxBatch bounds the requests accepted in one /v1/batch call.
	// Default 64.
	MaxBatch int
	// BatchParallelism bounds the worker pool fanning a batch out; 0 means
	// one worker per processor (the repository-wide convention).
	BatchParallelism int
	// MaxBodyBytes caps every request body (an inline .bench source can be
	// arbitrarily large, and jobs retain their Request in memory). Default
	// 8 MiB — far beyond any benchmark netlist; oversized bodies are 400.
	MaxBodyBytes int64
	// Store, when the daemon runs one, lets /v1/stats report the persisted
	// artifact counts and /metrics probe the directory for the
	// reseedd_store_up gauge. The Engine holds its own reference for
	// solving.
	Store *store.Store
	// ProcessName labels the spans this server records (obs.SpanData's
	// process field), so a stitched cross-process trace names which hop
	// did what. Default "reseedd".
	ProcessName string
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 64
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.ProcessName == "" {
		c.ProcessName = "reseedd"
	}
	return c
}

// Server is the HTTP front end of one Engine. Create it with New; it
// implements http.Handler and is safe for concurrent use.
type Server struct {
	eng   *engine.Engine
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// baseCtx parents every job; Shutdown cancels it, turning running
	// exact solves anytime.
	baseCtx context.Context
	cancel  context.CancelFunc

	sem      chan struct{} // in-flight solve slots
	queued   atomic.Int64  // synchronous requests waiting for a slot
	draining atomic.Bool

	jobs     jobTable
	metrics  metrics
	recorder *obs.Recorder // flight recorder behind GET /v1/traces
}

// New returns a Server over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		eng:   eng,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
	}
	s.recorder = obs.NewRecorder(0)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.jobs.init(cfg.MaxJobs)

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraceList)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	return s
}

// ServeHTTP dispatches to the API, recording per-route/per-code request
// counters for /metrics and a per-request trace for /v1/traces. A request
// arriving with a valid W3C traceparent header continues that trace (the
// root span here parents to the caller's span); a malformed or absent
// header degrades to a fresh root trace, never to an error.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	// Bound every body before any handler buffers it: an unvalidated
	// multi-gigabyte inline .bench must not be able to exhaust memory.
	r.Body = http.MaxBytesReader(rw, r.Body, s.cfg.MaxBodyBytes)
	var tr *obs.Trace
	var sp *obs.Span
	if tracedPath(r.URL.Path) {
		if tid, pid, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
			tr = obs.NewTraceWithParent(tid, pid, s.cfg.ProcessName)
		} else {
			tr = obs.NewTrace(s.cfg.ProcessName)
		}
		ctx := obs.ContextWithTrace(r.Context(), tr)
		ctx, sp = obs.StartSpan(ctx, "request")
		r = r.WithContext(ctx)
		// Expose the server-side position so a caller without its own
		// tracing can still fetch the trace from /v1/traces.
		rw.Header().Set("Traceparent", obs.FormatTraceparent(tr.ID(), sp.ID()))
	}
	s.mux.ServeHTTP(rw, r)
	route := r.Pattern
	if route == "" {
		route = "unmatched"
	} else if i := strings.IndexByte(route, ' '); i >= 0 {
		route = route[i+1:] // drop the method; the path names the endpoint
	}
	s.metrics.incRequest(route, rw.code)
	if tr != nil {
		sp.SetName(route) // the dispatched route is the span's best name, known only now
		sp.SetStr("method", r.Method)
		sp.SetInt("code", int64(rw.code))
		sp.End()
		s.recorder.Record(tr.Data())
	}
}

// tracedPath excludes the read-side plumbing from tracing: scrapes and
// probes arrive every few seconds and would evict real solve traces from
// the bounded recorder, and tracing the trace API would do the same.
func tracedPath(p string) bool {
	return p != "/metrics" && p != "/healthz" && !strings.HasPrefix(p, "/v1/traces")
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

// Shutdown drains the server: jobs are cancelled (their exact solves turn
// anytime and finish with best-so-far), and Shutdown returns when no solve
// is in flight and no job is queued or running, or when ctx expires —
// whichever comes first. Call it after http.Server.Shutdown has stopped
// new requests from arriving.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cancel()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if len(s.sem) == 0 && s.queued.Load() == 0 && s.jobs.active() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// acquire claims an in-flight slot. Synchronous callers (bounded true) are
// refused with errBusy once MaxQueue of them are already waiting; jobs
// (bounded false) wait as long as their context lives.
var errBusy = errors.New("server: saturated: in-flight and queue limits reached")

func (s *Server) acquire(ctx context.Context, bounded bool) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if bounded {
		if int(s.queued.Add(1)) > s.cfg.MaxQueue {
			s.queued.Add(-1)
			return nil, errBusy
		}
		defer s.queued.Add(-1)
	}
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// solveCtx derives the context of one synchronous solve: the client's,
// additionally cancelled when the server drains.
func (s *Server) solveCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// ---- encoding helpers ----

// writeJSON writes one response body. The status line is already out by
// the time Encode can fail, so the error cannot reach the client — it is
// counted instead (reseedd_response_encode_errors_total in /metrics), per
// the repository's error policy: an error a client could care about must
// flow into a counter or a return, never a blank identifier.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.metrics.incEncodeError()
	}
}

// errorBody is the uniform error response shape.
type errorBody struct {
	Error string `json:"error"`
	Field string `json:"field,omitempty"`
}

// writeError maps an error to its HTTP status: typed request errors are the
// client's fault (400), saturation is 429, everything else is 500.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var reqErr *engine.RequestError
	switch {
	case errors.As(err, &reqErr):
		s.writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Field: reqErr.Field})
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", "1")
		s.writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// A solve cut off before any solution existed — a draining server
		// or a dropped client, not a solver failure. (When the client is
		// gone the code is moot; when the server drains it matters.)
		s.writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		s.writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

// decodeRequest reads one engine.Request, strictly: unknown fields are a
// client error, not a silent drop.
func decodeRequest(r *http.Request, req *engine.Request) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return &engine.RequestError{Field: "request", Msg: fmt.Sprintf("malformed JSON: %v", err)}
	}
	return nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req engine.Request
	if err := decodeRequest(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	release, err := s.acquire(ctx, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	start := time.Now()
	resp, err := s.eng.Solve(ctx, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.metrics.observeSolve("/v1/solve", req, resp, time.Since(start))
	s.writeJSON(w, http.StatusOK, resp)
}

// batchRequest and batchResult are the /v1/batch wire shapes. Results are
// positional: result i answers request i, carrying either a response or an
// error — one bad instance does not fail its siblings.
type batchRequest struct {
	Requests []engine.Request `json:"requests"`
}

type batchResult struct {
	Response *engine.Response `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
	// ElapsedMS is this member's wall-clock solve time in milliseconds;
	// the per-phase breakdown rides inside Response.Timing.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var batch batchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		s.writeError(w, &engine.RequestError{Field: "requests", Msg: fmt.Sprintf("malformed JSON: %v", err)})
		return
	}
	if len(batch.Requests) == 0 {
		s.writeError(w, &engine.RequestError{Field: "requests", Msg: "empty request list"})
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatch {
		s.writeError(w, &engine.RequestError{
			Field: "requests", Msg: fmt.Sprintf("%d requests exceed the batch limit %d", len(batch.Requests), s.cfg.MaxBatch)})
		return
	}
	ctx, cancel := s.solveCtx(r)
	defer cancel()
	// One admission slot covers the whole batch; the fan-out below is the
	// worker pool every other phase of the repository uses.
	release, err := s.acquire(ctx, true)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()
	results := make([]batchResult, len(batch.Requests))
	workers := parallel.Degree(s.cfg.BatchParallelism)
	_ = parallel.ForEach(workers, len(batch.Requests), func(_, i int) error { // infallible: the worker fn below always returns nil
		start := time.Now()
		resp, err := s.eng.Solve(ctx, batch.Requests[i])
		elapsed := time.Since(start)
		ms := float64(elapsed) / float64(time.Millisecond)
		if err != nil {
			results[i] = batchResult{Error: err.Error(), ElapsedMS: ms}
		} else {
			results[i] = batchResult{Response: resp, ElapsedMS: ms}
			s.metrics.observeSolve("/v1/batch", batch.Requests[i], resp, elapsed)
		}
		return nil // sibling instances proceed regardless
	})
	s.writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type storeStats struct {
		Dir      string `json:"dir"`
		Flows    int    `json:"flows"`
		Matrices int    `json:"matrices"`
	}
	out := struct {
		Engine engine.Stats `json:"engine"`
		Server struct {
			UptimeSeconds float64        `json:"uptime_seconds"`
			InFlight      int            `json:"in_flight"`
			Queued        int64          `json:"queued"`
			MaxInFlight   int            `json:"max_in_flight"`
			Jobs          map[string]int `json:"jobs"`
			Requests      int64          `json:"requests_total"`
		} `json:"server"`
		Store *storeStats `json:"store,omitempty"`
	}{Engine: s.eng.Stats()}
	out.Server.UptimeSeconds = time.Since(s.start).Seconds()
	out.Server.InFlight = len(s.sem)
	out.Server.Queued = s.queued.Load()
	out.Server.MaxInFlight = s.cfg.MaxInFlight
	out.Server.Jobs = s.jobs.countByState()
	out.Server.Requests = s.metrics.totalRequests()
	if s.cfg.Store != nil {
		flows, matrices, err := s.cfg.Store.Len()
		if err == nil {
			out.Store = &storeStats{Dir: s.cfg.Store.Dir(), Flows: flows, Matrices: matrices}
		}
	}
	s.writeJSON(w, http.StatusOK, out)
}
