package cluster

// Gateway fronts N reseedd replicas as one service. Solve-shaped
// requests are routed by their circuit cache key (engine.RouteKey) over
// the consistent-hash ring, so each replica stays warm for its shard of
// the circuit universe; a failed replica is retried down the key's
// preference list, so retryable work never surfaces a transport failure
// to the client. Job reads fan out, because a job lives on whichever
// replica accepted it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// maxGatewayBody bounds a buffered request body. It matches the order of
// magnitude reseedd itself accepts; the gateway must buffer because a
// body may be replayed against a fallback replica.
const maxGatewayBody = 64 << 20

// Gateway is the HTTP front end. Build with NewGateway, serve its
// Handler.
type Gateway struct {
	ring     *Ring
	health   *Health
	client   *http.Client
	mux      *http.ServeMux
	recorder *obs.Recorder // flight recorder behind the gateway's GET /v1/traces

	requests  atomic.Int64 // proxied requests
	failovers atomic.Int64 // retries on a fallback replica
	exhausted atomic.Int64 // requests that ran out of live replicas
}

// gatewayProcess labels the gateway's trace spans.
const gatewayProcess = "reseedgw"

// NewGateway builds a gateway over the replica set. health may be nil
// for a gateway that never marks replicas down (tests); client nil gets
// http.DefaultClient semantics with no overall timeout (solve requests
// carry their own budgets).
func NewGateway(ring *Ring, health *Health, client *http.Client) *Gateway {
	if client == nil {
		client = &http.Client{}
	}
	g := &Gateway{ring: ring, health: health, client: client, mux: http.NewServeMux(),
		recorder: obs.NewRecorder(0)}
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("POST /v1/solve", g.keyRouted)
	g.mux.HandleFunc("POST /v1/batch", g.keyRouted)
	g.mux.HandleFunc("POST /v1/jobs", g.keyRouted)
	g.mux.HandleFunc("GET /v1/jobs", g.handleJobList)
	g.mux.HandleFunc("GET /v1/jobs/{id}", g.fanFirst)
	g.mux.HandleFunc("DELETE /v1/jobs/{id}", g.fanFirst)
	g.mux.HandleFunc("GET /v1/route", g.handleRoute)
	g.mux.HandleFunc("GET /v1/traces", g.handleTraceList)
	g.mux.HandleFunc("GET /v1/traces/{id}", g.handleTraceGet)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g
}

// Handler returns the gateway's HTTP handler: the API wrapped in the
// tracing middleware. Every proxied request gets a gateway-side trace
// (continuing an incoming W3C traceparent when one parses; a malformed
// header degrades to a fresh root, never an error), and the hop's
// position travels to the replica on the outbound traceparent header —
// so gateway and replica spans share one trace ID and stitch.
func (g *Gateway) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !gatewayTraced(r.URL.Path) {
			g.mux.ServeHTTP(w, r)
			return
		}
		var tr *obs.Trace
		if tid, pid, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
			tr = obs.NewTraceWithParent(tid, pid, gatewayProcess)
		} else {
			tr = obs.NewTrace(gatewayProcess)
		}
		ctx := obs.ContextWithTrace(r.Context(), tr)
		ctx, sp := obs.StartSpan(ctx, "gateway "+r.URL.Path)
		w.Header().Set("Traceparent", obs.FormatTraceparent(tr.ID(), sp.ID()))
		g.mux.ServeHTTP(w, r.WithContext(ctx))
		sp.End()
		g.recorder.Record(tr.Data())
	})
}

// gatewayTraced excludes read-side plumbing from tracing, mirroring the
// replica's policy: scrapes and probes would evict real solve traces
// from the bounded recorder.
func gatewayTraced(p string) bool {
	return p != "/metrics" && p != "/healthz" && p != "/v1/route" &&
		!strings.HasPrefix(p, "/v1/traces")
}

func (g *Gateway) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		_ = err // headers are gone; nothing useful remains to do
	}
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	up := g.ring.Len()
	if g.health != nil {
		up = g.health.UpCount()
	}
	status := "ok"
	if up == 0 {
		status = "isolated" // still 200: the gateway itself is alive
	}
	g.writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"replicas":    g.ring.Len(),
		"replicas_up": up,
	})
}

// routeKeyOf extracts the routing key from a buffered solve-shaped body.
// Batch requests route by their first request's key, so a homogeneous
// batch lands on its warm shard. Unroutable bodies ("" key) still
// proxy — to the key-less preference order — and the replica reports the
// validation error with full detail.
func routeKeyOf(path string, body []byte) string {
	if path == "/v1/batch" {
		var batch struct {
			Requests []engine.Request `json:"requests"`
		}
		if err := json.Unmarshal(body, &batch); err != nil || len(batch.Requests) == 0 {
			return ""
		}
		return engine.RouteKey(batch.Requests[0])
	}
	var req engine.Request
	if err := json.Unmarshal(body, &req); err != nil {
		return ""
	}
	return engine.RouteKey(req)
}

// preference is the failover order for a key: the ring's preference list
// with down replicas moved to the back (not dropped — when everything is
// marked down, optimism beats refusing service).
func (g *Gateway) preference(key string) []string {
	pref := g.ring.Preference(key, g.ring.Len())
	if g.health == nil {
		return pref
	}
	live := make([]string, 0, len(pref))
	var down []string
	for _, rep := range pref {
		if g.health.Up(rep) {
			live = append(live, rep)
		} else {
			down = append(down, rep)
		}
	}
	return append(live, down...)
}

// keyRouted proxies one buffered request down its key's preference list.
func (g *Gateway) keyRouted(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGatewayBody))
	if err != nil {
		g.writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("reading request: %v", err)})
		return
	}
	key := routeKeyOf(r.URL.Path, body)
	g.proxy(w, r, g.preference(key), body)
}

// proxy attempts the request against each target in order. A transport
// error or a 502/503 moves to the next target (and marks the replica
// down); every other status — including 429, which means the replica is
// alive and sheds load by contract — is the answer.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, targets []string, body []byte) {
	for i, target := range targets {
		if i > 0 {
			g.failovers.Add(1)
		}
		pctx, psp := obs.StartSpan(r.Context(), "proxy")
		psp.SetStr("target", target)
		out, err := http.NewRequestWithContext(pctx, r.Method, target+r.URL.Path+querySuffix(r), bytes.NewReader(body))
		if err != nil {
			psp.End()
			continue
		}
		copyHeader(out.Header, r.Header)
		// The proxy span's position replaces any client traceparent: the
		// replica's request span must parent to this hop, not skip it.
		if tp := obs.Traceparent(pctx); tp != "" {
			out.Header.Set("Traceparent", tp)
		}
		resp, err := g.client.Do(out)
		if err != nil {
			psp.SetStr("error", "transport")
			psp.End()
			if g.health != nil {
				g.health.MarkDown(target)
			}
			continue
		}
		if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
			resp.Body.Close()
			psp.SetInt("code", int64(resp.StatusCode))
			psp.End()
			if g.health != nil {
				g.health.MarkDown(target)
			}
			continue
		}
		psp.SetInt("code", int64(resp.StatusCode))
		psp.End()
		relay(w, resp)
		return
	}
	g.exhausted.Add(1)
	g.writeJSON(w, http.StatusBadGateway, map[string]string{"error": "no live replica"})
}

func querySuffix(r *http.Request) string {
	if r.URL.RawQuery == "" {
		return ""
	}
	return "?" + r.URL.RawQuery
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		switch k {
		case "Content-Type", "Accept", "Authorization", "Traceparent":
			dst[k] = vs
		}
	}
}

// relay copies an upstream response through, preserving status, JSON
// body and the Location header (job creation returns one).
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if loc := resp.Header.Get("Location"); loc != "" {
		w.Header().Set("Location", loc)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		_ = err // client went away mid-body; the status is already sent
	}
}

// fanFirst proxies a job read/cancel to every replica and relays the
// first non-404 answer: the job lives on exactly one replica, and the
// gateway does not know which.
func (g *Gateway) fanFirst(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	for _, target := range g.preference("jobs:" + r.PathValue("id")) {
		out, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.Path, nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(out)
		if err != nil {
			if g.health != nil {
				g.health.MarkDown(target)
			}
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		relay(w, resp)
		return
	}
	g.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job " + r.PathValue("id")})
}

// handleJobList merges every live replica's job list, tagging each entry
// with its replica so a client can tell shards apart.
func (g *Gateway) handleJobList(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	type replicaJobs struct {
		Replica string            `json:"replica"`
		Jobs    []json.RawMessage `json:"jobs"`
	}
	replicas := g.ring.Replicas()
	out := make([]replicaJobs, len(replicas))
	var wg sync.WaitGroup
	for i, target := range replicas {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target+"/v1/jobs", nil)
			if err != nil {
				return
			}
			resp, err := g.client.Do(req)
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return
			}
			var body struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				return
			}
			out[i] = replicaJobs{Replica: target, Jobs: body.Jobs}
		}(i, target)
	}
	wg.Wait()
	merged := make([]replicaJobs, 0, len(out))
	for _, rj := range out {
		if rj.Replica != "" {
			merged = append(merged, rj)
		}
	}
	g.writeJSON(w, http.StatusOK, map[string]any{"replicas": merged})
}

// handleRoute answers placement questions without proxying anything:
// GET /v1/route?circuit=NAME returns the key's preference list. The CI
// smoke uses it to find (and kill) the replica that owns a circuit.
func (g *Gateway) handleRoute(w http.ResponseWriter, r *http.Request) {
	circuit := r.URL.Query().Get("circuit")
	if circuit == "" {
		g.writeJSON(w, http.StatusBadRequest, map[string]string{"error": "missing circuit parameter"})
		return
	}
	key := engine.RouteKey(engine.Request{Circuit: circuit})
	pref := g.preference(key)
	primary := ""
	if len(pref) > 0 {
		primary = pref[0]
	}
	g.writeJSON(w, http.StatusOK, map[string]any{
		"key":        key,
		"primary":    primary,
		"preference": pref,
	})
}

// handleTraceList serves the gateway-side flight recorder as summaries
// (trace id, span count, process). The full cross-process view is
// GET /v1/traces/{id}, which merges the replica sides in.
func (g *Gateway) handleTraceList(w http.ResponseWriter, r *http.Request) {
	type summary struct {
		TraceID string `json:"trace_id"`
		Process string `json:"process,omitempty"`
		Spans   int    `json:"spans"`
		Dropped int    `json:"dropped_spans,omitempty"`
	}
	traces := g.recorder.List()
	out := make([]summary, 0, len(traces))
	for _, td := range traces {
		out = append(out, summary{TraceID: td.TraceID, Process: td.Process, Spans: len(td.Spans), Dropped: td.Dropped})
	}
	g.writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleTraceGet assembles the cross-process view of one trace: the
// gateway's own spans merged with every replica's (same trace ID, fetched
// from each replica's /v1/traces — best-effort, a dead replica just
// contributes nothing). 404 only when no process holds the trace.
func (g *Gateway) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	merged, ok := g.recorder.Get(id)
	for _, target := range g.ring.Replicas() {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, target+"/v1/traces/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := g.client.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			continue
		}
		var td obs.TraceData
		err = json.NewDecoder(resp.Body).Decode(&td)
		resp.Body.Close()
		if err != nil || td.TraceID != id {
			continue
		}
		if merged == nil {
			merged, ok = &td, true
			continue
		}
		merged.Spans = append(merged.Spans, td.Spans...)
		merged.Dropped += td.Dropped
	}
	if !ok {
		g.writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown trace " + id})
		return
	}
	g.writeJSON(w, http.StatusOK, merged)
}

// handleMetrics exposes gateway counters in Prometheus text format,
// hand-rolled like reseedd's.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b bytes.Buffer
	fmt.Fprintf(&b, "# HELP reseedgw_requests_total Proxied requests.\n# TYPE reseedgw_requests_total counter\nreseedgw_requests_total %d\n", g.requests.Load())
	fmt.Fprintf(&b, "# HELP reseedgw_failovers_total Retries against a fallback replica.\n# TYPE reseedgw_failovers_total counter\nreseedgw_failovers_total %d\n", g.failovers.Load())
	fmt.Fprintf(&b, "# HELP reseedgw_exhausted_total Requests that ran out of live replicas.\n# TYPE reseedgw_exhausted_total counter\nreseedgw_exhausted_total %d\n", g.exhausted.Load())
	fmt.Fprintf(&b, "# HELP reseedgw_replica_up Replica liveness as seen by this gateway.\n# TYPE reseedgw_replica_up gauge\n")
	marks := map[string]bool{}
	if g.health != nil {
		marks = g.health.Snapshot()
	}
	replicas := g.ring.Replicas()
	sort.Strings(replicas)
	for _, rep := range replicas {
		up := 1
		if g.health != nil && !marks[rep] {
			up = 0
		}
		fmt.Fprintf(&b, "reseedgw_replica_up{replica=%q} %d\n", rep, up)
	}
	if _, err := w.Write(b.Bytes()); err != nil {
		_ = err // scrape client went away
	}
}
