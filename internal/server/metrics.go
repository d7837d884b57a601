package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
)

// metrics holds the HTTP request counters and the solve histograms;
// everything else on /metrics is read live from the engine and the server
// gauges at scrape time. The exposition is hand-rolled Prometheus text
// format — one small daemon does not need a client library dependency.
type metrics struct {
	mu           sync.Mutex
	requests     map[requestKey]int64 // guarded by mu
	encodeErrors int64                // guarded by mu; response bodies that failed to encode mid-write

	solveDur   map[string]*histogram // guarded by mu; solve latency by route
	phaseDur   map[string]*histogram // guarded by mu; phase latency by span name
	solveNodes *histogram            // guarded by mu; B&B nodes per solve
	rootGap    *histogram            // guarded by mu; (cost − root LB) / cost per exact solve
}

// A histogram is one fixed-bucket Prometheus histogram. Buckets hold
// per-bucket (not cumulative) counts; the exposition accumulates.
type histogram struct {
	bounds []float64
	counts []int64 // len(bounds)+1; the last slot is the +Inf bucket
	sum    float64
	n      int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, so v lands in bucket le=bounds[i]
	h.counts[i]++
	h.sum += v
	h.n++
}

func (h *histogram) clone() *histogram {
	cp := &histogram{bounds: h.bounds, counts: make([]int64, len(h.counts)), sum: h.sum, n: h.n}
	copy(cp.counts, h.counts)
	return cp
}

// Bucket layouts: latencies follow the usual power-of-roughly-2.5 ladder,
// node counts are decades (a B&B search spans seven orders of magnitude
// across the corpus), and the gap buckets resolve the region near
// optimality where the Lagrangian bound usually lands.
var (
	durationBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	nodeBuckets     = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7}
	gapBuckets      = []float64{0, 0.01, 0.05, 0.1, 0.2, 0.5, 1}
)

// observeSolve folds one finished solve into the telemetry histograms:
// end-to-end latency by route, per-phase latency walked from the
// response's trace subtree, the B&B node count, and the root lower-bound
// gap of triplets solves.
func (m *metrics) observeSolve(route string, req engine.Request, resp *engine.Response, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.solveDur == nil {
		m.solveDur = make(map[string]*histogram)
	}
	h := m.solveDur[route]
	if h == nil {
		h = newHistogram(durationBuckets)
		m.solveDur[route] = h
	}
	h.observe(d.Seconds())
	if resp == nil || resp.Solution == nil {
		return
	}
	sol := resp.Solution
	if m.solveNodes == nil {
		m.solveNodes = newHistogram(nodeBuckets)
	}
	m.solveNodes.observe(float64(sol.SolverNodes))
	// Only a triplets solve's returned cost is the covering cost its root
	// bound bounds. A testlength bound is on the weighted covering cost,
	// which trimming can push the reported TestLength below.
	if cost := len(sol.Triplets); sol.RootLB > 0 && cost > 0 && req.Objective != "testlength" {
		if m.rootGap == nil {
			m.rootGap = newHistogram(gapBuckets)
		}
		m.rootGap.observe(float64(cost-sol.RootLB) / float64(cost))
	}
	if resp.Timing != nil {
		if m.phaseDur == nil {
			m.phaseDur = make(map[string]*histogram)
		}
		for _, sp := range resp.Timing.Spans {
			ph := m.phaseDur[sp.Name]
			if ph == nil {
				ph = newHistogram(durationBuckets)
				m.phaseDur[sp.Name] = ph
			}
			ph.observe(float64(sp.Duration) / 1e9)
		}
	}
}

// snapshotHistograms copies the histogram state out under the lock, so the
// exposition writes without holding it.
func (m *metrics) snapshotHistograms() (solveDur, phaseDur map[string]*histogram, nodes, gap *histogram) {
	m.mu.Lock()
	defer m.mu.Unlock()
	solveDur = make(map[string]*histogram, len(m.solveDur))
	for k, h := range m.solveDur {
		solveDur[k] = h.clone()
	}
	phaseDur = make(map[string]*histogram, len(m.phaseDur))
	for k, h := range m.phaseDur {
		phaseDur[k] = h.clone()
	}
	if m.solveNodes != nil {
		nodes = m.solveNodes.clone()
	}
	if m.rootGap != nil {
		gap = m.rootGap.clone()
	}
	return solveDur, phaseDur, nodes, gap
}

type requestKey struct {
	route string
	code  int
}

func (m *metrics) incRequest(route string, code int) {
	m.mu.Lock()
	if m.requests == nil {
		m.requests = make(map[requestKey]int64)
	}
	m.requests[requestKey{route, code}]++
	m.mu.Unlock()
}

// incEncodeError counts a response body that failed to encode after the
// status line was sent — unreportable to that client, so it surfaces here.
func (m *metrics) incEncodeError() {
	m.mu.Lock()
	m.encodeErrors++
	m.mu.Unlock()
}

func (m *metrics) totalEncodeErrors() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.encodeErrors
}

func (m *metrics) totalRequests() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, v := range m.requests {
		n += v
	}
	return n
}

func (m *metrics) snapshotRequests() map[requestKey]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[requestKey]int64, len(m.requests))
	for k, v := range m.requests {
		out[k] = v
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")

	fmt.Fprintf(w, "# HELP reseedd_uptime_seconds Seconds since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE reseedd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "reseedd_uptime_seconds %g\n", time.Since(s.start).Seconds())

	fmt.Fprintf(w, "# HELP reseedd_http_requests_total HTTP requests served, by route and status code.\n")
	fmt.Fprintf(w, "# TYPE reseedd_http_requests_total counter\n")
	reqs := s.metrics.snapshotRequests()
	keys := make([]requestKey, 0, len(reqs))
	for k := range reqs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].route != keys[b].route {
			return keys[a].route < keys[b].route
		}
		return keys[a].code < keys[b].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "reseedd_http_requests_total{route=%q,code=\"%d\"} %d\n", k.route, k.code, reqs[k])
	}

	fmt.Fprintf(w, "# HELP reseedd_response_encode_errors_total Response bodies that failed to encode after the status line was sent.\n")
	fmt.Fprintf(w, "# TYPE reseedd_response_encode_errors_total counter\n")
	fmt.Fprintf(w, "reseedd_response_encode_errors_total %d\n", s.metrics.totalEncodeErrors())

	fmt.Fprintf(w, "# HELP reseedd_solves_in_flight Solves currently holding an admission slot.\n")
	fmt.Fprintf(w, "# TYPE reseedd_solves_in_flight gauge\n")
	fmt.Fprintf(w, "reseedd_solves_in_flight %d\n", len(s.sem))
	fmt.Fprintf(w, "# HELP reseedd_solves_queued Synchronous solves waiting for an admission slot.\n")
	fmt.Fprintf(w, "# TYPE reseedd_solves_queued gauge\n")
	fmt.Fprintf(w, "reseedd_solves_queued %d\n", s.queued.Load())

	fmt.Fprintf(w, "# HELP reseedd_jobs Jobs retained in the job table, by state.\n")
	fmt.Fprintf(w, "# TYPE reseedd_jobs gauge\n")
	counts := s.jobs.countByState()
	for _, st := range []jobState{jobQueued, jobRunning, jobDone, jobFailed, jobCancelled} {
		fmt.Fprintf(w, "reseedd_jobs{state=%q} %d\n", st, counts[string(st)])
	}

	st := s.eng.Stats()
	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{"engine_prepare_builds", "ATPG preparations executed.", st.PrepareBuilds},
		{"engine_prepare_hits", "Preparations served from the in-memory cache.", st.PrepareHits},
		{"engine_matrix_builds", "Detection Matrices built.", st.MatrixBuilds},
		{"engine_matrix_hits", "Matrices served from the in-memory cache.", st.MatrixHits},
		{"engine_solves", "Covering solves performed.", st.Solves},
		{"engine_flow_store_loads", "Preparations served from the persistent store.", st.FlowStoreLoads},
		{"engine_matrix_store_loads", "Matrices served from the persistent store.", st.MatrixStoreLoads},
		{"engine_store_errors", "Failed persistent-store reads and writes.", st.StoreErrors},
		{"engine_store_read_errors", "Failed or corrupt persistent-store reads.", st.StoreReadErrors},
		{"engine_store_write_errors", "Failed persistent-store writes.", st.StoreWriteErrors},
		{"engine_store_misses", "Persistent-store lookups that found nothing.", st.StoreMisses},
	} {
		fmt.Fprintf(w, "# HELP reseedd_%s_total %s\n", c.name, c.help)
		fmt.Fprintf(w, "# TYPE reseedd_%s_total counter\n", c.name)
		fmt.Fprintf(w, "reseedd_%s_total %d\n", c.name, c.value)
	}

	solveDur, phaseDur, nodes, gap := s.metrics.snapshotHistograms()
	if len(solveDur) > 0 {
		fmt.Fprintf(w, "# HELP reseedd_solve_duration_seconds End-to-end solve latency, by route.\n")
		fmt.Fprintf(w, "# TYPE reseedd_solve_duration_seconds histogram\n")
		for _, route := range sortedKeys(solveDur) {
			writeHistogram(w, "reseedd_solve_duration_seconds", fmt.Sprintf("route=%q", route), solveDur[route])
		}
	}
	if len(phaseDur) > 0 {
		fmt.Fprintf(w, "# HELP reseedd_solve_phase_duration_seconds Per-phase solve latency, by trace span name.\n")
		fmt.Fprintf(w, "# TYPE reseedd_solve_phase_duration_seconds histogram\n")
		for _, phase := range sortedKeys(phaseDur) {
			writeHistogram(w, "reseedd_solve_phase_duration_seconds", fmt.Sprintf("phase=%q", phase), phaseDur[phase])
		}
	}
	if nodes != nil {
		fmt.Fprintf(w, "# HELP reseedd_solve_nodes Branch-and-bound nodes expanded per solve.\n")
		fmt.Fprintf(w, "# TYPE reseedd_solve_nodes histogram\n")
		writeHistogram(w, "reseedd_solve_nodes", "", nodes)
	}
	if gap != nil {
		fmt.Fprintf(w, "# HELP reseedd_solve_root_lb_gap Relative gap between the returned cost and the root lower bound, per exact solve.\n")
		fmt.Fprintf(w, "# TYPE reseedd_solve_root_lb_gap histogram\n")
		writeHistogram(w, "reseedd_solve_root_lb_gap", "", gap)
	}

	// The store is probed at scrape time: the probe is one stat, and
	// scrape-time truth beats a cached mark going stale between scrapes.
	if s.cfg.Store != nil {
		up := 1
		if err := s.cfg.Store.Probe(); err != nil {
			up = 0
		}
		fmt.Fprintf(w, "# HELP reseedd_store_up Artifact-store health (1 = the store directory is present).\n")
		fmt.Fprintf(w, "# TYPE reseedd_store_up gauge\n")
		fmt.Fprintf(w, "reseedd_store_up{backend=\"local\"} %d\n", up)
	}
}

// writeHistogram emits one Prometheus histogram series. label is either
// empty or one `name="value"` pair shared by every sample of the series.
func writeHistogram(w io.Writer, name, label string, h *histogram) {
	brace := func(extra string) string {
		switch {
		case label == "" && extra == "":
			return ""
		case label == "":
			return "{" + extra + "}"
		case extra == "":
			return "{" + label + "}"
		default:
			return "{" + label + "," + extra + "}"
		}
	}
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(fmt.Sprintf("le=%q", strconv.FormatFloat(b, 'g', -1, 64))), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, brace(`le="+Inf"`), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, brace(""), h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, brace(""), h.n)
}

// sortedKeys returns a map's keys in sorted order, for deterministic
// exposition output.
func sortedKeys(m map[string]*histogram) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
