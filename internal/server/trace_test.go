package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// c499Req is a request whose reduction leaves a nonempty residual, so the
// exact solver genuinely branches (root LB, nodes, incumbents) — the
// telemetry tests need a solve with search activity.
func c499Req() engine.Request {
	return engine.Request{Circuit: "c499", TPG: "adder", Cycles: 8, Seed: 2, ATPGSeed: 1}
}

// postTraced posts a solve with an explicit Traceparent header (empty =
// no header) and returns the response.
func postTraced(t *testing.T, url, traceparent string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// A malformed (or absent) Traceparent header must degrade to a fresh root
// trace — never a 400. Pinned by the observability acceptance criteria.
func TestTraceparentDegradesToFreshRoot(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		name, header string
	}{
		{"absent", ""},
		{"garbage", "not-a-traceparent"},
		{"short-fields", "00-123-456-01"},
		{"non-hex", "00-zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-xxxxxxxxxxxxxxxx-01"},
		{"bad-version", "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postTraced(t, ts.URL+"/v1/solve", tc.header, s420Req())
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
			}
			tid, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
			if !ok {
				t.Fatalf("response Traceparent %q does not parse", resp.Header.Get("Traceparent"))
			}
			if strings.Contains(tc.header, tid) {
				t.Errorf("trace ID %s reused from the malformed header %q", tid, tc.header)
			}
		})
	}
}

// A well-formed incoming Traceparent is continued: the solve joins the
// caller's trace instead of starting a fresh one.
func TestTraceparentContinuesCallerTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const parent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	resp := postTraced(t, ts.URL+"/v1/solve", parent, s420Req())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	tid, spanID, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok || tid != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("response Traceparent %q does not continue the caller's trace", resp.Header.Get("Traceparent"))
	}
	if spanID == "b7ad6b7169203331" {
		t.Error("response span ID echoes the caller's instead of naming the server's root span")
	}
	var body engine.Response
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Timing == nil || body.Timing.TraceID != tid {
		t.Errorf("Response.Timing does not carry the continued trace ID %s: %+v", tid, body.Timing)
	}
}

// One traced solve: Response.Timing carries the phase breakdown, the
// flight recorder serves the full trace back over /v1/traces, and the
// solve lands in every telemetry histogram on /metrics.
func TestSolveTraceRoundTripAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hres, body := postJSON(t, ts.URL+"/v1/solve", c499Req())
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", hres.StatusCode, body)
	}
	var resp engine.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Timing == nil || resp.Timing.TraceID == "" {
		t.Fatal("Response.Timing missing from a served solve")
	}
	if tid, _, _ := obs.ParseTraceparent(hres.Header.Get("Traceparent")); tid != resp.Timing.TraceID {
		t.Errorf("Traceparent header trace %s != Timing trace %s", tid, resp.Timing.TraceID)
	}

	var td obs.TraceData
	if r := getJSON(t, ts.URL+"/v1/traces/"+resp.Timing.TraceID, &td); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{id}: %d", r.StatusCode)
	}
	names := make(map[string]bool, len(td.Spans))
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	// The recorded trace holds the HTTP request span (named by route) plus
	// the solve subtree — more than Response.Timing, which is solve-only.
	for _, want := range []string{"/v1/solve", "solve", "covering", "bb"} {
		if !names[want] {
			t.Errorf("recorded trace missing span %q (have %v)", want, names)
		}
	}
	if len(td.Spans) <= len(resp.Timing.Spans) {
		t.Errorf("recorded trace (%d spans) should extend Timing (%d spans) with the request span",
			len(td.Spans), len(resp.Timing.Spans))
	}

	var list struct {
		Traces []traceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/v1/traces", &list)
	found := false
	for _, s := range list.Traces {
		if s.TraceID == resp.Timing.TraceID {
			found = true
			if s.Root != "/v1/solve" {
				t.Errorf("trace summary root %q, want /v1/solve", s.Root)
			}
		}
	}
	if !found {
		t.Errorf("trace %s absent from GET /v1/traces", resp.Timing.TraceID)
	}
	if r := getJSON(t, ts.URL+"/v1/traces/no-such-trace", new(obs.TraceData)); r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", r.StatusCode)
	}

	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	text, err := io.ReadAll(mres.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`reseedd_solve_duration_seconds_bucket{route="/v1/solve",le="+Inf"} 1`,
		`reseedd_solve_duration_seconds_count{route="/v1/solve"} 1`,
		`reseedd_solve_phase_duration_seconds_bucket{phase="bb",le="+Inf"} 1`,
		`reseedd_solve_phase_duration_seconds_bucket{phase="atpg",le="+Inf"} 1`,
		"reseedd_solve_nodes_count 1",
		"reseedd_solve_root_lb_gap_count 1",
		// c499's exact solve closes at the root bound, so the gap sample
		// lands in the le="0" bucket — the gap math is RootLB-consistent.
		`reseedd_solve_root_lb_gap_bucket{le="0"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// An asynchronous job records a search timeline (incumbents + samples)
// and its trace — which continues the creating request's trace ID —
// stays fetchable after the job goroutine exits.
func TestJobTimelineAndTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hres, body := postJSON(t, ts.URL+"/v1/jobs", c499Req())
	if hres.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d: %s", hres.StatusCode, body)
	}
	createTrace, _, ok := obs.ParseTraceparent(hres.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("job create response has no Traceparent header")
	}
	var created jobView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	final := waitJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.State != jobDone {
		t.Fatalf("job state %s, want done (%s)", final.State, final.Error)
	}
	if len(final.Timeline) == 0 {
		t.Fatal("finished job has an empty timeline")
	}
	kinds := map[string]int{}
	for _, p := range final.Timeline {
		kinds[p.Kind]++
		if p.Kind != "incumbent" && p.Kind != "sample" {
			t.Errorf("timeline point with unknown kind %q", p.Kind)
		}
		if p.T.IsZero() {
			t.Error("timeline point without a timestamp")
		}
	}
	if kinds["incumbent"] == 0 {
		t.Errorf("no incumbent points in timeline: %v", kinds)
	}
	if kinds["sample"] == 0 {
		t.Errorf("no sample points in timeline: %v", kinds)
	}
	for _, p := range final.Timeline {
		if p.Kind == "sample" && p.RootLB > 0 && p.Cost > 0 {
			want := float64(p.Cost-p.RootLB) / float64(p.Cost)
			if p.Gap != want {
				t.Errorf("sample gap %g, want %g (cost %d, root LB %d)", p.Gap, want, p.Cost, p.RootLB)
			}
		}
	}

	// The job's solve spans merged into the creating request's trace.
	if final.Response == nil || final.Response.Timing == nil {
		t.Fatal("done job lacks Response.Timing")
	}
	if final.Response.Timing.TraceID != createTrace {
		t.Errorf("job trace %s does not continue the create request's trace %s",
			final.Response.Timing.TraceID, createTrace)
	}
	var td obs.TraceData
	if r := getJSON(t, ts.URL+"/v1/traces/"+createTrace, &td); r.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/{job trace}: %d", r.StatusCode)
	}
	names := make(map[string]bool, len(td.Spans))
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"/v1/jobs", "solve", "bb"} {
		if !names[want] {
			t.Errorf("job trace missing span %q", want)
		}
	}
}

// Every batch member reports its own wall-clock and lands in the batch
// route's histograms.
func TestBatchPerRequestTiming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reqs := []engine.Request{s420Req(), c499Req(), {Circuit: "bogus", TPG: "adder", Cycles: 8}}
	hres, body := postJSON(t, ts.URL+"/v1/batch", batchRequest{Requests: reqs})
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch: %d: %s", hres.StatusCode, body)
	}
	var out struct {
		Results []batchResult `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(out.Results), len(reqs))
	}
	for i, res := range out.Results {
		if res.ElapsedMS <= 0 {
			t.Errorf("result %d: elapsed_ms %g, want > 0 (errors are timed too)", i, res.ElapsedMS)
		}
		if res.Error == "" && (res.Response == nil || res.Response.Timing == nil) {
			t.Errorf("result %d: successful batch member lacks Response.Timing", i)
		}
	}

	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	text, err := io.ReadAll(mres.Body)
	if err != nil {
		t.Fatal(err)
	}
	if want := `reseedd_solve_duration_seconds_count{route="/v1/batch"} 2`; !strings.Contains(string(text), want) {
		t.Errorf("metrics exposition missing %q (only successful members count)", want)
	}
}

// metricValue returns the value of one unlabelled series in the /metrics
// exposition, 0 when the series is absent.
func metricValue(t *testing.T, base, series string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(text), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return "0"
}

// The root-bound gap histogram observes triplets solves only: a
// testlength solve's RootLB bounds its weighted covering cost, which
// trimming can push the reported TestLength below, so folding it in would
// record meaningless (even negative) gaps.
func TestRootGapSkipsTestLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const series = "reseedd_solve_root_lb_gap_count"
	if hres, body := postJSON(t, ts.URL+"/v1/solve", c499Req()); hres.StatusCode != http.StatusOK {
		t.Fatalf("triplets solve: %d: %s", hres.StatusCode, body)
	}
	if got := metricValue(t, ts.URL, series); got != "1" {
		t.Fatalf("%s after a triplets solve = %s, want 1", series, got)
	}
	req := c499Req()
	req.Objective = "testlength"
	hres, body := postJSON(t, ts.URL+"/v1/solve", req)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("testlength solve: %d: %s", hres.StatusCode, body)
	}
	var resp engine.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Solution.RootLB <= 0 {
		t.Fatalf("testlength solve reports root LB %d; the test needs a positive bound", resp.Solution.RootLB)
	}
	if got := metricValue(t, ts.URL, series); got != "1" {
		t.Errorf("%s after a testlength solve = %s, want it unchanged at 1", series, got)
	}
}
