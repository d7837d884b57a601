package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// newTestServer boots a Server over a fresh Engine behind httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(engine.New(engine.Options{}), cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// s420Req is the small deterministic request most tests use. Parallelism 1
// pins even the SolverNodes effort counter, so whole responses compare
// bit-for-bit.
func s420Req() engine.Request {
	return engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2, Parallelism: 1}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp
}

// The PR's acceptance criterion: a solve answered over HTTP is
// bit-identical to the same Request answered by a direct Engine.Solve
// call.
func TestHTTPSolveBitIdenticalToDirect(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := s420Req()

	hres, body := postJSON(t, ts.URL+"/v1/solve", req)
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/solve: %d: %s", hres.StatusCode, body)
	}
	var viaHTTP engine.Response
	if err := json.Unmarshal(body, &viaHTTP); err != nil {
		t.Fatal(err)
	}

	direct, err := engine.New(engine.Options{}).Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical means the stable JSON forms agree byte for byte.
	hj, err := json.Marshal(viaHTTP.Solution)
	if err != nil {
		t.Fatal(err)
	}
	dj, err := json.Marshal(direct.Solution)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hj, dj) {
		t.Errorf("HTTP solution differs from direct solution:\n http: %s\n direct: %s", hj, dj)
	}
	if viaHTTP.Circuit != direct.Circuit {
		t.Errorf("circuit info differs: %+v vs %+v", viaHTTP.Circuit, direct.Circuit)
	}
	if viaHTTP.ATPG != direct.ATPG {
		t.Errorf("ATPG info differs: %+v vs %+v", viaHTTP.ATPG, direct.ATPG)
	}
	if viaHTTP.PrepareCached != direct.PrepareCached || viaHTTP.MatrixCached != direct.MatrixCached {
		t.Errorf("cache flags differ: %+v vs %+v", viaHTTP, direct)
	}
}

// Invalid requests map to 400 with the offending field named; the engine
// is never invoked.
func TestInvalidRequestsMapTo400(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	cases := []struct {
		name  string
		body  string
		field string
	}{
		{"no circuit", `{"tpg":"adder"}`, "request"},
		{"both sources", `{"circuit":"s420","bench":"INPUT(a)","tpg":"adder"}`, "request"},
		{"unknown benchmark", `{"circuit":"s9999","tpg":"adder"}`, "circuit"},
		{"no tpg", `{"circuit":"s420"}`, "tpg"},
		{"unknown tpg", `{"circuit":"s420","tpg":"quantum"}`, "tpg"},
		{"unknown solver", `{"circuit":"s420","tpg":"adder","solver":"simplex"}`, "solver"},
		{"unknown objective", `{"circuit":"s420","tpg":"adder","objective":"latency"}`, "objective"},
		{"negative cycles", `{"circuit":"s420","tpg":"adder","cycles":-3}`, "cycles"},
		{"negative budget", `{"circuit":"s420","tpg":"adder","solve_budget":-1}`, "solve_budget"},
		{"negative max nodes", `{"circuit":"s420","tpg":"adder","max_nodes":-1}`, "max_nodes"},
		{"malformed json", `{"circuit":`, "request"},
		{"unknown field", `{"circuit":"s420","tpg":"adder","cycels":64}`, "request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%+v)", resp.StatusCode, eb)
			}
			if eb.Field != tc.field {
				t.Errorf("field %q, want %q (error: %s)", eb.Field, tc.field, eb.Error)
			}
		})
	}
	if st := srv.eng.Stats(); st.PrepareBuilds != 0 || st.Solves != 0 {
		t.Errorf("invalid requests reached the engine: %+v", st)
	}
}

// A batch fans out and reports per-item outcomes: one invalid instance
// does not fail its siblings, and valid instances share artifacts.
func TestBatchFanOut(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	reqs := []engine.Request{
		s420Req(),
		{Circuit: "s420", TPG: "adder", Cycles: 96, Seed: 2, Parallelism: 1},
		{Circuit: "s420", TPG: "quantum"}, // invalid
	}
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
	if len(out.Results) != 3 {
		t.Fatalf("%d results, want 3", len(out.Results))
	}
	for i := 0; i < 2; i++ {
		if out.Results[i].Error != "" || out.Results[i].Response == nil {
			t.Errorf("result %d: %+v", i, out.Results[i])
		}
	}
	if out.Results[2].Error == "" || out.Results[2].Response != nil {
		t.Errorf("invalid instance not reported: %+v", out.Results[2])
	}
	// Both valid instances name the same circuit: exactly one ATPG ran.
	if st := srv.eng.Stats(); st.PrepareBuilds != 1 {
		t.Errorf("batch did not share the preparation: %+v", st)
	}

	// Empty and oversized batches are client errors.
	if hres, _ := postJSON(t, ts.URL+"/v1/batch", batchRequest{}); hres.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", hres.StatusCode)
	}
}

// waitJob polls a job until it reaches a finished state.
func waitJob(t *testing.T, url string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		if resp := getJSON(t, url, &v); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", url, resp.StatusCode)
		}
		if v.State.finished() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job did not finish: %+v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The asynchronous job lifecycle: accepted with an id, observable while it
// runs, terminal with the full Response and at least one best-so-far
// snapshot (the greedy seed) once done — and the result matches the
// synchronous path bit for bit.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// s820 leaves a nonempty residual, so the exact solver genuinely runs
	// and anytime snapshots exist.
	req := engine.Request{Circuit: "s820", TPG: "adder", Cycles: 64, Seed: 2, Parallelism: 1}

	hres, body := postJSON(t, ts.URL+"/v1/jobs", req)
	if hres.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d: %s", hres.StatusCode, body)
	}
	var created jobView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" {
		t.Fatalf("no job id: %s", body)
	}
	if loc := hres.Header.Get("Location"); loc != "/v1/jobs/"+created.ID {
		t.Errorf("Location = %q", loc)
	}

	final := waitJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.State != jobDone {
		t.Fatalf("terminal state %q (error %q), want done", final.State, final.Error)
	}
	if final.Response == nil || final.Response.Solution.NumTriplets() == 0 {
		t.Fatalf("done job has no usable response: %+v", final)
	}
	if !final.Response.Solution.Optimal {
		t.Errorf("uninterrupted job not optimal: %+v", final.Response.Solution)
	}
	if final.Best == nil {
		t.Error("no best-so-far snapshot recorded")
	} else if final.Best.Rows != final.Response.Solution.NumTriplets() {
		t.Errorf("last snapshot has %d rows, solution has %d triplets",
			final.Best.Rows, final.Response.Solution.NumTriplets())
	}
	if final.Started == nil || final.Ended == nil {
		t.Errorf("missing timestamps: %+v", final)
	}

	// The job's result equals the synchronous result for the same request.
	direct, err := engine.New(engine.Options{}).Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	jj, _ := json.Marshal(final.Response.Solution)
	dj, _ := json.Marshal(direct.Solution)
	if !bytes.Equal(jj, dj) {
		t.Errorf("job solution differs from direct solution:\n job: %s\n direct: %s", jj, dj)
	}

	// The job list includes it.
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != created.ID {
		t.Errorf("job list: %+v", list)
	}
}

// DELETE cancels a queued job deterministically: with every admission slot
// occupied the job cannot start, so cancellation must resolve it without
// ever running the solve.
func TestJobCancelWhileQueued(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	srv.sem <- struct{}{} // occupy the only slot
	defer func() { <-srv.sem }()

	_, body := postJSON(t, ts.URL+"/v1/jobs", s420Req())
	var created jobView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	var got jobView
	getJSON(t, ts.URL+"/v1/jobs/"+created.ID, &got)
	if got.State != jobQueued {
		t.Fatalf("state %q, want queued", got.State)
	}

	hres, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+created.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(hres); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %v %v", resp, err)
	}
	final := waitJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if final.State != jobCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
	if st := srv.eng.Stats(); st.Solves != 0 {
		t.Errorf("cancelled-before-start job reached the engine: %+v", st)
	}
}

// Unknown job ids are 404.
func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if resp := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", resp.StatusCode)
	}
}

// Request bodies are bounded before any handler buffers them: an
// oversized inline .bench is a 400, not an allocation.
func TestBodySizeLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	req := engine.Request{Bench: strings.Repeat("# padding\n", 100), TPG: "adder"}
	hres, body := postJSON(t, ts.URL+"/v1/solve", req)
	if hres.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body: %d, want 400: %s", hres.StatusCode, body)
	}
	if !strings.Contains(string(body), "too large") {
		t.Errorf("error does not name the cause: %s", body)
	}
}

// A lease body is bounded in what it makes the replica allocate, not only
// in bytes: a ~60-byte problem claiming 2^40 columns used to allocate the
// claimed width before reading a row and kill the process. Both /v1/dist
// endpoints must answer 400, and the replica must keep serving.
func TestDistRejectsOversizedColumns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, problem := range []string{
		`{"cols":1099511627776,"rows":["1"]}`,
		`{"cols":1099511627776,"rows":[]}`,
	} {
		for path, body := range map[string]string{
			"/v1/dist/solve":   `{"problem":` + problem + `,"opts":{}}`,
			"/v1/dist/subtree": `{"solve_id":"crash","problem":` + problem + `,"opts":{},"branch":0}`,
		} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s %s: %d, want 400: %s", path, problem, resp.StatusCode, msg)
			}
		}
	}
	resp, err := http.Post(ts.URL+"/v1/dist/solve", "application/json",
		strings.NewReader(`{"problem":{"cols":4,"rows":["c","6","3","9","8"]},"opts":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sol struct {
		Cost    int  `json:"cost"`
		Optimal bool `json:"optimal"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sol); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sol.Cost != 2 || !sol.Optimal {
		t.Errorf("replica stopped serving after the rejected leases: %d %+v", resp.StatusCode, sol)
	}
}

// With every slot held and no queue, a synchronous solve is shed with 429
// and a Retry-After hint instead of piling up.
func TestBackpressure429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	hres, body := postJSON(t, ts.URL+"/v1/solve", s420Req())
	if hres.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", hres.StatusCode, body)
	}
	if hres.Header.Get("Retry-After") == "" {
		t.Error("no Retry-After header on 429")
	}
}

// The health, stats and metrics endpoints answer and reflect served work.
func TestObservabilityEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	if hres, body := postJSON(t, ts.URL+"/v1/solve", s420Req()); hres.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d: %s", hres.StatusCode, body)
	}

	var stats struct {
		Engine engine.Stats `json:"engine"`
		Server struct {
			Requests int64 `json:"requests_total"`
		} `json:"server"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Engine.Solves != 1 || stats.Engine.PrepareBuilds != 1 {
		t.Errorf("stats do not reflect the solve: %+v", stats.Engine)
	}
	if stats.Server.Requests == 0 {
		t.Error("request counter empty")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"reseedd_uptime_seconds",
		`reseedd_http_requests_total{route="/v1/solve",code="200"} 1`,
		"reseedd_engine_prepare_builds_total 1",
		"reseedd_engine_solves_total 1",
		`reseedd_jobs{state="running"} 0`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// Shutdown cancels queued jobs and returns once nothing is active.
func TestShutdownDrains(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxInFlight: 1})
	srv.sem <- struct{}{} // park a fake in-flight solve
	_, body := postJSON(t, ts.URL+"/v1/jobs", s420Req())
	var created jobView
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	<-srv.sem // release the fake solve as the drain begins

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	final := waitJob(t, ts.URL+"/v1/jobs/"+created.ID)
	if !final.State.finished() {
		t.Errorf("job still active after drain: %+v", final)
	}
	// A draining server refuses new jobs.
	if hres, _ := postJSON(t, ts.URL+"/v1/jobs", s420Req()); hres.StatusCode != http.StatusTooManyRequests {
		t.Errorf("job accepted while draining: %d", hres.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "draining" {
		t.Errorf("health = %q, want draining", health.Status)
	}
}
