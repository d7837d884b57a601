package cluster_test

// Cross-process trace stitching over real HTTP: the gateway and the
// routed replica record spans under one W3C trace ID, and the gateway's
// GET /v1/traces/{id} assembles them into a single cross-process view.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// newGatewayOver fronts the given replica URLs with a traced gateway.
func newGatewayOver(t *testing.T, replicas ...string) *httptest.Server {
	t.Helper()
	gw := cluster.NewGateway(cluster.NewRing(replicas), nil, nil)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// processes collects the distinct span process labels of a trace.
func processes(td obs.TraceData) map[string]bool {
	out := make(map[string]bool)
	for _, sp := range td.Spans {
		if sp.Process != "" {
			out[sp.Process] = true
		}
	}
	return out
}

// fetchTrace pulls one merged trace from a gateway (or replica) by ID.
func fetchTrace(t *testing.T, base, id string) obs.TraceData {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s: %s", id, resp.Status)
	}
	var td obs.TraceData
	mustDecode(t, resp, &td)
	return td
}

// A gateway-routed solve yields one stitched trace spanning both
// processes: the gateway's hop spans and the replica's request + solve
// spans share the trace ID minted at the gateway, and the gateway's
// trace endpoint serves the merged view. Pinned by the observability
// acceptance criteria.
func TestGatewayStitchedTraceTwoProcesses(t *testing.T) {
	repTS := newReplica(t, server.Config{ProcessName: "replica-a"})
	gwTS := newGatewayOver(t, repTS.URL)

	body := mustJSON(t, engine.Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2})
	resp := mustPost(t, gwTS.URL+"/v1/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve via gateway: %s", resp.Status)
	}
	tid, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("gateway response Traceparent %q does not parse", resp.Header.Get("Traceparent"))
	}
	var er engine.Response
	mustDecode(t, resp, &er)
	if er.Timing == nil || er.Timing.TraceID != tid {
		t.Fatalf("replica Timing trace %v != gateway trace %s", er.Timing, tid)
	}

	td := fetchTrace(t, gwTS.URL, tid)
	procs := processes(td)
	if !procs["reseedgw"] || !procs["replica-a"] {
		t.Fatalf("stitched trace processes %v, want reseedgw and replica-a", procs)
	}

	// The replica's request span must parent to the gateway's proxy span,
	// so the tree is connected across the process boundary.
	byID := make(map[string]obs.SpanData, len(td.Spans))
	var proxy, request obs.SpanData
	for _, sp := range td.Spans {
		byID[sp.SpanID] = sp
		switch sp.Name {
		case "proxy":
			proxy = sp
		case "/v1/solve":
			request = sp
		}
	}
	if proxy.SpanID == "" || request.SpanID == "" {
		t.Fatalf("missing proxy/request spans in stitched trace: %v", td.Spans)
	}
	if request.Parent != proxy.SpanID {
		t.Errorf("replica request span parents to %q, want the gateway proxy span %q",
			request.Parent, proxy.SpanID)
	}
	if parent, ok := byID[proxy.Parent]; !ok || parent.Process != "reseedgw" {
		t.Errorf("proxy span does not hang off the gateway root (parent %q)", proxy.Parent)
	}
}

// The gateway's trace endpoints themselves are exempt from tracing (a
// trace read must not evict the trace being read), and an unknown ID is
// a clean 404 even with live replicas to consult.
func TestGatewayTraceEndpointHygiene(t *testing.T) {
	repTS := newReplica(t, server.Config{})
	gwTS := newGatewayOver(t, repTS.URL)

	resp, err := http.Get(gwTS.URL + "/v1/traces/deadbeefdeadbeefdeadbeefdeadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace via gateway: %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("Traceparent") != "" {
		t.Error("trace read minted a trace of its own")
	}

	var list struct {
		Traces []json.RawMessage `json:"traces"`
	}
	lresp, err := http.Get(gwTS.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/traces via gateway: %d", lresp.StatusCode)
	}
	mustDecode(t, lresp, &list)
	if len(list.Traces) != 0 {
		t.Errorf("fresh gateway lists %d traces, want 0", len(list.Traces))
	}
}
