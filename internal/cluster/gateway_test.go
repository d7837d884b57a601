package cluster_test

// Gateway behavior tests against scripted backends: key-affine routing,
// failover down the preference list on transport failure, 429
// passthrough (a live replica shedding load is an answer, not a
// failure), and job fan-out.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustPost(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// mustDecode decodes resp's JSON body into v and reads the body to its
// end: a server finishes a response only after its handler returns, so a
// test that asks next for something the handler records on the way out
// (the gateway's trace) does not race it.
func mustDecode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }
func jsonEncode(w io.Writer, v any) error { return json.NewEncoder(w).Encode(v) }

// echoBackend answers every solve with its own name, counting hits.
type echoBackend struct {
	name string
	hits atomic.Int64
	code atomic.Int64 // response status (default 200)
}

func (b *echoBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		fmt.Fprintln(w, `{"status":"ok"}`)
		return
	}
	b.hits.Add(1)
	if c := b.code.Load(); c != 0 {
		w.WriteHeader(int(c))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"served_by":%q}`, b.name)
}

func servedBy(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	var body struct {
		ServedBy string `json:"served_by"`
	}
	mustDecode(t, resp, &body)
	return body.ServedBy
}

func newCluster(t *testing.T, n int) ([]*echoBackend, []*httptest.Server, *cluster.Gateway, *cluster.Health) {
	t.Helper()
	backends := make([]*echoBackend, n)
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range backends {
		backends[i] = &echoBackend{}
		servers[i] = httptest.NewServer(backends[i])
		t.Cleanup(servers[i].Close)
		backends[i].name = servers[i].URL
		urls[i] = servers[i].URL
	}
	ring := cluster.NewRing(urls)
	health := cluster.NewHealth(urls, nil, 0) // never Started: probes only on demand
	gw := cluster.NewGateway(ring, health, nil)
	return backends, servers, gw, health
}

// The same circuit always lands on the same replica; different circuits
// spread out.
func TestGatewayKeyAffinity(t *testing.T) {
	_, _, gw, _ := newCluster(t, 3)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	body := mustJSON(t, map[string]any{"circuit": "s1238", "tpg": "adder"})
	first := servedBy(t, mustPost(t, front.URL+"/v1/solve", body))
	for i := 0; i < 5; i++ {
		if got := servedBy(t, mustPost(t, front.URL+"/v1/solve", body)); got != first {
			t.Fatalf("request %d for the same circuit landed on %s, first went to %s", i, got, first)
		}
	}

	// The route debug endpoint agrees with where traffic actually went.
	resp, err := http.Get(front.URL + "/v1/route?circuit=s1238")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var route struct {
		Primary    string   `json:"primary"`
		Preference []string `json:"preference"`
	}
	mustDecode(t, resp, &route)
	if route.Primary != first {
		t.Fatalf("route endpoint says %s, traffic went to %s", route.Primary, first)
	}
	if len(route.Preference) != 3 {
		t.Fatalf("preference list has %d entries, want 3", len(route.Preference))
	}
}

// Killing the primary moves its keys to the next preference without a
// client-visible failure; the dead replica is marked down.
func TestGatewayFailover(t *testing.T) {
	backends, servers, gw, health := newCluster(t, 3)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	body := mustJSON(t, map[string]any{"circuit": "s420", "tpg": "adder"})
	primary := servedBy(t, mustPost(t, front.URL+"/v1/solve", body))

	for i, s := range servers {
		if s.URL == primary {
			s.CloseClientConnections()
			s.Close()
			backends[i] = nil
		}
	}

	// The very next request must still succeed — one transport failure,
	// one failover, no 5xx to the client.
	resp := mustPost(t, front.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after primary death: %s", resp.Status)
	}
	fallback := servedBy(t, resp)
	if fallback == primary {
		t.Fatal("request served by the dead primary")
	}
	if health.Up(primary) {
		t.Fatal("dead primary still marked up")
	}
	// Stickiness after failover: the key keeps landing on the fallback.
	if got := servedBy(t, mustPost(t, front.URL+"/v1/solve", body)); got != fallback {
		t.Fatalf("key moved again after failover: %s then %s", fallback, got)
	}
}

// 429 is an answer, not a failure: a saturated replica's shed is relayed
// to the client rather than retried into a thundering herd.
func TestGatewayRelays429(t *testing.T) {
	backends, _, gw, _ := newCluster(t, 2)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	for _, b := range backends {
		b.code.Store(http.StatusTooManyRequests)
	}
	resp := mustPost(t, front.URL+"/v1/solve", mustJSON(t, map[string]any{"circuit": "s420", "tpg": "adder"}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed relayed as %s, want 429", resp.Status)
	}
	total := backends[0].hits.Load() + backends[1].hits.Load()
	if total != 1 {
		t.Fatalf("429 hit %d replicas, want exactly the primary", total)
	}
}

// 503 (a draining or proxy-dead replica) fails over; only when every
// replica is gone does the client see 502.
func TestGatewayExhaustion(t *testing.T) {
	backends, _, gw, _ := newCluster(t, 2)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()
	for _, b := range backends {
		b.code.Store(http.StatusServiceUnavailable)
	}
	resp := mustPost(t, front.URL+"/v1/solve", mustJSON(t, map[string]any{"circuit": "s420", "tpg": "adder"}))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("exhausted cluster answered %s, want 502", resp.Status)
	}
	if total := backends[0].hits.Load() + backends[1].hits.Load(); total != 2 {
		t.Fatalf("503s tried %d replicas, want both", total)
	}
}

// The gateway's health and metrics surfaces reflect the replica set.
func TestGatewayHealthAndMetrics(t *testing.T) {
	_, _, gw, _ := newCluster(t, 2)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Status     string `json:"status"`
		Replicas   int    `json:"replicas"`
		ReplicasUp int    `json:"replicas_up"`
	}
	mustDecode(t, resp, &hz)
	if hz.Status != "ok" || hz.Replicas != 2 || hz.ReplicasUp != 2 {
		t.Fatalf("healthz: %+v", hz)
	}

	m, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	text, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reseedgw_requests_total", "reseedgw_failovers_total", "reseedgw_replica_up"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %s", want)
		}
	}
}
