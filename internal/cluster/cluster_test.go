package cluster_test

// End-to-end tests of the distributed solve fabric over real HTTP: two
// reseedd-shaped servers (internal/server over internal/cluster's dist
// endpoints), a coordinator fanning subtrees across them, and the
// bit-identity guarantee — a completed distributed solve returns exactly
// the single-process answer, and losing a peer degrades to requeue-and-
// continue, never to a wrong answer or a client-visible failure.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
	"repro/internal/store"
)

// lateBound lets an httptest server start (assigning its URL) before the
// handler that needs that URL exists.
type lateBound struct{ h atomic.Value }

func (l *lateBound) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := l.h.Load().(http.Handler); ok {
		h.ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// newReplica boots one server whose base URL is known to itself
// (Advertise) — the chicken-and-egg a real deployment resolves with
// -advertise. configure receives the URL and returns the Config.
func newReplica(t *testing.T, configure func(self string) server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	return newReplicaOver(t, engine.New(engine.Options{Parallelism: 1}), configure)
}

// newReplicaOver is newReplica serving from the given Engine.
func newReplicaOver(t *testing.T, eng *engine.Engine, configure func(self string) server.Config) (*httptest.Server, *server.Server) {
	t.Helper()
	lb := &lateBound{}
	ts := httptest.NewServer(lb)
	t.Cleanup(ts.Close)
	srv := server.New(eng, configure(ts.URL))
	lb.h.Store(http.Handler(srv))
	return ts, srv
}

// distSolve posts one distributed solve to a coordinator replica.
func distSolve(t *testing.T, url string, p *setcover.Problem, weights []int, opts setcover.ExactOptions) cluster.SolutionWire {
	t.Helper()
	body := mustJSON(t, cluster.DistSolveRequest{
		Problem: cluster.EncodeProblem(p, weights),
		Opts:    cluster.EncodeOptions(opts),
	})
	resp := mustPost(t, url+"/v1/dist/solve", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dist solve: %s", resp.Status)
	}
	var sol cluster.SolutionWire
	mustDecode(t, resp, &sol)
	return sol
}

// Two replicas, hard corpus tier included: the distributed answer is
// bit-identical to the single-process solver's in Rows, Cost, Optimal
// and RootLB. This is the fabric's acceptance criterion.
func TestDistributedSolveMatchesLocalCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	// Worker replica first (it needs no peers), then the coordinator
	// pointing at it.
	workerTS, _ := newReplica(t, func(self string) server.Config {
		return server.Config{Advertise: self}
	})
	coordTS, _ := newReplica(t, func(self string) server.Config {
		return server.Config{Peers: []string{workerTS.URL}, Advertise: self}
	})

	for _, spec := range corpus.Specs() {
		if spec.Tier == corpus.TierOpen {
			continue // open-tier solves are budget-truncated by design
		}
		inst, err := corpus.Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		w := inst.Weights()
		opts := setcover.ExactOptions{Parallelism: 1}
		var want setcover.Solution
		if w != nil {
			want, err = inst.Problem.SolveExactWeighted(w, opts)
		} else {
			want, err = inst.Problem.SolveExact(opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		got := distSolve(t, coordTS.URL, inst.Problem, w, opts)
		if got.Cost != want.Cost || got.Optimal != want.Optimal || !slices.Equal(got.Rows, want.Rows) {
			t.Errorf("%s: distributed (cost %d, opt %v, rows %v) != local (cost %d, opt %v, rows %v)",
				spec.Name, got.Cost, got.Optimal, got.Rows, want.Cost, want.Optimal, want.Rows)
		}
		if got.RootLB != want.RootLB {
			t.Errorf("%s: distributed RootLB %d != local %d", spec.Name, got.RootLB, want.RootLB)
		}
	}
}

// A dead peer never breaks a solve: every lease it would have taken is
// requeued onto the coordinator's local workers, and the answer is still
// bit-identical and optimal.
func TestDistributedSolveSurvivesDeadPeer(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from the first lease on
	coordTS, _ := newReplica(t, func(self string) server.Config {
		return server.Config{Peers: []string{dead.URL}, Advertise: self}
	})

	inst, err := corpus.Load("medium-1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Problem.SolveExact(setcover.ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := distSolve(t, coordTS.URL, inst.Problem, nil, setcover.ExactOptions{Parallelism: 1})
	if got.Cost != want.Cost || !got.Optimal || !slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("with dead peer: got cost %d opt %v, want cost %d opt true", got.Cost, got.Optimal, want.Cost)
	}
}

// A peer that dies mid-solve degrades the same way: its in-flight lease
// is requeued, the solve completes locally, the answer is unchanged.
func TestDistributedSolveSurvivesPeerLossMidSolve(t *testing.T) {
	inst, err := corpus.Load("medium-2")
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Problem.SolveExact(setcover.ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The flaky peer answers its first lease with a hang that outlives the
	// test only until we close it; closing mid-solve forces the transport
	// error path.
	var leases atomic.Int64
	release := make(chan struct{})
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/dist/subtree" {
			leases.Add(1)
			<-release // hold the lease until the server is torn down
		}
		http.Error(w, "gone", http.StatusServiceUnavailable)
	}))
	coordTS, _ := newReplica(t, func(self string) server.Config {
		return server.Config{Peers: []string{flaky.URL}, Advertise: self}
	})

	done := make(chan cluster.SolutionWire, 1)
	go func() {
		done <- distSolve(t, coordTS.URL, inst.Problem, nil, setcover.ExactOptions{Parallelism: 1})
	}()

	// Wait for the peer to hold a lease, then kill it mid-solve.
	deadline := time.Now().Add(10 * time.Second)
	for leases.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	flaky.CloseClientConnections()
	flaky.Close()

	select {
	case got := <-done:
		if got.Cost != want.Cost || !got.Optimal || !slices.Equal(got.Rows, want.Rows) {
			t.Fatalf("after peer loss: got cost %d opt %v, want cost %d opt true", got.Cost, got.Optimal, want.Cost)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("solve did not complete after peer loss")
	}
	if leases.Load() == 0 {
		t.Log("peer never held a lease; local workers outran it (failover untested this run)")
	}
}

// The subtree and incumbent endpoints compose: a lease executed over
// HTTP returns the same SubtreeResult the plan produces in-process, and
// the incumbent exchange folds by min.
func TestSubtreeAndIncumbentEndpoints(t *testing.T) {
	ts, _ := newReplica(t, func(self string) server.Config {
		return server.Config{Advertise: self}
	})
	inst, err := corpus.Load("medium-1")
	if err != nil {
		t.Fatal(err)
	}
	opts := setcover.ExactOptions{Parallelism: 1}
	pl, err := inst.Problem.PlanExact(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Terminal() != nil {
		t.Fatal("medium-1 planned terminal; the lease test needs a branching instance")
	}
	wantRes, err := pl.SolveSubtree(0, setcover.SubtreeOptions{})
	if err != nil {
		t.Fatal(err)
	}

	lease := cluster.SubtreeRequest{
		SolveID: "test-solve",
		Problem: cluster.EncodeProblem(inst.Problem, nil),
		Opts:    cluster.EncodeOptions(opts),
		Branch:  0,
	}
	resp := mustPost(t, ts.URL+"/v1/dist/subtree", mustJSON(t, lease))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subtree lease: %s", resp.Status)
	}
	var sr cluster.SubtreeResponse
	mustDecode(t, resp, &sr)
	if sr.SolveID != "test-solve" {
		t.Fatalf("lease answered for solve %q", sr.SolveID)
	}
	if sr.Result.Found != wantRes.Found || sr.Result.Cost != wantRes.Cost || !slices.Equal(sr.Result.Rows, wantRes.Rows) {
		t.Fatalf("HTTP lease %+v != in-process lease %+v", sr.Result, wantRes)
	}

	// Incumbent exchange against an unknown solve answers 0 (no entry);
	// the board only tracks solves this replica coordinates.
	ex := mustPost(t, ts.URL+"/v1/dist/incumbent", mustJSON(t, cluster.IncumbentMsg{SolveID: "nobody", Cost: 7}))
	defer ex.Body.Close()
	var msg cluster.IncumbentMsg
	mustDecode(t, ex, &msg)
	if msg.Cost != 0 {
		t.Fatalf("unknown solve answered incumbent %d", msg.Cost)
	}
}

// ExecuteSubtree keeps exchanging incumbents with the coordinator while
// a lease runs; a coordinator-supplied bound prunes the worker's search.
func TestExecuteSubtreeExchangesIncumbents(t *testing.T) {
	board := cluster.NewBoard()
	closeEntry := board.Open("xchg", 1_000_000)
	defer closeEntry()
	var exchanges atomic.Int64
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/dist/incumbent" {
			http.NotFound(w, r)
			return
		}
		exchanges.Add(1)
		var msg cluster.IncumbentMsg
		if err := jsonDecode(r.Body, &msg); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		best := board.Exchange(msg.SolveID, msg.Cost)
		w.Header().Set("Content-Type", "application/json")
		if err := jsonEncode(w, cluster.IncumbentMsg{SolveID: msg.SolveID, Cost: best}); err != nil {
			t.Error(err)
		}
	}))
	defer coord.Close()

	inst, err := corpus.Load("medium-3")
	if err != nil {
		t.Fatal(err)
	}
	req := &cluster.SubtreeRequest{
		SolveID:     "xchg",
		Problem:     cluster.EncodeProblem(inst.Problem, inst.Weights()),
		Opts:        cluster.EncodeOptions(setcover.ExactOptions{}),
		Branch:      0,
		Coordinator: coord.URL,
	}
	resp, err := cluster.ExecuteSubtree(context.Background(), req, &http.Client{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if resp.SolveID != "xchg" {
		t.Fatalf("lease answered for %q", resp.SolveID)
	}
	if resp.Result.Found && exchanges.Load() == 0 {
		t.Fatal("lease found a cover but never told the coordinator")
	}
	if resp.Result.Found && board.Best("xchg") > resp.Result.Cost {
		t.Fatalf("board best %d above the lease's reported cost %d", board.Best("xchg"), resp.Result.Cost)
	}
}

// A peer that answers its lease with a forged cover is treated as lost:
// the coordinator rejects the result (rejected=1 on the lease span),
// requeues the branch onto its local workers and retires the peer, and
// the answer is still the local solver's, proven optimal.
func TestCoordinatorRejectsForgedLease(t *testing.T) {
	inst, err := corpus.Load("medium-1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := inst.Problem.SolveExact(setcover.ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	var leases atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req cluster.SubtreeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		leases.Add(1)
		json.NewEncoder(w).Encode(cluster.SubtreeResponse{
			SolveID: req.SolveID,
			Result:  setcover.SubtreeResult{Branch: req.Branch, Found: true, Cost: 1, Rows: []int{0}},
		})
	}))
	defer liar.Close()

	tr := obs.NewTrace("test")
	coord := &cluster.Coordinator{Peers: []string{liar.URL}, Board: cluster.NewBoard(), Parallelism: 1}
	got, err := coord.Solve(obs.ContextWithTrace(context.Background(), tr), inst.Problem, nil, setcover.ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || !got.Optimal || !slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("with a lying peer: cost %d optimal %v rows %v, want cost %d optimal true rows %v",
			got.Cost, got.Optimal, got.Rows, want.Cost, want.Rows)
	}
	if n := leases.Load(); n > 1 {
		t.Fatalf("the lying peer served %d leases; it should be retired after its first", n)
	}
	if leases.Load() == 0 {
		t.Skip("the local worker drained every lease before the peer took one")
	}
	rejected := 0
	for _, sd := range tr.Snapshot() {
		if sd.Name != "lease" {
			continue
		}
		for _, a := range sd.Attrs {
			if a.Key == "rejected" && a.Int == 1 {
				rejected++
			}
		}
	}
	if rejected != 1 {
		t.Fatalf("%d lease spans carry rejected=1, want 1", rejected)
	}
}

// Four clients send c432, s420 and s820 × seeds 1–2 through a gateway over
// two replicas that share one store: once cold, then three times warm.
// Every response is a 200, each key's solution is the same in every wave,
// and the warm waves build no flow or matrix on either replica. No other
// test sends concurrent solves through a gateway to real replicas.
func TestGatewayConcurrentColdWarm(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var replicas []string
	for range 2 {
		ts, _ := newReplicaOver(t, engine.New(engine.Options{Parallelism: 1, Store: st}),
			func(string) server.Config { return server.Config{} })
		replicas = append(replicas, ts.URL)
	}
	gw := newGatewayOver(t, replicas...)

	var keys []engine.Request
	for _, circuit := range []string{"c432", "s420", "s820"} {
		for seed := int64(1); seed <= 2; seed++ {
			keys = append(keys, engine.Request{Circuit: circuit, TPG: "adder", Cycles: 32, Seed: seed, Parallelism: 1})
		}
	}
	// wave sends every key once over four clients and returns each key's
	// solution as the replica encoded it.
	wave := func(name string) []json.RawMessage {
		sols := make([]json.RawMessage, len(keys))
		next := make(chan int)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					body, err := json.Marshal(keys[i])
					if err != nil {
						t.Error(err)
						continue
					}
					resp, err := http.Post(gw.URL+"/v1/solve", "application/json", bytes.NewReader(body))
					if err != nil {
						t.Errorf("%s %s seed %d: %v", name, keys[i].Circuit, keys[i].Seed, err)
						continue
					}
					var out struct{ Solution json.RawMessage }
					err = json.NewDecoder(resp.Body).Decode(&out)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || err != nil {
						t.Errorf("%s %s seed %d: %s, decode error %v", name, keys[i].Circuit, keys[i].Seed, resp.Status, err)
						continue
					}
					sols[i] = out.Solution
				}
			}()
		}
		for i := range keys {
			next <- i
		}
		close(next)
		wg.Wait()
		return sols
	}
	builds := func() (prepare, matrix [2]int64) {
		for i, rep := range replicas {
			resp, err := http.Get(rep + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats struct{ Engine engine.Stats }
			mustDecode(t, resp, &stats)
			resp.Body.Close()
			prepare[i], matrix[i] = stats.Engine.PrepareBuilds, stats.Engine.MatrixBuilds
		}
		return prepare, matrix
	}

	cold := wave("cold")
	prepare, matrix := builds()
	for w := 1; w <= 3; w++ {
		for i, sol := range wave("warm") {
			if !bytes.Equal(sol, cold[i]) {
				t.Errorf("warm wave %d: %s seed %d solution differs from the cold wave's", w, keys[i].Circuit, keys[i].Seed)
			}
		}
	}
	if p, m := builds(); p != prepare || m != matrix {
		t.Errorf("warm waves built: prepare_builds %v → %v, matrix_builds %v → %v", prepare, p, matrix, m)
	}
}
