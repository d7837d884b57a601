package engine

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
)

// s420Req is the small deterministic request most tests use.
func s420Req() Request {
	return Request{Circuit: "s420", TPG: "adder", Cycles: 48, Seed: 2}
}

// s820Req solves an instance whose reduction leaves a nonempty residual,
// so the exact covering solver genuinely runs (needed by the
// cancel-during-solve test).
func s820Req() Request {
	return Request{Circuit: "s820", TPG: "adder", Cycles: 64, Seed: 2}
}

// normalized clears the one field excluded from the bit-identical
// guarantee (SolverNodes is an effort counter, like wall-clock time).
func normalized(s *core.Solution) core.Solution {
	n := *s
	n.SolverNodes = 0
	return n
}

// N concurrent identical requests must run exactly one ATPG preparation
// and one matrix build (singleflight), and every caller must receive the
// same solution. CI runs this under -race.
func TestSingleflightConcurrentIdentical(t *testing.T) {
	eng := New(Options{})
	const n = 8
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = eng.Solve(context.Background(), s420Req())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
	}
	stats := eng.Stats()
	if stats.PrepareBuilds != 1 {
		t.Errorf("PrepareBuilds = %d, want exactly 1 (singleflight)", stats.PrepareBuilds)
	}
	if stats.MatrixBuilds != 1 {
		t.Errorf("MatrixBuilds = %d, want exactly 1 (singleflight)", stats.MatrixBuilds)
	}
	if stats.PrepareHits != n-1 || stats.MatrixHits != n-1 {
		t.Errorf("hits = %d/%d, want %d/%d", stats.PrepareHits, stats.MatrixHits, n-1, n-1)
	}
	if stats.Solves != n {
		t.Errorf("Solves = %d, want %d", stats.Solves, n)
	}
	want := normalized(resps[0].Solution)
	for i := 1; i < n; i++ {
		if got := normalized(resps[i].Solution); !reflect.DeepEqual(got, want) {
			t.Errorf("request %d solution differs from request 0", i)
		}
	}
}

// Distinct requests on one circuit share the preparation but not the
// matrix.
func TestConcurrentDistinctRequests(t *testing.T) {
	eng := New(Options{})
	const n = 6
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := s420Req()
			if i%2 == 1 {
				req.Cycles = 96 // distinct matrix key, same flow key
			}
			_, errs[i] = eng.Solve(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	stats := eng.Stats()
	if stats.PrepareBuilds != 1 {
		t.Errorf("PrepareBuilds = %d, want 1", stats.PrepareBuilds)
	}
	if stats.MatrixBuilds != 2 {
		t.Errorf("MatrixBuilds = %d, want 2 (one per distinct Cycles)", stats.MatrixBuilds)
	}
}

// A warm-cache solve must skip Prepare and the matrix build entirely and
// still produce a solution bit-identical to the cold one — on the same
// engine and across engines.
func TestWarmCacheBitIdentical(t *testing.T) {
	eng := New(Options{})
	cold, err := eng.Solve(context.Background(), s420Req())
	if err != nil {
		t.Fatal(err)
	}
	if cold.PrepareCached || cold.MatrixCached {
		t.Fatalf("cold solve reported cached artifacts: %+v", cold)
	}
	warm, err := eng.Solve(context.Background(), s420Req())
	if err != nil {
		t.Fatal(err)
	}
	if !warm.PrepareCached || !warm.MatrixCached {
		t.Errorf("warm solve missed the cache: prepare=%v matrix=%v",
			warm.PrepareCached, warm.MatrixCached)
	}
	if s := eng.Stats(); s.PrepareBuilds != 1 || s.MatrixBuilds != 1 {
		t.Errorf("warm solve rebuilt artifacts: %+v", s)
	}
	if !reflect.DeepEqual(normalized(cold.Solution), normalized(warm.Solution)) {
		t.Error("warm solution differs from cold solution")
	}

	other, err := New(Options{}).Solve(context.Background(), s420Req())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalized(cold.Solution), normalized(other.Solution)) {
		t.Error("solution differs across engines")
	}
}

// Flush drops the caches: the next solve rebuilds.
func TestFlush(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Solve(context.Background(), s420Req()); err != nil {
		t.Fatal(err)
	}
	eng.Flush()
	resp, err := eng.Solve(context.Background(), s420Req())
	if err != nil {
		t.Fatal(err)
	}
	if resp.PrepareCached || resp.MatrixCached {
		t.Error("solve after Flush was served from the cache")
	}
}

// A context cancelled before the ATPG phase aborts promptly with the
// context's error and caches nothing.
func TestCancelledBeforePrepare(t *testing.T) {
	eng := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Solve(ctx, s420Req())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if s := eng.Stats(); s.PrepareBuilds != 0 {
		t.Errorf("cancelled prepare was counted as a build: %+v", s)
	}
	// The abandoned flight must not poison the cache: a live context
	// succeeds afterwards.
	if _, err := eng.Solve(context.Background(), s420Req()); err != nil {
		t.Fatalf("engine poisoned by cancelled request: %v", err)
	}
}

// A context cancelled after the flow is cached aborts in the matrix phase.
func TestCancelledDuringMatrixPhase(t *testing.T) {
	eng := New(Options{})
	if _, hit, err := eng.Prepare(context.Background(), s420Req()); err != nil || hit {
		t.Fatalf("warmup: hit=%v err=%v", hit, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Solve(ctx, s420Req())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	s := eng.Stats()
	if s.PrepareHits != 1 {
		t.Errorf("cancelled solve should still hit the flow cache: %+v", s)
	}
	if s.MatrixBuilds != 0 {
		t.Errorf("cancelled matrix build was counted: %+v", s)
	}
	if _, err := eng.Solve(context.Background(), s420Req()); err != nil {
		t.Fatalf("engine poisoned by cancelled request: %v", err)
	}
}

// A context cancelled once both artifacts are cached reaches the covering
// phase, which is anytime: the solver's best-so-far comes back with
// Optimal = false and Interrupted set, not an error.
func TestCancelledDuringSolveReturnsBestSoFar(t *testing.T) {
	eng := New(Options{})
	full, err := eng.Solve(context.Background(), s820Req())
	if err != nil {
		t.Fatal(err)
	}
	if !full.Solution.Optimal {
		t.Fatalf("reference solve not optimal: %+v", full.Solution)
	}
	if full.Solution.ResidualRows == 0 {
		t.Fatal("test premise broken: s820 residual solved by reduction alone; pick another instance")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := eng.Solve(ctx, s820Req())
	if err != nil {
		t.Fatalf("cancelled warm solve errored: %v", err)
	}
	if !resp.PrepareCached || !resp.MatrixCached {
		t.Errorf("cancelled solve rebuilt artifacts: prepare=%v matrix=%v",
			resp.PrepareCached, resp.MatrixCached)
	}
	sol := resp.Solution
	if sol.Optimal {
		t.Error("cancelled solve claims optimality")
	}
	if !resp.Interrupted {
		t.Error("Interrupted not set on cancelled solve")
	}
	if sol.NumTriplets() == 0 || sol.TestLength == 0 {
		t.Errorf("best-so-far is empty: %+v", sol)
	}
	// Best-so-far is a valid cover (assemble verifies coverage) but may be
	// worse than the optimum — never better.
	if sol.NumTriplets() < full.Solution.NumTriplets() {
		t.Errorf("best-so-far (%d triplets) beats the proven optimum (%d)",
			sol.NumTriplets(), full.Solution.NumTriplets())
	}
}

// A deadline expiring mid-ATPG must abort the solve promptly rather than
// running the preparation to completion.
func TestDeadlineMidPrepare(t *testing.T) {
	eng := New(Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := eng.Solve(ctx, Request{Circuit: "s1238", TPG: "adder", Cycles: 64, Seed: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v, not prompt", elapsed)
	}
}

// An inline .bench source is content-addressed: it never collides with the
// named benchmark's key (gate renumbering through a Format/Parse round
// trip makes the two circuits distinct artifacts), equal sources share one
// preparation, and the inline path is deterministic across engines.
func TestInlineBenchRequests(t *testing.T) {
	scan, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	inline := s420Req()
	inline.Circuit, inline.Bench = "", netlist.Format(scan)

	eng := New(Options{})
	if _, err := eng.Solve(context.Background(), s420Req()); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Solve(context.Background(), inline)
	if err != nil {
		t.Fatal(err)
	}
	if first.PrepareCached {
		t.Error("inline circuit unexpectedly shared the named circuit's cache key")
	}
	if first.Solution.NumTriplets() == 0 || !first.Solution.Optimal {
		t.Errorf("inline solve degenerate: %+v", first.Solution)
	}
	again, err := eng.Solve(context.Background(), inline)
	if err != nil {
		t.Fatal(err)
	}
	if !again.PrepareCached || !again.MatrixCached {
		t.Error("equal inline sources did not share artifacts")
	}
	other, err := New(Options{}).Solve(context.Background(), inline)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalized(first.Solution), normalized(other.Solution)) {
		t.Error("inline solution differs across engines")
	}
}

// Requests and Responses are plain serializable values: a request survives
// a JSON round trip verbatim, and a response's solution keeps its triplets
// (seeds as hex strings) through marshal/unmarshal.
func TestRequestResponseJSONRoundTrip(t *testing.T) {
	req := Request{
		Circuit: "s820", TPG: "adder", Cycles: 64, Seed: 2, ATPGSeed: 1,
		Solver: "exact", Objective: "triplets", MaxNodes: 12345,
		SolveBudget: 2 * time.Second,
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back Request
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, back) {
		t.Errorf("request round trip:\n got %+v\nwant %+v", back, req)
	}

	eng := New(Options{})
	resp, err := eng.Solve(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Response
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Solution.NumTriplets() != resp.Solution.NumTriplets() ||
		decoded.Solution.TestLength != resp.Solution.TestLength ||
		decoded.Circuit != resp.Circuit {
		t.Errorf("response round trip lost data:\n got %+v\nwant %+v", decoded, resp)
	}
	for i, tr := range resp.Solution.Triplets {
		if decoded.Solution.Triplets[i].Delta.Hex() != tr.Delta.Hex() {
			t.Fatalf("triplet %d delta lost in round trip", i)
		}
	}
}

// Malformed requests are rejected up front.
func TestRequestValidation(t *testing.T) {
	eng := New(Options{})
	ctx := context.Background()
	cases := []Request{
		{TPG: "adder"},    // no circuit
		{Circuit: "s420"}, // no TPG
		{Circuit: "s420", Bench: "INPUT(a)", TPG: "adder"},    // both sources
		{Circuit: "s420", TPG: "adder", Solver: "simplex"},    // unknown solver
		{Circuit: "s420", TPG: "adder", Objective: "latency"}, // unknown objective
		{Circuit: "s420", TPG: "quantum"},                     // unknown TPG kind
	}
	for i, req := range cases {
		if _, err := eng.Solve(ctx, req); err == nil {
			t.Errorf("case %d (%+v): accepted", i, req)
		}
	}
}
