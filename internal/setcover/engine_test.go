package setcover

// Tests of the unified branch-and-bound engine: the parallel determinism
// guarantee, the anytime budgets, and the sibling-exclusion pruning fix.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// engineDegrees is the acceptance sweep: serial, two explicit pool sizes,
// and one worker per processor.
var engineDegrees = []int{1, 2, 4, 0}

// TestExactParallelEquivalence pins the determinism contract: Rows, Cost
// and Optimal are bit-identical for every Parallelism value, for both the
// cardinality and the weighted solver. Runs under -race in CI.
func TestExactParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		p := randomCoverable(rng, 12+rng.Intn(18), 20+rng.Intn(40))
		weights := make([]int, p.NumRows())
		for i := range weights {
			weights[i] = rng.Intn(8) // zero weights included
		}
		var refCard, refWeighted *Solution
		for _, j := range engineDegrees {
			card, err := p.SolveExact(ExactOptions{Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			wsol, err := p.SolveExactWeighted(weights, ExactOptions{Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			if !p.Verify(card.Rows) || !p.Verify(wsol.Rows) {
				t.Fatalf("trial %d j=%d: invalid cover", trial, j)
			}
			card.Nodes, wsol.Nodes = 0, 0 // effort counters are timing dependent
			if refCard == nil {
				refCard, refWeighted = &card, &wsol
				continue
			}
			if !reflect.DeepEqual(*refCard, card) {
				t.Errorf("trial %d: cardinality solve at Parallelism %d differs: %+v vs %+v",
					trial, j, card, *refCard)
			}
			if !reflect.DeepEqual(*refWeighted, wsol) {
				t.Errorf("trial %d: weighted solve at Parallelism %d differs: %+v vs %+v",
					trial, j, wsol, *refWeighted)
			}
		}
	}
}

// TestSiblingExclusionReducesNodes asserts the duplicate-sibling-subtree
// fix on the benchmark instance (the seed-3 medium instance of
// BenchmarkExactMediumInstance): banning already-tried rows in later
// branches must shrink the tree without changing the optimum.
func TestSiblingExclusionReducesNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := randomCoverable(rng, 30, 80)
	dup, err := p.SolveExact(ExactOptions{Parallelism: 1, noSiblingExclusion: true})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := p.SolveExact(ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Optimal || !fixed.Optimal {
		t.Fatalf("both solves must complete: dup=%+v fixed=%+v", dup, fixed)
	}
	if fixed.Cost != dup.Cost {
		t.Errorf("sibling exclusion changed the optimum: %d vs %d", fixed.Cost, dup.Cost)
	}
	if fixed.Nodes >= dup.Nodes {
		t.Errorf("sibling exclusion did not reduce nodes: %d with vs %d without",
			fixed.Nodes, dup.Nodes)
	}
	t.Logf("nodes: %d without exclusion, %d with (%.1f%% drop)",
		dup.Nodes, fixed.Nodes, 100*(1-float64(fixed.Nodes)/float64(dup.Nodes)))
}

// TestContextCancelAnytime: a cancelled context returns the best-so-far
// (the greedy incumbent at worst) with Optimal=false and no error.
func TestContextCancelAnytime(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(9))
	p := randomCoverable(rng, 40, 120)
	for _, weights := range [][]int{nil, constWeights(p.NumRows(), 3)} {
		var sol Solution
		var err error
		if weights == nil {
			sol, err = p.SolveExact(ExactOptions{Context: ctx})
		} else {
			sol, err = p.SolveExactWeighted(weights, ExactOptions{Context: ctx})
		}
		if err != nil {
			t.Fatal(err)
		}
		if sol.Optimal {
			t.Error("cancelled solve must not claim optimality")
		}
		if !p.Verify(sol.Rows) {
			t.Error("cancelled solve must still return a valid cover")
		}
		if sol.Cost != coverCost(weights, sol.Rows) {
			t.Errorf("cost %d does not match rows (%d)", sol.Cost, coverCost(weights, sol.Rows))
		}
	}
}

// TestTimeBudgetAnytime: an already-expired wall-clock budget truncates at
// the root pre-check, returning the incumbent with Optimal=false.
func TestTimeBudgetAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomCoverable(rng, 40, 120)
	sol, err := p.SolveExact(ExactOptions{TimeBudget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Optimal {
		t.Error("expired budget must not claim optimality")
	}
	if !p.Verify(sol.Rows) {
		t.Error("expired budget must still return a valid cover")
	}
	// A generous budget must not truncate.
	sol, err = p.SolveExact(ExactOptions{TimeBudget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Optimal {
		t.Error("solve well inside its budget must prove optimality")
	}
}

// TestSolutionCost pins the new Cost field across solver entry points.
func TestSolutionCost(t *testing.T) {
	p := mk(4, []int{0, 1}, []int{2, 3}, []int{0, 1, 2, 3})
	weights := []int{2, 2, 10}
	g, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if g.Cost != len(g.Rows) {
		t.Errorf("greedy Cost = %d, want %d", g.Cost, len(g.Rows))
	}
	e, err := p.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Cost != 1 { // row 2 covers everything
		t.Errorf("exact Cost = %d (%v), want 1", e.Cost, e.Rows)
	}
	w, err := p.SolveExactWeighted(weights, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if w.Cost != 4 || w.Cost != totalWeight(weights, w.Rows) {
		t.Errorf("weighted Cost = %d (%v), want 4", w.Cost, w.Rows)
	}
	m, _, err := p.SolveMinimalWeighted(weights, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cost != 4 {
		t.Errorf("pipeline Cost = %d (%v), want 4", m.Cost, m.Rows)
	}
}

func constWeights(n, w int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = w
	}
	return out
}

// BenchmarkExactParallel is the CI solver smoke: the medium instance at
// j ∈ {1, 4}. On multi-core hardware j=4 should win once the instance is
// hard enough; on one core it measures pool overhead.
func BenchmarkExactParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := randomCoverable(rng, 30, 80)
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			b.ReportAllocs()
			var nodes int64
			for i := 0; i < b.N; i++ {
				sol, err := p.SolveExact(ExactOptions{Parallelism: j})
				if err != nil {
					b.Fatal(err)
				}
				nodes = sol.Nodes
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// BenchmarkExactHardInstance stresses the pruning machinery (sibling
// exclusion, per-node re-reduction, banned-aware bound) on a denser
// instance whose tree runs a few thousand nodes deep.
func BenchmarkExactHardInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	p := randomCoverable(rng, 70, 60)
	b.ReportAllocs()
	var nodes int64
	for i := 0; i < b.N; i++ {
		sol, err := p.SolveExact(ExactOptions{})
		if err != nil {
			b.Fatal(err)
		}
		nodes = sol.Nodes
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// TestOnIncumbentContract pins the anytime observer: the first snapshot is
// the greedy seed (Nodes 0), costs never increase across snapshots even
// with a parallel fan-out (an equal-cost snapshot marks the deterministic
// merge replacing the witness), and the last snapshot equals the returned
// optimum. Runs under -race in CI (callbacks are serialized by the engine).
// The weighted cases include zero weights, so equal-cost covers from
// different branches can differ in row count: only the tie-break the
// snapshots share with Merge makes the last snapshot's Rows match the
// returned cover's.
func TestOnIncumbentContract(t *testing.T) {
	check := func(trial int, p *Problem, weights []int) {
		for _, j := range engineDegrees {
			var snaps []Incumbent
			opts := ExactOptions{
				Parallelism: j,
				OnIncumbent: func(inc Incumbent) { snaps = append(snaps, inc) },
			}
			var sol Solution
			var err error
			if weights == nil {
				sol, err = p.SolveExact(opts)
			} else {
				sol, err = p.SolveExactWeighted(weights, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatalf("trial %d j=%d weighted=%v: no snapshot at all (greedy seed missing)", trial, j, weights != nil)
			}
			if snaps[0].Nodes != 0 {
				t.Errorf("trial %d j=%d weighted=%v: first snapshot is not the seed: %+v", trial, j, weights != nil, snaps[0])
			}
			for i := 1; i < len(snaps); i++ {
				if snaps[i].Cost > snaps[i-1].Cost {
					t.Errorf("trial %d j=%d weighted=%v: snapshot costs increased: %+v", trial, j, weights != nil, snaps)
					break
				}
			}
			last := snaps[len(snaps)-1]
			if last.Cost != sol.Cost || last.Rows != len(sol.Rows) {
				t.Errorf("trial %d j=%d weighted=%v: last snapshot %+v does not match the solution (cost %d, %d rows)",
					trial, j, weights != nil, last, sol.Cost, len(sol.Rows))
			}
			if weights != nil {
				continue
			}
			// Unit weights: cost and cardinality coincide in every snapshot.
			for _, s := range snaps {
				if s.Cost != s.Rows {
					t.Errorf("trial %d j=%d: unit-weight snapshot with cost != rows: %+v", trial, j, s)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		check(trial, randomCoverable(rng, 14+rng.Intn(16), 30+rng.Intn(30)), nil)
	}
	// Equal-cost covers with different row counts are rare, so the
	// weighted sweep is longer.
	rng = rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		p := randomCoverable(rng, 14+rng.Intn(16), 30+rng.Intn(30))
		weights := make([]int, p.NumRows())
		for i := range weights {
			weights[i] = rng.Intn(4) // zero weights included
		}
		check(trial, p, weights)
	}
}

// TestOnIncumbentOffsets pins the pipeline wrapping: observers of the
// SolveMinimal pipelines see whole-solution totals (essential rows
// included), for both the unit-cost and the weighted variants.
func TestOnIncumbentOffsets(t *testing.T) {
	// Column 3 is covered only by row 3 (essential). Columns 0..2 form a
	// 3-cycle over rows 0..2 — pairwise incomparable, nothing essential,
	// nothing dominated — so reduction leaves a genuine residual for the
	// exact solver (optimum: any 2 of the 3 cycle rows, plus the
	// essential).
	p := NewProblem(4)
	add := func(cols ...int) {
		s := bitvec.NewSet(4)
		for _, c := range cols {
			s.Add(c)
		}
		p.AddRow(s)
	}
	add(0, 1)
	add(1, 2)
	add(2, 0)
	add(3)

	var last *Incumbent
	opts := ExactOptions{OnIncumbent: func(inc Incumbent) { last = &inc }}
	sol, _, err := p.SolveMinimal(opts)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot from SolveMinimal")
	}
	if last.Cost != sol.Cost || last.Rows != len(sol.Rows) {
		t.Errorf("SolveMinimal snapshot %+v does not include essentials (solution cost %d, %d rows)",
			*last, sol.Cost, len(sol.Rows))
	}

	weights := []int{3, 1, 2, 2}
	last = nil
	wsol, _, err := p.SolveMinimalWeighted(weights, opts)
	if err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no snapshot from SolveMinimalWeighted")
	}
	if last.Cost != wsol.Cost || last.Rows != len(wsol.Rows) {
		t.Errorf("SolveMinimalWeighted snapshot %+v does not match solution (cost %d, %d rows)",
			*last, wsol.Cost, len(wsol.Rows))
	}
}
