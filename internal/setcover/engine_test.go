package setcover

// Tests of the unified branch-and-bound engine: the parallel determinism
// guarantee, the anytime budgets, the sibling-exclusion pruning fix, and
// the counting bound against a sort-and-scan reference.

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/bitvec"
)

// engineDegrees is the acceptance sweep: serial, two explicit pool sizes,
// and one worker per processor.
var engineDegrees = []int{1, 2, 4, 0}

// lowerBoundBySort is the counting bound written the plain way: sort the
// columns by (availability, column) and take each picked column's
// cheapest available row by scanning all its rows. lowerBound must give
// the same value.
func (pl *exactPlan) lowerBoundBySort(infos []colAvail, banned *bitvec.Set) int {
	infos = slices.Clone(infos)
	slices.SortFunc(infos, func(a, b colAvail) int {
		return cmp.Or(cmp.Compare(a.avail, b.avail), cmp.Compare(a.col, b.col))
	})
	used := bitvec.NewSet(pl.p.NumRows())
	lb := 0
	for _, ci := range infos {
		if used.Intersects(pl.colSets[ci.col]) {
			continue
		}
		used.Or(pl.colSets[ci.col])
		used.AndNot(banned)
		cheapest := -1
		for _, r := range pl.colRows[ci.col] {
			if !banned.Contains(r) && (cheapest < 0 || pl.rowCost(r) < cheapest) {
				cheapest = pl.rowCost(r)
			}
		}
		lb += cheapest
	}
	return lb
}

// TestLowerBoundMatchesSortedScan checks the counting bound's counting
// sort and cheapest-row lists against lowerBoundBySort on random residuals
// of unit and weighted instances, reusing one scratch across them as a
// search task does.
func TestLowerBoundMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	checked := 0
	for trial := 0; trial < 400; trial++ {
		pl, _, uncovered, banned, _ := randomDualCase(rng)
		cs := pl.newCountScratch()
		for pass := 0; pass < 2; pass++ {
			var infos []colAvail
			if bad, _, _ := pl.scanColumns(uncovered, banned, &infos); bad {
				break
			}
			if got, want := pl.lowerBound(infos, banned, cs), pl.lowerBoundBySort(infos, banned); got != want {
				t.Fatalf("trial %d pass %d: lowerBound %d, sort-and-scan %d", trial, pass, got, want)
			}
			checked++
			banned = bitvec.NewSet(pl.p.NumRows())
		}
	}
	if checked < 200 {
		t.Fatalf("only %d residuals checked", checked)
	}
}

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
	red, err := p.ReduceWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	m, err := red.SolveExact(ExactOptions{})
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
// snapshots share with merge makes the last snapshot's Rows match the
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

// TestOnIncumbentOffsets pins the pipeline wrapping: observers of
// Reduction.SolveExact see whole-solution totals (essential rows
// included), for both the unit-cost and the weighted reduction, in every
// incumbent snapshot and every progress sample.
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

	weighted, err := p.ReduceWeighted([]int{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, red := range map[string]*Reduction{"Reduce": p.Reduce(), "ReduceWeighted": weighted} {
		var last *Incumbent
		var lastSample *Sample
		sol, err := red.SolveExact(ExactOptions{
			OnIncumbent: func(inc Incumbent) { last = &inc },
			OnSample:    func(s Sample) { lastSample = &s },
		})
		if err != nil {
			t.Fatal(err)
		}
		if last == nil || lastSample == nil {
			t.Fatalf("%s: no snapshot (incumbent %v, sample %v)", name, last, lastSample)
		}
		if last.Cost != sol.Cost || last.Rows != len(sol.Rows) {
			t.Errorf("%s: snapshot %+v does not include essentials (solution cost %d, %d rows)",
				name, *last, sol.Cost, len(sol.Rows))
		}
		if lastSample.RootLB != sol.RootLB || lastSample.Best < sol.Cost {
			t.Errorf("%s: sample %+v does not include essentials (solution cost %d, root bound %d)",
				name, *lastSample, sol.Cost, sol.RootLB)
		}
	}
}

// TestMergeRejectsForgedResult pins merge's cover check: a branch result
// whose claimed cover is not real must not win the merge. A one-row
// "cover" of cost 1 in place of branch 0's result would otherwise merge
// to cost 1 with Optimal=true. On this instance (optimum 5, greedy seed
// 6) the fourth of five branches finds the optimum. Its branches run
// serially on one search, as solveBB runs them at Parallelism 1.
func TestMergeRejectsForgedResult(t *testing.T) {
	p := randomCoverable(rand.New(rand.NewSource(9)), 30, 80)
	greedy, err := p.solveGreedyImpl(nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSearch(greedy.Cost, ExactOptions{})
	pl := p.plan(nil, greedy, ExactOptions{}, s)
	s.pl = pl
	if pl.terminal != nil {
		t.Fatal("the instance planned terminal; the test needs branches")
	}
	results := make([]branchResult, len(pl.branchRows))
	for i := range results {
		results[i], _ = s.runBranch(i)
		if !pl.accepts(results[i]) {
			t.Fatalf("branch %d: genuine result %+v not accepted", i, results[i])
		}
	}
	want, err := p.SolveExact(ExactOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.merge(results); !got.Optimal || got.Cost != want.Cost || !slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("honest merge: cost %d optimal %v rows %v, want the solve's %d true %v",
			got.Cost, got.Optimal, got.Rows, want.Cost, want.Rows)
	}
	// merge with branch b's result replaced by r.
	mergeWith := func(b int, r branchResult) Solution {
		rs := slices.Clone(results)
		rs[b] = r
		return pl.merge(rs)
	}
	forged := branchResult{found: true, cost: 1, rows: []int{0}}
	if pl.accepts(forged) {
		t.Fatal("forged result accepted")
	}
	if got := mergeWith(0, forged); got.Optimal || !p.Verify(got.Rows) || got.Cost < want.Cost {
		t.Fatalf("forged merge: cost %d optimal %v rows %v", got.Cost, got.Optimal, got.Rows)
	}

	// Every way a claimed cover can be wrong is refused. An optimal unit
	// cover is irredundant, so dropping any of its rows uncovers a column.
	branch := slices.IndexFunc(results, func(r branchResult) bool { return r.found && r.cost == want.Cost })
	if branch < 0 || len(results[branch].rows) < 2 {
		t.Fatal("no branch of the instance reported the optimum")
	}
	edit := func(f func(r *branchResult)) branchResult {
		r := results[branch]
		r.rows = slices.Clone(r.rows)
		f(&r)
		return r
	}
	bad := map[string]branchResult{
		"cost understated": edit(func(r *branchResult) { r.cost-- }),
		"cost overstated":  edit(func(r *branchResult) { r.cost++ }),
		"row out of range": edit(func(r *branchResult) { r.rows[len(r.rows)-1] = p.NumRows() }),
		"negative row":     edit(func(r *branchResult) { r.rows[0] = -1 }),
		"row dropped":      edit(func(r *branchResult) { r.rows = r.rows[1:]; r.cost-- }),
		"row repeated":     edit(func(r *branchResult) { r.rows = append(r.rows, r.rows[len(r.rows)-1]); r.cost++ }),
		"rows unsorted":    edit(func(r *branchResult) { r.rows[0], r.rows[1] = r.rows[1], r.rows[0] }),
	}
	for name, r := range bad {
		if pl.accepts(r) {
			t.Errorf("%s: %+v accepted", name, r)
		}
		if got := mergeWith(branch, r); got.Optimal || !p.Verify(got.Rows) {
			t.Errorf("%s: merge cost %d optimal %v rows %v", name, got.Cost, got.Optimal, got.Rows)
		}
	}
	if !pl.accepts(branchResult{truncated: true}) {
		t.Error("a branch that found nothing was refused")
	}
}
