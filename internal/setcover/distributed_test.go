package setcover_test

// Equivalence tests of the distributed plan API: a solve fanned out as
// subtree leases — in any order, with or without external bound feeds,
// with duplicated leases — must merge to exactly the single-process
// solver's answer. These are the process-local half of the distributed
// determinism contract; internal/cluster adds the cross-process half.

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// randomCovered builds a random instance where every column is coverable.
func randomCovered(rng *rand.Rand) (*setcover.Problem, []int) {
	cols := 8 + rng.Intn(24)
	rows := 6 + rng.Intn(30)
	p := setcover.NewProblem(cols)
	weights := make([]int, rows)
	for i := 0; i < rows; i++ {
		s := bitvec.NewSet(cols)
		for j := 0; j < cols; j++ {
			if rng.Intn(4) == 0 {
				s.Add(j)
			}
		}
		// Guarantee coverability: row i claims column i%cols.
		s.Add(i % cols)
		p.AddRow(s)
		weights[i] = 1 + rng.Intn(9)
	}
	if rows < cols {
		// Remaining columns go to row 0... impossible to mutate a added row;
		// instead add one sweeper row covering them all.
		s := bitvec.NewSet(cols)
		for j := rows; j < cols; j++ {
			s.Add(j)
		}
		if rows < cols {
			p.AddRow(s)
			weights = append(weights, 1+rng.Intn(9))
		}
	}
	return p, weights
}

// planSolveAll runs every lease of a plan (in the given order, possibly
// with duplicates) and merges, feeding each lease the merge-so-far cost
// as its external bound — exactly the coordinator's loop.
func planSolveAll(t *testing.T, pl *setcover.ExactPlan, order []int) setcover.Solution {
	t.Helper()
	if term := pl.Terminal(); term != nil {
		return *term
	}
	var bound atomic.Int64
	bound.Store(int64(pl.Greedy().Cost))
	var results []setcover.SubtreeResult
	for _, b := range order {
		res, err := pl.SolveSubtree(b, setcover.SubtreeOptions{
			Bound: func() int { return int(bound.Load()) },
			OnImprove: func(inc setcover.Incumbent) {
				for {
					cur := bound.Load()
					if int64(inc.Cost) >= cur || bound.CompareAndSwap(cur, int64(inc.Cost)) {
						return
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return pl.Merge(results)
}

func orders(n int) [][]int {
	fwd := make([]int, n)
	rev := make([]int, n)
	dup := make([]int, 0, 2*n)
	for i := 0; i < n; i++ {
		fwd[i] = i
		rev[i] = n - 1 - i
		dup = append(dup, i, i) // every lease executed twice
	}
	return [][]int{fwd, rev, dup}
}

// A plan fanned out in any order, with external bounds and duplicated
// leases, merges to the single-process answer bit-identically — on random
// unit-weight and weighted instances, in both bound modes.
func TestPlanMergeMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		p, weights := randomCovered(rng)
		for _, mode := range []setcover.BoundMode{setcover.BoundLagrangian, setcover.BoundCounting} {
			for _, weighted := range []bool{false, true} {
				opts := setcover.ExactOptions{Bound: mode, Parallelism: 1}
				var want setcover.Solution
				var err error
				var w []int
				if weighted {
					w = weights
					want, err = p.SolveExactWeighted(weights, opts)
				} else {
					want, err = p.SolveExact(opts)
				}
				if err != nil {
					t.Fatal(err)
				}
				pl, err := p.PlanExact(w, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, order := range orders(pl.NumBranches()) {
					got := planSolveAll(t, pl, order)
					if got.Cost != want.Cost || got.Optimal != want.Optimal || !slices.Equal(got.Rows, want.Rows) {
						t.Fatalf("trial %d mode %v weighted %v order %v: merge %v (cost %d, opt %v) != solve %v (cost %d, opt %v)",
							trial, mode, weighted, order, got.Rows, got.Cost, got.Optimal, want.Rows, want.Cost, want.Optimal)
					}
					if got.RootLB != want.RootLB {
						t.Fatalf("trial %d: merge RootLB %d != solve %d", trial, got.RootLB, want.RootLB)
					}
				}
			}
		}
	}
}

// The same equivalence over the committed corpus, hard tier included —
// the instances the distributed fabric exists for. Open-tier instances
// are excluded: their solves are budget-truncated, and truncation is
// timing-dependent by contract.
func TestPlanMergeMatchesSolveCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep in -short mode")
	}
	for _, spec := range corpus.Specs() {
		if spec.Tier == corpus.TierOpen {
			continue
		}
		inst, err := corpus.Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		opts := setcover.ExactOptions{Parallelism: 1}
		w := inst.Weights()
		var want setcover.Solution
		if w != nil {
			want, err = inst.Problem.SolveExactWeighted(w, opts)
		} else {
			want, err = inst.Problem.SolveExact(opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		pl, err := inst.Problem.PlanExact(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Reverse order exercises scheduling independence without tripling
		// the sweep's cost.
		n := pl.NumBranches()
		order := make([]int, n)
		for i := range order {
			order[i] = n - 1 - i
		}
		got := planSolveAll(t, pl, order)
		if got.Cost != want.Cost || got.Optimal != want.Optimal || !slices.Equal(got.Rows, want.Rows) {
			t.Errorf("%s: merge (cost %d, opt %v) != solve (cost %d, opt %v)",
				spec.Name, got.Cost, got.Optimal, want.Cost, want.Optimal)
		}
	}
}

// Lost and truncated leases degrade the merge to anytime: a valid cover
// (at worst the greedy seed), never an optimality claim.
func TestPlanMergeDegradesGracefully(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	degradations, truncations := 0, 0
	for trial := 0; trial < 40; trial++ {
		p, _ := randomCovered(rng)
		pl, err := p.PlanExact(nil, setcover.ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Terminal() != nil {
			continue
		}
		degradations++

		// No results at all: the greedy seed, not optimal.
		sol := pl.Merge(nil)
		if !p.Verify(sol.Rows) {
			t.Fatalf("trial %d: empty merge is not a cover: %v", trial, sol.Rows)
		}
		if sol.Optimal {
			t.Fatalf("trial %d: empty merge claims optimality", trial)
		}

		// A truncated lease (1-node budget) plus a lost lease: still a
		// cover, still no optimality claim, cost never above greedy.
		res, err := pl.SolveSubtree(0, setcover.SubtreeOptions{MaxNodes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			truncations++ // a 1-node subtree may legitimately complete; most won't
		}
		partial := pl.Merge([]setcover.SubtreeResult{res})
		if !p.Verify(partial.Rows) {
			t.Fatalf("trial %d: partial merge is not a cover", trial)
		}
		if partial.Optimal {
			t.Fatalf("trial %d: partial merge claims optimality", trial)
		}
		if partial.Cost > pl.Greedy().Cost {
			t.Fatalf("trial %d: partial merge cost %d above greedy %d", trial, partial.Cost, pl.Greedy().Cost)
		}
	}
	if degradations == 0 {
		t.Fatal("every trial planned terminal; the test exercised nothing")
	}
	if truncations == 0 {
		t.Fatal("no trial hit the 1-node budget; truncation untested")
	}
}

// Out-of-range leases are errors; terminal plans refuse leases.
func TestPlanSubtreeErrors(t *testing.T) {
	p := setcover.NewProblem(4)
	for i := 0; i < 4; i++ {
		s := bitvec.NewSet(4)
		s.Add(i)
		p.AddRow(s)
	}
	// Every row is essential: the root resolves the whole problem.
	pl, err := p.PlanExact(nil, setcover.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	term := pl.Terminal()
	if term == nil {
		t.Fatal("fully-essential problem did not plan terminal")
	}
	if !term.Optimal || term.Cost != 4 {
		t.Fatalf("terminal solution: %+v", term)
	}
	if pl.NumBranches() != 0 {
		t.Fatalf("terminal plan advertises %d branches", pl.NumBranches())
	}
	if _, err := pl.SolveSubtree(0, setcover.SubtreeOptions{}); err == nil {
		t.Error("terminal plan accepted a lease")
	}
	if got := pl.Merge(nil); got.Cost != term.Cost || !got.Optimal {
		t.Errorf("terminal merge: %+v", got)
	}
}

// A forged lease result must not win the merge. On medium-1 (optimum 5),
// branch 0's result replaced by a one-row "cover" of cost 1 used to merge
// to cost 1 with Optimal=true. Merge now drops it: branch 0 is then not
// completed, so the answer is a verified cover without an optimality
// claim, unless the genuine result for branch 0 arrives as well.
func TestMergeRejectsForgedResult(t *testing.T) {
	inst, err := corpus.Load("medium-1")
	if err != nil {
		t.Fatal(err)
	}
	p := inst.Problem
	pl, err := p.PlanExact(nil, setcover.ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var results []setcover.SubtreeResult
	for b := 0; b < pl.NumBranches(); b++ {
		res, err := pl.SolveSubtree(b, setcover.SubtreeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Accepts(res) {
			t.Fatalf("branch %d: genuine result %+v not accepted", b, res)
		}
		results = append(results, res)
	}
	want := pl.Merge(results)
	if !want.Optimal || want.Cost != 5 {
		t.Fatalf("honest merge: cost %d optimal %v, want 5 true", want.Cost, want.Optimal)
	}

	forged := setcover.SubtreeResult{Branch: 0, Found: true, Cost: 1, Rows: []int{0}}
	if pl.Accepts(forged) {
		t.Fatal("forged result accepted")
	}
	got := pl.Merge(append([]setcover.SubtreeResult{forged}, results[1:]...))
	if got.Optimal || !p.Verify(got.Rows) || got.Cost < want.Cost {
		t.Fatalf("forged merge: cost %d optimal %v rows %v", got.Cost, got.Optimal, got.Rows)
	}
	// The genuine branch-0 result beside the forged one completes the
	// branch again.
	got = pl.Merge(append([]setcover.SubtreeResult{forged}, results...))
	if !got.Optimal || got.Cost != want.Cost || !slices.Equal(got.Rows, want.Rows) {
		t.Fatalf("forged plus genuine: cost %d optimal %v, want %d true", got.Cost, got.Optimal, want.Cost)
	}

	// Every way a claimed cover can be wrong is refused. An optimal unit
	// cover is irredundant, so dropping any of its rows uncovers a column.
	var found setcover.SubtreeResult
	for _, r := range results {
		if r.Found && r.Cost == want.Cost {
			found = r
			break
		}
	}
	if !found.Found || len(found.Rows) < 2 {
		t.Fatal("no branch of medium-1 reported the optimum")
	}
	edit := func(f func(r *setcover.SubtreeResult)) setcover.SubtreeResult {
		r := found
		r.Rows = slices.Clone(found.Rows)
		f(&r)
		return r
	}
	bad := map[string]setcover.SubtreeResult{
		"branch below range": edit(func(r *setcover.SubtreeResult) { r.Branch = -1 }),
		"branch above range": edit(func(r *setcover.SubtreeResult) { r.Branch = pl.NumBranches() }),
		"cost understated":   edit(func(r *setcover.SubtreeResult) { r.Cost-- }),
		"cost overstated":    edit(func(r *setcover.SubtreeResult) { r.Cost++ }),
		"row out of range":   edit(func(r *setcover.SubtreeResult) { r.Rows[len(r.Rows)-1] = p.NumRows() }),
		"negative row":       edit(func(r *setcover.SubtreeResult) { r.Rows[0] = -1 }),
		"row dropped":        edit(func(r *setcover.SubtreeResult) { r.Rows = r.Rows[1:]; r.Cost-- }),
		"row repeated":       edit(func(r *setcover.SubtreeResult) { r.Rows = append(r.Rows, r.Rows[len(r.Rows)-1]); r.Cost++ }),
		"rows unsorted":      edit(func(r *setcover.SubtreeResult) { r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0] }),
	}
	for name, r := range bad {
		if pl.Accepts(r) {
			t.Errorf("%s: %+v accepted", name, r)
		}
	}
	if !pl.Accepts(setcover.SubtreeResult{Branch: 0, Truncated: true}) {
		t.Error("a lease that found nothing was refused")
	}
}
