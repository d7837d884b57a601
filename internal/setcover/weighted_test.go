package setcover

import (
	"math/rand"
	"testing"
)

func TestWeightedPrefersCheapCover(t *testing.T) {
	// One expensive row covers everything; two cheap rows split it.
	p := mk(4,
		[]int{0, 1, 2, 3}, // weight 10
		[]int{0, 1},       // weight 2
		[]int{2, 3},       // weight 2
	)
	weights := []int{10, 2, 2}
	sol, err := p.SolveExactWeighted(weights, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := totalWeight(weights, sol.Rows); got != 4 {
		t.Errorf("weighted optimum cost %d (%v), want 4", got, sol.Rows)
	}
	// Unweighted optimum is the single big row.
	unw, err := p.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unw.Rows) != 1 {
		t.Errorf("cardinality optimum = %v, want the single row", unw.Rows)
	}
}

func TestWeightedGreedyRatioRule(t *testing.T) {
	p := mk(3,
		[]int{0, 1, 2}, // ratio 9/3 = 3
		[]int{0},       // ratio 1
		[]int{1, 2},    // ratio 1
	)
	weights := []int{9, 1, 2}
	sol, err := p.solveGreedyImpl(weights)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(sol.Rows) {
		t.Fatal("greedy weighted cover invalid")
	}
	if got := totalWeight(weights, sol.Rows); got != 3 {
		t.Errorf("greedy cost %d (%v), want 3", got, sol.Rows)
	}
}

func TestWeightedValidation(t *testing.T) {
	p := mk(2, []int{0, 1})
	if _, err := p.SolveExactWeighted([]int{1, 2}, ExactOptions{}); err == nil {
		t.Error("wrong weight count accepted")
	}
	if _, err := p.SolveExactWeighted([]int{-1}, ExactOptions{}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := p.ReduceWeighted([]int{1, 2}); err == nil {
		t.Error("wrong weight count accepted by the reduction")
	}
	if _, err := p.SolveGreedyWeighted([]int{1, 2}); err == nil {
		t.Error("wrong weight count accepted by the weighted greedy")
	}
}

// Exact weighted must match brute force on random instances.
func TestWeightedExactMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 30; trial++ {
		p := randomCoverable(rng, 4+rng.Intn(8), 5+rng.Intn(10))
		weights := make([]int, p.NumRows())
		for i := range weights {
			weights[i] = 1 + rng.Intn(9)
		}
		sol, err := p.SolveExactWeighted(weights, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify(sol.Rows) {
			t.Fatalf("trial %d: invalid cover", trial)
		}
		want := bruteForceWeighted(p, weights)
		if got := totalWeight(weights, sol.Rows); got != want {
			t.Errorf("trial %d: cost %d, brute force %d", trial, got, want)
		}
		// The full pipeline (weighted reduction + exact) must agree.
		red, err := p.ReduceWeighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := red.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := totalWeight(weights, pipe.Rows); got != want {
			t.Errorf("trial %d: pipeline cost %d, brute force %d", trial, got, want)
		}
	}
}

func bruteForceWeighted(p *Problem, weights []int) int {
	n := p.NumRows()
	best := 1 << 30
	for mask := 0; mask < 1<<uint(n); mask++ {
		cost := 0
		var rows []int
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				cost += weights[i]
				rows = append(rows, i)
			}
		}
		if cost < best && p.Verify(rows) {
			best = cost
		}
	}
	return best
}

// Weight-aware dominance must never delete a cheap row in favour of a
// heavier superset.
func TestWeightedReductionSafety(t *testing.T) {
	p := mk(2,
		[]int{0},    // cheap, weight 1
		[]int{0, 1}, // heavy superset, weight 10
		[]int{1},    // cheap, weight 1
	)
	weights := []int{1, 10, 1}
	red, err := p.ReduceWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range red.DominatedRows {
		if r == 0 || r == 2 {
			t.Errorf("cheap row %d deleted under a heavier dominator", r)
		}
	}
	sol, err := red.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := totalWeight(weights, sol.Rows); got != 2 {
		t.Errorf("weighted optimum cost %d (%v), want 2", got, sol.Rows)
	}
}

func TestWeightedEqualRowsKeepLighter(t *testing.T) {
	p := mk(2,
		[]int{0, 1}, // weight 5
		[]int{0, 1}, // weight 3: identical coverage, cheaper
	)
	weights := []int{5, 3}
	red, err := p.ReduceWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := red.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Rows) != 1 || sol.Rows[0] != 1 {
		t.Errorf("solution %v, want the lighter duplicate (row 1)", sol.Rows)
	}
}

// Regression for the free-row bug: the weighted greedy documented "take
// zero-weight rows immediately" but scanned them by ratio, where every free
// row ties at 0 and the lowest index wins regardless of gain. Free rows are
// now taken up front, highest gain first, so the big free row 1 preempts
// the small free row 0 (which then gains nothing and is dropped).
func TestWeightedGreedyTakesFreeRowsByGain(t *testing.T) {
	p := mk(5,
		[]int{0},       // free, gain 1 — the old code took this first
		[]int{0, 1, 2}, // free, gain 3 — must come first now
		[]int{3, 4},    // weight 5
		[]int{4},       // weight 1
	)
	weights := []int{0, 0, 5, 1}
	sol, err := p.solveGreedyImpl(weights)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	if len(sol.Rows) != len(want) {
		t.Fatalf("rows = %v, want %v", sol.Rows, want)
	}
	for i, r := range want {
		if sol.Rows[i] != r {
			t.Fatalf("rows = %v, want %v", sol.Rows, want)
		}
	}
	if sol.Cost != 6 {
		t.Errorf("cost = %d, want 6", sol.Cost)
	}
	if !p.Verify(sol.Rows) {
		t.Error("cover invalid")
	}
}

func TestWeightedZeroWeights(t *testing.T) {
	// All-zero weights: any cover is optimal at cost 0; solver must not
	// divide by zero or loop.
	p := mk(3, []int{0, 1}, []int{1, 2}, []int{2})
	weights := []int{0, 0, 0}
	sol, err := p.SolveExactWeighted(weights, ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(sol.Rows) {
		t.Error("invalid cover with zero weights")
	}
}

func TestUnweightedReductionUnchanged(t *testing.T) {
	// Guard: the weighted refactor must not alter unweighted behaviour.
	p := mk(3,
		[]int{0, 1},
		[]int{0, 1, 2},
		[]int{2},
	)
	red := p.Reduce()
	if len(red.DominatedRows) != 2 || len(red.Essential) != 1 || red.Essential[0] != 1 {
		t.Errorf("unweighted reduction changed: %+v", red)
	}
}
