package setcover

// Unit tests of the Lagrangian dual bound: validity, determinism, the
// option conventions, and the RootLB report. The corpus-level properties
// (golden costs, node reduction, cross-mode identity at scale) live in
// internal/setcover/corpus.

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
)

func TestBoundModeString(t *testing.T) {
	cases := map[BoundMode]string{
		BoundAuto:       "auto",
		BoundLagrangian: "lagrangian",
		BoundCounting:   "counting",
		BoundMode(42):   "BoundMode(42)",
	}
	for mode, want := range cases {
		if got := mode.String(); got != want {
			t.Errorf("BoundMode(%d).String() = %q, want %q", int(mode), got, want)
		}
	}
}

func TestAscentBudgets(t *testing.T) {
	cases := []struct {
		opts ExactOptions
		root int
	}{
		{ExactOptions{}, defaultAscentIters},
		{ExactOptions{AscentIters: 10}, 10},
		{ExactOptions{AscentIters: -1}, 0},
	}
	for _, c := range cases {
		if root := c.opts.ascentBudget(); root != c.root {
			t.Errorf("ascentBudget(%+v) = %d, want %d", c.opts, root, c.root)
		}
	}
}

func TestDualRound(t *testing.T) {
	cases := []struct {
		in   float64
		want int
	}{
		{0, 0},
		{-3.5, 0},         // never negative
		{2.0, 2},          // exact integer stays (slack absorbs it)
		{2.0000000001, 2}, // float wobble above an integer must not overstate
		{2.1, 3},          // genuinely fractional rounds up
		{1.999999, 2},     // just under: slack is 1e-6, 1.999999-1e-6 still ceils to 2
	}
	for _, c := range cases {
		if got := dualRound(c.in); got != c.want {
			t.Errorf("dualRound(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

// chainProblem builds the N-column, N-row identity instance: row i covers
// exactly column i, so the optimum is N and the dual bound should reach it.
func chainProblem(n int) *Problem {
	p := NewProblem(n)
	for i := 0; i < n; i++ {
		s := bitvec.NewSet(n)
		s.Add(i)
		p.AddRow(s)
	}
	return p
}

func TestDualBoundTightOnIdentity(t *testing.T) {
	p := chainProblem(8)
	lb, err := p.DualBound(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lb != 8 {
		t.Fatalf("DualBound on 8-column identity = %d, want 8", lb)
	}
	weights := []int{3, 1, 4, 1, 5, 9, 2, 6}
	lb, err = p.DualBound(weights, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 + 1 + 4 + 1 + 5 + 9 + 2 + 6; lb != want {
		t.Fatalf("weighted DualBound on identity = %d, want %d", lb, want)
	}
}

func TestDualBoundErrors(t *testing.T) {
	p := NewProblem(3)
	s := bitvec.NewSet(3)
	s.Add(0)
	p.AddRow(s)
	if _, err := p.DualBound(nil, 0); err == nil {
		t.Fatal("DualBound accepted an instance with uncoverable columns")
	}
	if _, err := p.DualBound([]int{1, 2}, 0); err == nil {
		t.Fatal("DualBound accepted a weights slice of the wrong length")
	}
	empty := NewProblem(0)
	lb, err := empty.DualBound(nil, 0)
	if err != nil || lb != 0 {
		t.Fatalf("DualBound on empty universe = (%d, %v), want (0, nil)", lb, err)
	}
}

func TestDualBoundDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, weights := randomInstance(rng)
		if p.UncoverableColumns() != nil {
			continue
		}
		a, err := p.DualBound(weights, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.DualBound(weights, 0)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: DualBound not deterministic: %d then %d", trial, a, b)
		}
	}
}

// TestRootLBNeverExceedsOptimum pins the Solution.RootLB contract on small
// brute-forceable instances, for both bound modes, and checks it does not
// depend on Parallelism.
func TestRootLBNeverExceedsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		p, weights := randomInstance(rng)
		if p.UncoverableColumns() != nil {
			continue
		}
		for _, mode := range []BoundMode{BoundCounting, BoundLagrangian} {
			var serial Solution
			for _, par := range []int{1, 4} {
				sol, err := p.SolveExactWeighted(weights, ExactOptions{Bound: mode, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if sol.RootLB > sol.Cost {
					t.Fatalf("trial %d bound=%v par=%d: RootLB %d exceeds optimal cost %d",
						trial, mode, par, sol.RootLB, sol.Cost)
				}
				if par == 1 {
					serial = sol
				} else if sol.RootLB != serial.RootLB {
					t.Fatalf("trial %d bound=%v: RootLB depends on Parallelism: %d (serial) vs %d (par=4)",
						trial, mode, serial.RootLB, sol.RootLB)
				}
			}
			// The reduction pipeline's bound adds the essential rows'
			// weight to the residual's root bound.
			pipe, red, err := p.SolveMinimalWeighted(weights, ExactOptions{Bound: mode})
			if err != nil {
				t.Fatal(err)
			}
			if ess := coverCost(weights, red.Essential); pipe.RootLB < ess || pipe.RootLB > serial.Cost {
				t.Fatalf("trial %d bound=%v: pipeline RootLB %d outside [%d essential, %d optimum]",
					trial, mode, pipe.RootLB, ess, serial.Cost)
			}
		}
	}
}

// TestLagrangianTighterRoot asserts the dual root bound dominates the
// counting root bound on a dense instance where counting degenerates.
func TestLagrangianTighterRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewProblem(40)
	for i := 0; i < 60; i++ {
		s := bitvec.NewSet(40)
		for j := 0; j < 40; j++ {
			if rng.Intn(2) == 0 {
				s.Add(j)
			}
		}
		if s.Len() == 0 {
			s.Add(rng.Intn(40))
		}
		p.AddRow(s)
	}
	counting, err := p.SolveExact(ExactOptions{Bound: BoundCounting})
	if err != nil {
		t.Fatal(err)
	}
	lagrangian, err := p.SolveExact(ExactOptions{Bound: BoundLagrangian})
	if err != nil {
		t.Fatal(err)
	}
	if lagrangian.RootLB <= counting.RootLB {
		t.Errorf("dense instance: lagrangian RootLB %d not tighter than counting %d",
			lagrangian.RootLB, counting.RootLB)
	}
	if lagrangian.Nodes >= counting.Nodes {
		t.Errorf("dense instance: lagrangian %d nodes, counting %d — no pruning win",
			lagrangian.Nodes, counting.Nodes)
	}
	if lagrangian.Cost != counting.Cost {
		t.Fatalf("bound modes disagree on optimal cost: %d vs %d", lagrangian.Cost, counting.Cost)
	}
}
