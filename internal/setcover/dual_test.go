package setcover

// Unit tests of the Lagrangian dual bound: validity, determinism, the
// option conventions, the RootLB report, and dualEval's pricing against
// the row-major reference it must match bit for bit. The corpus-level
// properties (golden costs, node reduction, cross-mode identity at scale)
// live in internal/setcover/corpus.

import (
	"math"
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

// dualEvalRowMajor is the row-major pricing the engine used before it priced
// column by column: every available row's reduced cost is one chain of
// subtractions over the row's uncovered columns. It is kept as the
// reference dualEval must match bit for bit.
func (pl *ExactPlan) dualEvalRowMajor(u []float64, uncovered, banned *bitvec.Set, grad []float64) (val, gnorm2 float64) {
	if grad != nil {
		uncovered.ForEach(func(j int) { grad[j] = 1 })
	}
	uncovered.ForEach(func(j int) { val += u[j] })
	for r, row := range pl.p.rows {
		if banned.Contains(r) {
			continue
		}
		rc := float64(pl.rowCost(r))
		row.ForEachIn(uncovered, func(j int) { rc -= u[j] })
		if rc < 0 {
			val += rc
			if grad != nil {
				row.ForEachIn(uncovered, func(j int) { grad[j]-- })
			}
		}
	}
	if grad != nil {
		uncovered.ForEach(func(j int) { gnorm2 += grad[j] * grad[j] })
	}
	return val, gnorm2
}

// randomDualCase draws one dualEval input: 1–130 rows and columns (so sets
// span up to three words) at density 0.05–0.6, unit or weighted costs with
// zero weights, random uncovered and banned sets, and non-negative
// multipliers of mixed magnitude with some exact zeros.
func randomDualCase(rng *rand.Rand) (pl *ExactPlan, u []float64, uncovered, banned *bitvec.Set) {
	nRows, nCols := 1+rng.Intn(130), 1+rng.Intn(130)
	density := 0.05 + 0.55*rng.Float64()
	p := NewProblem(nCols)
	for i := 0; i < nRows; i++ {
		s := bitvec.NewSet(nCols)
		for j := 0; j < nCols; j++ {
			if rng.Float64() < density {
				s.Add(j)
			}
		}
		p.AddRow(s)
	}
	var weights []int
	if rng.Intn(2) == 0 {
		weights = make([]int, nRows)
		for i := range weights {
			weights[i] = rng.Intn(8) // zero weights common
		}
	}
	pl = newPlan(p, weights)
	uncovered = bitvec.NewSet(nCols)
	keep := rng.Float64()
	for j := 0; j < nCols; j++ {
		if rng.Float64() < keep {
			uncovered.Add(j)
		}
	}
	banned = bitvec.NewSet(nRows)
	ban := 0.5 * rng.Float64()
	for r := 0; r < nRows; r++ {
		if rng.Float64() < ban {
			banned.Add(r)
		}
	}
	u = make([]float64, nCols)
	for j := range u {
		if rng.Intn(5) > 0 { // one in five stays an exact zero
			u[j] = rng.Float64() * math.Pow(10, float64(rng.Intn(4)-2))
		}
	}
	return pl, u, uncovered, banned
}

// checkDualEvalMatchesRowMajor evaluates one case both ways, with and
// without a subgradient, and requires val, gnorm2 and every grad entry to
// be the same float bits. Both gradient buffers start from the same
// sentinel, so an entry outside the uncovered set must be left alone.
func checkDualEvalMatchesRowMajor(t *testing.T, pl *ExactPlan, u []float64, uncovered, banned *bitvec.Set) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, withGrad := range []bool{false, true} {
		var got, want []float64
		if withGrad {
			got, want = make([]float64, len(u)), make([]float64, len(u))
			for j := range got {
				got[j], want[j] = -7.25, -7.25
			}
		}
		ds := pl.newDualScratch()
		copy(ds.u, u)
		val, gnorm2 := pl.dualEval(ds, uncovered, banned, got)
		wval, wgnorm2 := pl.dualEvalRowMajor(u, uncovered, banned, want)
		if !same(val, wval) || !same(gnorm2, wgnorm2) {
			t.Fatalf("grad=%v: dualEval (%v, %v), row-major (%v, %v)", withGrad, val, gnorm2, wval, wgnorm2)
		}
		for j := range got {
			if !same(got[j], want[j]) {
				t.Fatalf("grad[%d] = %v, row-major %v", j, got[j], want[j])
			}
		}
	}
}

func TestDualEvalMatchesRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 400; trial++ {
		pl, u, uncovered, banned := randomDualCase(rng)
		checkDualEvalMatchesRowMajor(t, pl, u, uncovered, banned)
	}
}

func FuzzDualEvalMatchesRowMajor(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(18))
	f.Add(int64(-3))
	f.Fuzz(func(t *testing.T, seed int64) {
		pl, u, uncovered, banned := randomDualCase(rand.New(rand.NewSource(seed)))
		checkDualEvalMatchesRowMajor(t, pl, u, uncovered, banned)
	})
}
