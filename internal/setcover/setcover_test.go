package setcover

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitvec"
)

// mk builds a problem from explicit rows.
func mk(numCols int, rows ...[]int) *Problem {
	p := NewProblem(numCols)
	for _, r := range rows {
		s := bitvec.NewSet(numCols)
		for _, c := range r {
			s.Add(c)
		}
		p.AddRow(s)
	}
	return p
}

func TestVerifyAndMinimal(t *testing.T) {
	p := mk(4, []int{0, 1}, []int{2, 3}, []int{1, 2}, []int{0, 1, 2, 3})
	if !p.Verify([]int{0, 1}) {
		t.Error("rows {0,1} cover everything")
	}
	if p.Verify([]int{0, 2}) {
		t.Error("rows {0,2} miss column 3")
	}
	if !p.Minimal([]int{0, 1}) {
		t.Error("{0,1} is minimal")
	}
	if p.Minimal([]int{0, 1, 2}) {
		t.Error("{0,1,2} is redundant")
	}
	if p.Verify([]int{-1}) || p.Verify([]int{99}) {
		t.Error("out-of-range rows must not verify")
	}
}

func TestUncoverable(t *testing.T) {
	p := mk(3, []int{0}, []int{1})
	bad := p.UncoverableColumns()
	if len(bad) != 1 || bad[0] != 2 {
		t.Errorf("UncoverableColumns = %v, want [2]", bad)
	}
	if _, err := p.SolveGreedy(); err == nil {
		t.Error("greedy must reject uncoverable instance")
	}
	if _, err := p.SolveExact(ExactOptions{}); err == nil {
		t.Error("exact must reject uncoverable instance")
	}
	if _, err := p.Reduce().SolveExact(ExactOptions{}); err == nil {
		t.Error("Reduce().SolveExact must reject uncoverable instance")
	}
}

func TestGreedyKnownInstance(t *testing.T) {
	// Classic greedy trap: greedy takes the big row then needs 2 more;
	// optimum is the two disjoint rows.
	p := mk(6,
		[]int{0, 1, 2, 3}, // greedy bait
		[]int{0, 1, 4},
		[]int{2, 3, 5},
	)
	g, err := p.SolveGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Verify(g.Rows) {
		t.Fatal("greedy result does not cover")
	}
	e, err := p.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Rows) != 2 || !e.Optimal {
		t.Errorf("exact = %v (optimal=%v), want 2 rows", e.Rows, e.Optimal)
	}
	if len(g.Rows) != 3 {
		t.Errorf("greedy = %v, expected the 3-row trap", g.Rows)
	}
}

func TestExactBeatsOrMatchesGreedyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		p := randomCoverable(rng, 4+rng.Intn(8), 6+rng.Intn(12))
		g, err := p.SolveGreedy()
		if err != nil {
			t.Fatal(err)
		}
		e, err := p.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify(e.Rows) {
			t.Fatalf("trial %d: exact cover invalid", trial)
		}
		if len(e.Rows) > len(g.Rows) {
			t.Errorf("trial %d: exact %d rows > greedy %d rows", trial, len(e.Rows), len(g.Rows))
		}
		if !e.Optimal {
			t.Errorf("trial %d: tiny instance not proven optimal", trial)
		}
		// Cross-check optimality against brute force.
		if want := bruteForceOptimum(p); len(e.Rows) != want {
			t.Errorf("trial %d: exact found %d rows, brute force %d", trial, len(e.Rows), want)
		}
	}
}

// bruteForceOptimum enumerates all row subsets (rows ≤ ~16).
func bruteForceOptimum(p *Problem) int {
	n := p.NumRows()
	best := n + 1
	for mask := 0; mask < 1<<uint(n); mask++ {
		covered := bitvec.NewSet(p.NumCols())
		size := 0
		for i := 0; i < n; i++ {
			if mask>>uint(i)&1 == 1 {
				covered.Or(p.Row(i))
				size++
			}
		}
		if size < best && covered.Len() == p.NumCols() {
			best = size
		}
	}
	return best
}

func randomCoverable(rng *rand.Rand, nRows, nCols int) *Problem {
	p := NewProblem(nCols)
	for i := 0; i < nRows; i++ {
		s := bitvec.NewSet(nCols)
		for j := 0; j < nCols; j++ {
			if rng.Intn(3) == 0 {
				s.Add(j)
			}
		}
		p.AddRow(s)
	}
	// Ensure coverage: add leftover columns to random rows.
	for _, j := range p.UncoverableColumns() {
		p.rows[rng.Intn(nRows)].Add(j)
	}
	return p
}

func TestReduceEssential(t *testing.T) {
	// Column 3 is covered only by row 1, so row 1 is essential and its
	// columns vanish; the rest reduces away entirely.
	p := mk(4,
		[]int{0, 1},
		[]int{2, 3},
		[]int{0, 1, 2},
	)
	red := p.Reduce()
	if len(red.Essential) != 2 {
		t.Fatalf("essential = %v, want rows 1 and 2 (or equivalent)", red.Essential)
	}
	if !red.Empty() {
		t.Errorf("residual should be empty, has %d cols", red.Residual.NumCols())
	}
}

func TestReduceRowDominance(t *testing.T) {
	// No column is uniquely covered, so essentiality cannot fire first;
	// rows 0 and 2 are strict subsets of row 1 and must be dominated,
	// after which row 1 becomes essential.
	p := mk(3,
		[]int{0, 1},
		[]int{0, 1, 2},
		[]int{2},
	)
	red := p.Reduce()
	if len(red.DominatedRows) != 2 || red.DominatedRows[0] != 0 || red.DominatedRows[1] != 2 {
		t.Errorf("dominated rows = %v, want [0 2] (%+v)", red.DominatedRows, red)
	}
	if len(red.Essential) != 1 || red.Essential[0] != 1 {
		t.Errorf("essential = %v, want [1]", red.Essential)
	}
	if !red.Empty() {
		t.Errorf("residual should be empty")
	}
}

func TestReduceColumnDominance(t *testing.T) {
	// Every row covering col 0 also covers col 1 (rows(0) ⊆ rows(1)), so
	// col 1 is implied. With col 1 gone, rows 0 and 1 tie.
	p := mk(2,
		[]int{0, 1},
		[]int{0, 1},
		[]int{1},
	)
	red := p.Reduce()
	if red.ImpliedCols == 0 {
		t.Errorf("expected implied/duplicate columns: %+v", red)
	}
	sol, err := red.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Rows) != 1 {
		t.Errorf("minimal cover = %v, want 1 row", sol.Rows)
	}
}

func TestReductionSolveExactMatchesPlainExact(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		p := randomCoverable(rng, 5+rng.Intn(10), 8+rng.Intn(20))
		plain, err := p.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		red := p.Reduce()
		viaReduce, err := red.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !p.Verify(viaReduce.Rows) {
			t.Fatalf("trial %d: reduced solution does not cover original", trial)
		}
		if len(viaReduce.Rows) != len(plain.Rows) {
			t.Errorf("trial %d: reduction changed optimum: %d vs %d (reduction %+v)",
				trial, len(viaReduce.Rows), len(plain.Rows), red)
		}
		if !p.Minimal(viaReduce.Rows) {
			t.Errorf("trial %d: solution is redundant", trial)
		}
		// Essential rows are in every cover: RootLB counts them on top of
		// the residual's root bound, and never exceeds the optimum.
		if viaReduce.RootLB < len(red.Essential) || viaReduce.RootLB > viaReduce.Cost {
			t.Errorf("trial %d: RootLB %d outside [%d essential, %d cost]",
				trial, viaReduce.RootLB, len(red.Essential), viaReduce.Cost)
		}
	}
}

func TestReductionAloneSolvesDisjointMatrix(t *testing.T) {
	// Disjoint rows: every column has a unique covering row, so the whole
	// solution is essential (the paper's "empty matrix after reduction").
	p := mk(6, []int{0, 1}, []int{2, 3}, []int{4, 5})
	red := p.Reduce()
	sol, err := red.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !red.Empty() || len(red.Essential) != 3 {
		t.Errorf("reduction should solve outright: %+v", red)
	}
	// The essential rows alone are the proven optimum, and their cost is
	// the root bound.
	if len(sol.Rows) != 3 || sol.Nodes != 0 || !sol.Optimal || sol.RootLB != 3 {
		t.Errorf("solution = %+v", sol)
	}
}

func TestCyclicCoreNeedsSolver(t *testing.T) {
	// The classic 2-cover cycle: no essentials, no dominance; the solver
	// must work (paper's "no necessary triplets" circuits).
	p := mk(3,
		[]int{0, 1},
		[]int{1, 2},
		[]int{2, 0},
	)
	red := p.Reduce()
	sol, err := red.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Essential) != 0 {
		t.Errorf("cyclic core has no essentials: %v", red.Essential)
	}
	if red.Empty() {
		t.Error("cyclic core should survive reduction")
	}
	if len(sol.Rows) != 2 || !sol.Optimal {
		t.Errorf("minimal cover = %+v, want 2 rows", sol)
	}
}

func TestNodeLimitTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomCoverable(rng, 40, 120)
	sol, err := p.SolveExact(ExactOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Optimal {
		t.Error("1-node budget cannot prove optimality")
	}
	if !p.Verify(sol.Rows) {
		t.Error("truncated solve must still return the greedy incumbent cover")
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(0)
	sol, err := p.SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Rows) != 0 || !sol.Optimal {
		t.Errorf("empty problem solution = %+v", sol)
	}
}

func TestAddRowUniverseMismatchPanics(t *testing.T) {
	p := NewProblem(4)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong universe")
		}
	}()
	p.AddRow(bitvec.NewSet(5))
}

// Larger randomized stress: reduction + exact equals brute force on
// instances with heavy duplication (like fault-simulation matrices).
func TestDuplicateHeavyMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		base := randomCoverable(rng, 4+rng.Intn(6), 5+rng.Intn(6))
		// Duplicate columns heavily by widening: each original column is
		// repeated 1-4 times.
		reps := make([]int, base.NumCols())
		total := 0
		for j := range reps {
			reps[j] = 1 + rng.Intn(4)
			total += reps[j]
		}
		p := NewProblem(total)
		for i := 0; i < base.NumRows(); i++ {
			s := bitvec.NewSet(total)
			k := 0
			for j := 0; j < base.NumCols(); j++ {
				for r := 0; r < reps[j]; r++ {
					if base.Row(i).Contains(j) {
						s.Add(k)
					}
					k++
				}
			}
			p.AddRow(s)
		}
		red := p.Reduce()
		sol, err := red.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForceOptimum(base); len(sol.Rows) != want {
			t.Errorf("trial %d: got %d rows, want %d", trial, len(sol.Rows), want)
		}
		// When the instance is not solved outright by essentiality, the
		// duplicated columns must have been collapsed by column dominance.
		if !red.Empty() && red.ImpliedCols == 0 && total > base.NumCols() {
			t.Errorf("trial %d: duplicates not collapsed", trial)
		}
	}
}

func BenchmarkReduceDuplicateHeavy(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base := randomCoverable(rng, 60, 200)
	p := NewProblem(4000)
	for i := 0; i < base.NumRows(); i++ {
		s := bitvec.NewSet(4000)
		for j := 0; j < 4000; j++ {
			if base.Row(i).Contains(j % 200) {
				s.Add(j)
			}
		}
		p.AddRow(s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Reduce()
	}
}

func BenchmarkExactMediumInstance(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := randomCoverable(rng, 30, 80)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveExact(ExactOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSolutionRowsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randomCoverable(rng, 10, 20)
	sol, err := p.Reduce().SolveExact(ExactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(sol.Rows) {
		t.Errorf("rows not sorted: %v", sol.Rows)
	}
}
