package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/tpg"
)

const c17Bench = `
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
`

func prepC17(t *testing.T) *Flow {
	t.Helper()
	c, err := netlist.ParseString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Prepare(c, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSolveC17AllGenerators(t *testing.T) {
	f := prepC17(t)
	for _, kind := range tpg.Kinds() {
		gen, err := tpg.ByName(kind, len(f.Circuit.Inputs))
		if err != nil {
			t.Fatal(err)
		}
		sol, err := f.Solve(gen, Options{Cycles: 16, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sol.NumTriplets() == 0 {
			t.Errorf("%s: empty solution", kind)
		}
		if sol.NumTriplets() > len(f.Patterns) {
			t.Errorf("%s: more triplets than candidates", kind)
		}
		if !sol.Optimal {
			t.Errorf("%s: solution not proven optimal on a tiny matrix", kind)
		}
		if sol.TestLength <= 0 || sol.TestLength > sol.NumTriplets()*16 {
			t.Errorf("%s: test length %d out of range", kind, sol.TestLength)
		}
		if sol.NumNecessary+sol.NumFromSolver != sol.NumTriplets() {
			t.Errorf("%s: triplet accounting broken: %d + %d != %d",
				kind, sol.NumNecessary, sol.NumFromSolver, sol.NumTriplets())
		}
		if sol.ROMBits <= 0 {
			t.Errorf("%s: ROMBits = %d", kind, sol.ROMBits)
		}
	}
}

// Verify end to end: replaying the selected triplets through the generator
// and fault-simulating must detect every target fault. This is the paper's
// central guarantee.
func TestSolutionDetectsAllTargetFaults(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	sol, err := f.Solve(gen, Options{Cycles: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	verifyDetectsAll(t, f, sol)
}

func verifyDetectsAll(t *testing.T, f *Flow, sol *Solution) {
	t.Helper()
	gen, err := tpg.ByName(sol.Generator, len(f.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	var patterns []bitvec.Vector
	for _, st := range sol.Triplets {
		tr := st.Triplet
		tr.Cycles = st.EffectiveCycles
		ts, err := tpg.Expand(gen, tr)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, ts...)
	}
	sim, err := fsim.New(f.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(f.TargetFaults, patterns, fsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected != len(f.TargetFaults) {
		t.Errorf("solution detects %d of %d target faults",
			res.NumDetected, len(f.TargetFaults))
	}
}

func TestTrimmingShortensOrKeeps(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	trimmed, err := f.Solve(gen, Options{Cycles: 24, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := f.Solve(gen, Options{Cycles: 24, Seed: 2, NoTrim: true})
	if err != nil {
		t.Fatal(err)
	}
	if trimmed.TestLength > full.TestLength {
		t.Errorf("trimming grew test length: %d > %d", trimmed.TestLength, full.TestLength)
	}
	if full.TestLength != full.NumTriplets()*24 {
		t.Errorf("untrimmed length %d != triplets×T %d", full.TestLength, full.NumTriplets()*24)
	}
	// Trimmed solution must still detect everything.
	verifyDetectsAll(t, f, trimmed)
}

func TestSolverAblationOrdering(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	exact, err := f.Solve(gen, Options{Cycles: 16, Seed: 2, Solver: SolverExact})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := f.Solve(gen, Options{Cycles: 16, Seed: 2, Solver: SolverGreedy})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := f.Solve(gen, Options{Cycles: 16, Seed: 2, Solver: SolverGreedyNoReduce})
	if err != nil {
		t.Fatal(err)
	}
	if exact.NumTriplets() > greedy.NumTriplets() {
		t.Errorf("exact (%d) worse than greedy (%d)", exact.NumTriplets(), greedy.NumTriplets())
	}
	if exact.NumTriplets() > raw.NumTriplets() {
		t.Errorf("exact (%d) worse than unreduced greedy (%d)", exact.NumTriplets(), raw.NumTriplets())
	}
	verifyDetectsAll(t, f, greedy)
	verifyDetectsAll(t, f, raw)
}

// Figure 2 property: growing T can only shrink (or keep) the number of
// reseedings — each candidate's fault set grows monotonically with T.
func TestTradeoffMonotone(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	points, err := f.Tradeoff(gen, []int{1, 4, 16, 64}, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].Triplets > points[i-1].Triplets {
			t.Errorf("triplets grew with T: %+v -> %+v", points[i-1], points[i])
		}
	}
	// At T=1 the solution is a minimum subset of ATPG patterns, so the
	// count equals the covering optimum of the raw pattern set.
	if points[0].Triplets > len(f.Patterns) {
		t.Errorf("T=1 triplets %d > |ATPGTS| %d", points[0].Triplets, len(f.Patterns))
	}
}

func TestRunOnBenchmarkCircuit(t *testing.T) {
	s, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tpg.NewAdder(len(s.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Prepare(s, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := f.Solve(gen, Options{Cycles: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumTriplets() == 0 || sol.NumTriplets() >= sol.MatrixRows {
		t.Errorf("solution %d of %d candidates: covering achieved nothing",
			sol.NumTriplets(), sol.MatrixRows)
	}
	if sol.ResidualCols > sol.MatrixCols/2 {
		t.Errorf("reduction left %d of %d columns; expected heavy pruning",
			sol.ResidualCols, sol.MatrixCols)
	}
	t.Logf("s420/adder: %d triplets (%d necessary), length %d, matrix %dx%d -> %dx%d",
		sol.NumTriplets(), sol.NumNecessary, sol.TestLength,
		sol.MatrixRows, sol.MatrixCols, sol.ResidualRows, sol.ResidualCols)
}

func TestPrepareErrors(t *testing.T) {
	c, _ := netlist.ParseString("seq", `
INPUT(a)
OUTPUT(z)
z = AND(a, q)
q = DFF(z)
`)
	if _, err := Prepare(c, atpg.Options{}); err == nil {
		t.Fatal("expected error for sequential circuit")
	}
}

func TestSolveWidthMismatch(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(99)
	if _, err := f.Solve(gen, Options{Cycles: 4}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestDeterministicSolve(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	a, err := f.Solve(gen, Options{Cycles: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Solve(gen, Options{Cycles: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTriplets() != b.NumTriplets() || a.TestLength != b.TestLength {
		t.Errorf("same seed, different solutions: %d/%d vs %d/%d",
			a.NumTriplets(), a.TestLength, b.NumTriplets(), b.TestLength)
	}
}

func TestObjectiveMinimizeTestLength(t *testing.T) {
	f := prepC17(t)
	gen, _ := tpg.NewAdder(len(f.Circuit.Inputs))
	byCount, err := f.Solve(gen, Options{Cycles: 24, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	byLength, err := f.Solve(gen, Options{Cycles: 24, Seed: 2, Objective: MinimizeTestLength})
	if err != nil {
		t.Fatal(err)
	}
	// The weighted objective may use more triplets but never a longer test
	// than the cardinality objective achieved.
	if byLength.TestLength > byCount.TestLength {
		t.Errorf("min-testlength produced longer test: %d > %d",
			byLength.TestLength, byCount.TestLength)
	}
	if byLength.NumTriplets() < byCount.NumTriplets() {
		// Fewer triplets AND shorter test would mean the cardinality solve
		// was not optimal in count; sanity-check it.
		if byCount.Optimal {
			t.Errorf("weighted solve beat optimal cardinality: %d < %d triplets",
				byLength.NumTriplets(), byCount.NumTriplets())
		}
	}
	verifyDetectsAll(t, f, byLength)
}

func TestObjectiveString(t *testing.T) {
	if MinimizeTriplets.String() != "min-triplets" || MinimizeTestLength.String() != "min-testlength" {
		t.Error("objective names wrong")
	}
	if SolverExact.String() != "exact" || SolverGreedyNoReduce.String() != "greedy-noreduce" {
		t.Error("solver names wrong")
	}
}
