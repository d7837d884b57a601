package reseeding

import (
	"context"
	"strings"
	"testing"
)

// The facade must support the documented quickstart verbatim.
func TestQuickstartFlow(t *testing.T) {
	scan, err := ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	flow, _, err := NewEngine(EngineOptions{}).PrepareCircuit(context.Background(), scan, ATPGOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewTPG("adder", len(scan.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := flow.Solve(gen, Options{Cycles: 64, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumTriplets() == 0 || sol.TestLength == 0 {
		t.Errorf("empty solution: %+v", sol)
	}
}

func TestBenchmarksListed(t *testing.T) {
	names := Benchmarks()
	if len(names) < 16 {
		t.Fatalf("only %d benchmarks", len(names))
	}
	c, err := OpenBenchmark(names[0])
	if err != nil {
		t.Fatal(err)
	}
	if c.NumLogicGates() == 0 {
		t.Error("benchmark has no gates")
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(z)
z = NAND(a, b)
`
	c, err := ParseBench("tiny", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	out := FormatBench(c)
	if !strings.Contains(out, "NAND") {
		t.Errorf("format lost the gate:\n%s", out)
	}
	faults, err := Faults(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) == 0 {
		t.Error("no faults enumerated")
	}
}

func TestTPGKindsConstructible(t *testing.T) {
	for _, kind := range TPGKinds() {
		g, err := NewTPG(kind, 24)
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		if g.Width() != 24 {
			t.Errorf("%s width = %d", kind, g.Width())
		}
	}
}

func TestCoverProblemExposed(t *testing.T) {
	p := NewCoverProblem(3)
	// Rows via the internal bitset are not exposed directly; the facade
	// only promises construction and solving of problems built through the
	// reseeding flow. Verify the empty instance solves trivially... by
	// checking zero columns are uncoverable.
	if p.NumCols() != 3 || p.NumRows() != 0 {
		t.Errorf("problem shape: %d x %d", p.NumRows(), p.NumCols())
	}
	if got := p.UncoverableColumns(); len(got) != 3 {
		t.Errorf("empty problem should have 3 uncoverable columns, got %v", got)
	}
}

func TestSynthesizeTPGAndSimulate(t *testing.T) {
	hw, err := SynthesizeTPG("adder", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(hw.DFFs) != 8 || len(hw.Outputs) != 8 {
		t.Fatalf("unexpected TPG shape: %d DFFs, %d outputs", len(hw.DFFs), len(hw.Outputs))
	}
	sim, err := NewSequentialSimulator(hw)
	if err != nil {
		t.Fatal(err)
	}
	// One step from state 0 with theta=1 must produce state 0 then 1.
	in := make([]uint64, len(hw.Inputs))
	in[0] = 1 // theta bit 0 high in stream 0
	out, err := sim.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&1 != 0 {
		t.Error("first output should be the zero seed")
	}
	out, err = sim.Step(in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0]&1 != 1 {
		t.Error("second output should show the increment")
	}
	if _, err := SynthesizeTPG("bogus", 8); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestRunGatsbyFacade(t *testing.T) {
	scan, err := ScanView("s820")
	if err != nil {
		t.Fatal(err)
	}
	flow, _, err := NewEngine(EngineOptions{}).PrepareCircuit(context.Background(), scan, ATPGOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gen, _ := NewTPG("adder", len(scan.Inputs))
	res, err := RunGatsby(scan, flow.TargetFaults, gen, GatsbyConfig{
		Seed: 1, Cycles: 64, Population: 6, Generations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triplets) == 0 {
		t.Error("baseline produced nothing")
	}
}

func TestRunExperimentsFacade(t *testing.T) {
	results, err := RunExperiments(ExperimentConfig{
		Circuits: []string{"s420"},
		Cycles:   32,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Circuit != "s420" {
		t.Fatalf("unexpected results: %+v", results)
	}
}
