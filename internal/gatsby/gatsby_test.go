package gatsby

import (
	"context"
	"errors"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bitvec"
	"repro/internal/fault"
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

// target returns c17 with its ATPG-detected fault list, the same F the
// covering flow would use.
func target(t *testing.T) (*netlist.Circuit, []fault.Fault) {
	t.Helper()
	c, err := netlist.ParseString("c17", c17Bench)
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.Run(c, all, atpg.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var faults []fault.Fault
	for _, fi := range res.DetectedFaults() {
		faults = append(faults, all[fi])
	}
	return c, faults
}

func TestFullCoverageOnC17(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	res, err := Run(context.Background(), c, faults, gen, Config{Seed: 1, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1.0 {
		t.Errorf("coverage = %v (stalled=%v, %d triplets)", res.Coverage, res.Stalled, len(res.Triplets))
	}
	if len(res.Triplets) == 0 {
		t.Fatal("no triplets committed")
	}
	if res.TestLength <= 0 {
		t.Errorf("test length = %d", res.TestLength)
	}
	// Replay the committed triplets: they must detect everything claimed.
	sim, _ := fsim.New(c)
	var patterns []bitvec.Vector
	for _, tr := range res.Triplets {
		ts, err := tpg.Expand(gen, tr)
		if err != nil {
			t.Fatal(err)
		}
		patterns = append(patterns, ts...)
	}
	fres, err := sim.Run(context.Background(), faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if fres.NumDetected != len(faults) {
		t.Errorf("replay detects %d of %d", fres.NumDetected, len(faults))
	}
}

func TestSimulationEffortTracked(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	res, err := Run(context.Background(), c, faults, gen, Config{Seed: 1, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	// The GA pays one full population evaluation plus (generations-1)
	// rounds of (population-1) children per reseed; that simulation
	// volume is its defining cost.
	minSims := len(res.Triplets) * (16 + 9*15)
	if res.TripletSims < minSims {
		t.Errorf("TripletSims = %d, expected at least %d", res.TripletSims, minSims)
	}
	if res.GateEvals == 0 {
		t.Error("GateEvals not tracked")
	}
}

func TestFeasibilityGate(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	_, err := Run(context.Background(), c, faults, gen, Config{Seed: 1, MaxFaults: 5})
	if !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestWidthMismatch(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs) + 3)
	if _, err := Run(context.Background(), c, faults, gen, Config{Seed: 1}); err == nil {
		t.Fatal("expected width mismatch error")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	a, err := Run(context.Background(), c, faults, gen, Config{Seed: 7, Cycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), c, faults, gen, Config{Seed: 7, Cycles: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Triplets) != len(b.Triplets) || a.TestLength != b.TestLength {
		t.Errorf("same seed, different results: %d/%d vs %d/%d",
			len(a.Triplets), a.TestLength, len(b.Triplets), b.TestLength)
	}
}

func TestEmptyFaultList(t *testing.T) {
	c, _ := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	res, err := Run(context.Background(), c, nil, gen, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage != 1.0 || len(res.Triplets) != 0 {
		t.Errorf("empty fault list: %+v", res)
	}
}

func TestMaxReseedsBounds(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	res, err := Run(context.Background(), c, faults, gen, Config{Seed: 1, Cycles: 1, MaxReseeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triplets) > 2 {
		t.Errorf("%d triplets exceed MaxReseeds=2", len(res.Triplets))
	}
}
