package reseeding

// Cross-stack integration tests: the reseeding solution computed by the
// behavioral flow is replayed through the synthesized gate-level TPG
// hardware, and the resulting pattern stream is fault-simulated against the
// UUT. This closes the loop the paper assumes: the triplets stored in the
// BIST ROM drive a real circuit, not a model.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/logicsim"
	"repro/internal/tpg"
	"repro/internal/tpggen"
)

// hardwareExpand runs a triplet on the synthesized TPG netlist and returns
// the pattern sequence it applies to the UUT.
func hardwareExpand(t *testing.T, kind string, width int, tr tpg.Triplet) []bitvec.Vector {
	t.Helper()
	hw, err := tpggen.FromKind(kind, width)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := logicsim.NewSequential(hw)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetState(tr.Delta); err != nil {
		t.Fatal(err)
	}
	in := bitvec.New(len(hw.Inputs))
	for i := 0; i < len(hw.Inputs); i++ {
		in.SetBit(i, tr.Theta.Bit(i))
	}
	out := make([]bitvec.Vector, tr.Cycles)
	for c := 0; c < tr.Cycles; c++ {
		o, err := sim.StepOne(in)
		if err != nil {
			t.Fatal(err)
		}
		out[c] = o
	}
	return out
}

func TestHardwareReplayDetectsAllFaults(t *testing.T) {
	for _, kind := range []string{"adder", "subtracter"} {
		t.Run(kind, func(t *testing.T) {
			scan, err := bench.ScanView("s820")
			if err != nil {
				t.Fatal(err)
			}
			flow, err := core.Prepare(scan, ATPGOptions{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			gen, err := tpg.ByName(kind, len(scan.Inputs))
			if err != nil {
				t.Fatal(err)
			}
			sol, err := flow.Solve(gen, core.Options{Cycles: 48, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}

			// Replay every selected triplet on the gate-level TPG.
			var patterns []bitvec.Vector
			for _, st := range sol.Triplets {
				tr := st.Triplet
				tr.Cycles = st.EffectiveCycles
				patterns = append(patterns, hardwareExpand(t, kind, len(scan.Inputs), tr)...)
			}
			if len(patterns) != sol.TestLength {
				t.Fatalf("hardware stream has %d patterns, solution says %d",
					len(patterns), sol.TestLength)
			}

			sim, err := fsim.New(scan)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(flow.TargetFaults, patterns, fsim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumDetected != len(flow.TargetFaults) {
				t.Errorf("hardware replay detects %d of %d target faults",
					res.NumDetected, len(flow.TargetFaults))
			}
		})
	}
}

// The LFSR path exercises the multiple-polynomial selection: θ = 0 selects
// the polynomial the synthesized netlist was built with, so a flow run with
// a single-polynomial LFSR replays exactly.
func TestHardwareReplayLFSR(t *testing.T) {
	scan, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	flow, err := core.Prepare(scan, ATPGOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	width := len(scan.Inputs)
	taps := tpg.DefaultPolynomials(width, 1, 1)
	gen, err := tpg.NewLFSR(width, taps)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := flow.Solve(gen, core.Options{Cycles: 48, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var patterns []bitvec.Vector
	for _, st := range sol.Triplets {
		tr := st.Triplet
		tr.Cycles = st.EffectiveCycles
		patterns = append(patterns, hardwareExpand(t, "lfsr", width, tr)...)
	}
	sim, err := fsim.New(scan)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(flow.TargetFaults, patterns, fsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected != len(flow.TargetFaults) {
		t.Errorf("LFSR hardware replay detects %d of %d", res.NumDetected, len(flow.TargetFaults))
	}
}

// The BIST hardware itself is a circuit: run the ATPG on the synthesized
// adder TPG to confirm the whole stack handles DFF-bearing designs through
// the scan transformation (self-test of the self-test hardware).
func TestSelfTestOfTPGHardware(t *testing.T) {
	hw, err := tpggen.Adder(12)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := hw.FullScan()
	if err != nil {
		t.Fatal(err)
	}
	flow, err := core.Prepare(scan, ATPGOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if flow.ATPG.TestableCoverage() < 0.999 {
		t.Errorf("adder TPG scan view testable coverage %.4f", flow.ATPG.TestableCoverage())
	}
	gen, err := tpg.NewAdder(len(scan.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := flow.Solve(gen, core.Options{Cycles: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumTriplets() == 0 {
		t.Error("no reseeding solution for the TPG's own scan test")
	}
}
