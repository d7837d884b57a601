package fsim

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/netlist"
)

// resultsEqual compares every field of two Results bit for bit.
func resultsEqual(t *testing.T, label string, serial, par *Result) {
	t.Helper()
	if par.NumDetected != serial.NumDetected {
		t.Errorf("%s: NumDetected %d != serial %d", label, par.NumDetected, serial.NumDetected)
	}
	if par.PatternsApplied != serial.PatternsApplied {
		t.Errorf("%s: PatternsApplied %d != serial %d", label, par.PatternsApplied, serial.PatternsApplied)
	}
	if par.GateEvals != serial.GateEvals {
		t.Errorf("%s: GateEvals %d != serial %d", label, par.GateEvals, serial.GateEvals)
	}
	for i := range serial.Detected {
		if par.Detected[i] != serial.Detected[i] {
			t.Fatalf("%s: Detected[%d] = %v != serial %v", label, i, par.Detected[i], serial.Detected[i])
		}
		if par.FirstPattern[i] != serial.FirstPattern[i] {
			t.Fatalf("%s: FirstPattern[%d] = %d != serial %d", label, i, par.FirstPattern[i], serial.FirstPattern[i])
		}
	}
}

// TestParallelMatchesSerial is the determinism guarantee of the package doc:
// on the s-class benchmark circuits, Run returns a bit-identical Result for
// every Parallelism value, across every option combination.
func TestParallelMatchesSerial(t *testing.T) {
	degrees := []int{2, 3, 4, runtime.GOMAXPROCS(0), 0}
	optionSets := []Options{
		{},
		{DropDetected: true},
		{DropDetected: true, StopWhenAllDetected: true},
		{StopWhenAllDetected: true},
	}
	for _, name := range []string{"s420", "s820", "s1238"} {
		scan, err := bench.ScanView(name)
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := fault.List(scan)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		patterns := make([]bitvec.Vector, 200)
		for i := range patterns {
			patterns[i] = bitvec.Random(len(scan.Inputs), rng)
		}
		sim, err := New(scan)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range optionSets {
			serialOpts := opts
			serialOpts.Parallelism = 1
			serial, err := sim.Run(faults, patterns, serialOpts)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range degrees {
				parOpts := opts
				parOpts.Parallelism = j
				par, err := sim.Run(faults, patterns, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				label := name
				resultsEqual(t, label, serial, par)
			}
		}
	}
}

// TestParallelMatchesSerialFreshSimulator re-runs the equivalence with a
// fresh Simulator per degree, guarding against state bleed through the
// reused machine pool.
func TestParallelMatchesSerialFreshSimulator(t *testing.T) {
	scan, err := bench.ScanView("s953")
	if err != nil {
		t.Fatal(err)
	}
	faults, _, err := fault.List(scan)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	patterns := make([]bitvec.Vector, 130)
	for i := range patterns {
		patterns[i] = bitvec.Random(len(scan.Inputs), rng)
	}
	var serial *Result
	for _, j := range []int{1, 2, 8} {
		sim, err := New(scan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(faults, patterns, Options{DropDetected: true, Parallelism: j})
		if err != nil {
			t.Fatal(err)
		}
		if serial == nil {
			serial = res
			continue
		}
		resultsEqual(t, "s953", serial, res)
	}
}

// TestParallelSmallLiveList exercises the serial-degradation threshold: with
// fewer active region roots than minRootsPerWorker the block must still
// produce the serial result.
func TestParallelSmallLiveList(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	if roots := len(NewTargets(netlist.NewView(c), faults).roots); roots >= 2*minRootsPerWorker {
		t.Fatalf("c17 has %d region roots; expected fewer than 2x the %d threshold",
			roots, minRootsPerWorker)
	}
	rng := rand.New(rand.NewSource(3))
	patterns := make([]bitvec.Vector, 96)
	for i := range patterns {
		patterns[i] = bitvec.Random(len(c.Inputs), rng)
	}
	sim, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := sim.Run(faults, patterns, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.Run(faults, patterns, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "c17", serial, par)
}

// TestMachinePoolGrowth checks that the worker pool grows lazily and only as
// far as the clamped degree.
func TestMachinePoolGrowth(t *testing.T) {
	scan, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	faults, _, err := fault.List(scan)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	patterns := make([]bitvec.Vector, 64)
	for i := range patterns {
		patterns[i] = bitvec.Random(len(scan.Inputs), rng)
	}
	sim, err := New(scan)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.machines) != 1 {
		t.Fatalf("fresh simulator has %d machines, want 1", len(sim.machines))
	}
	if _, err := sim.Run(faults, patterns, Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if len(sim.machines) != 1 {
		t.Errorf("serial run grew the pool to %d machines", len(sim.machines))
	}
	if _, err := sim.Run(faults, patterns, Options{Parallelism: 3}); err != nil {
		t.Fatal(err)
	}
	if len(sim.machines) > 3 {
		t.Errorf("pool grew to %d machines for Parallelism 3", len(sim.machines))
	}
}
