package dmatrix

import (
	"context"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
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

func setup(t *testing.T) (*netlist.Circuit, []fault.Fault, []bitvec.Vector) {
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
	// Target list F: the ATPG-detected faults, as in the paper.
	var faults []fault.Fault
	for _, fi := range res.DetectedFaults() {
		faults = append(faults, all[fi])
	}
	return c, faults, res.Patterns
}

func TestCoversByConstruction(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	for _, cycles := range []int{1, 5, 20} {
		m, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: cycles, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if !m.CoversAll() {
			t.Errorf("cycles=%d: matrix does not cover F: uncovered %v",
				cycles, m.UncoveredFaults())
		}
		if m.NumTriplets() != len(patterns) {
			t.Errorf("cycles=%d: %d triplets, want %d", cycles, m.NumTriplets(), len(patterns))
		}
	}
}

// With T = 1 each triplet's test set is exactly its source ATPG pattern, so
// row i must equal the per-pattern detection profile of pattern i.
func TestCyclesOneMatchesPatternDetection(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	m, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// δ must be the pattern itself.
	for i := range patterns {
		if !m.Triplets[i].Delta.Equal(patterns[i]) {
			t.Errorf("triplet %d: δ != p_%d", i, i)
		}
	}
	// Union of rows covers; each row non-empty (every ATPG pattern detects
	// something after compaction).
	for i, r := range m.Rows {
		if r.Empty() {
			t.Errorf("triplet %d detects nothing at T=1; compaction should have dropped it", i)
		}
	}
}

// Longer evolution can only grow each row (the T-cycle test set contains the
// shorter one as a prefix).
func TestMonotoneInCycles(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	short, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range short.Rows {
		if !short.Rows[i].SubsetOf(long.Rows[i]) {
			t.Errorf("triplet %d: T=2 row not a subset of T=10 row (same seed)", i)
		}
	}
}

func TestFirstDetectionAndEffectiveLength(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	m, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.FirstDetection.CellBytes() != 1 {
		t.Fatalf("T=8 first detections take %d bytes a cell, want 1", m.FirstDetection.CellBytes())
	}
	for i, row := range m.Rows {
		row.ForEach(func(fi int) {
			fd := m.FirstDetection.At(i, fi)
			if fd < 0 || fd >= 8 {
				t.Errorf("triplet %d fault %d: first detection %d out of range", i, fi, fd)
			}
		})
		// Effective length for all detected faults is the max first
		// detection + 1, and never exceeds T.
		el := m.EffectiveLength(i, row.Elements())
		if el < 1 || el > 8 {
			t.Errorf("triplet %d: effective length %d", i, el)
		}
		if rl := m.RowLength(i); rl != el {
			t.Errorf("triplet %d: row length %d, effective length over its row %d", i, rl, el)
		}
		// Trimming with no responsibility keeps full length.
		if m.EffectiveLength(i, nil) != 8 {
			t.Error("empty responsibility should keep full cycles")
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	m1, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Rows {
		if !m1.Rows[i].Equal(m2.Rows[i]) {
			t.Fatalf("row %d differs across identical builds", i)
		}
		if !m1.Triplets[i].Theta.Equal(m2.Triplets[i].Theta) {
			t.Fatalf("θ %d differs across identical builds", i)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	if _, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 0}); err == nil {
		t.Error("expected error for zero cycles")
	}
	wrong, _ := tpg.NewAdder(len(c.Inputs) + 1)
	if _, err := Build(context.Background(), c, faults, patterns, wrong, Options{Cycles: 1}); err == nil {
		t.Error("expected error for width mismatch")
	}
}

func TestDensityAndStats(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	m, err := Build(context.Background(), c, faults, patterns, gen, Options{Cycles: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := m.Density()
	if d <= 0 || d > 1 {
		t.Errorf("density = %v", d)
	}
	if m.TripletSims != len(patterns) {
		t.Errorf("TripletSims = %d, want %d", m.TripletSims, len(patterns))
	}
	if m.GateEvals <= 0 || m.PatternsSimulated <= 0 {
		t.Errorf("stats not collected: %+v", m)
	}
}

func TestDifferentGeneratorsGiveDifferentRows(t *testing.T) {
	c, faults, patterns := setup(t)
	add, _ := tpg.NewAdder(len(c.Inputs))
	mul, _ := tpg.NewMultiplier(len(c.Inputs))
	ma, err := Build(context.Background(), c, faults, patterns, add, Options{Cycles: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := Build(context.Background(), c, faults, patterns, mul, Options{Cycles: 16, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range ma.Rows {
		if !ma.Rows[i].Equal(mm.Rows[i]) {
			same = false
			break
		}
	}
	if same {
		t.Error("adder and multiplier TPGs produced identical matrices; evolution semantics suspect")
	}
}

// Parallel construction must produce a bit-identical matrix.
func TestParallelBuildIdentical(t *testing.T) {
	c, faults, patterns := setup(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	serial, err := Build(context.Background(), c, faults, patterns, gen,
		Options{Cycles: 16, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(context.Background(), c, faults, patterns, gen,
		Options{Cycles: 16, Seed: 7, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if parallel.GateEvals != serial.GateEvals || parallel.TripletSims != serial.TripletSims {
		t.Errorf("effort differs: %d/%d vs %d/%d",
			parallel.GateEvals, parallel.TripletSims, serial.GateEvals, serial.TripletSims)
	}
	for i := range serial.Rows {
		if !serial.Rows[i].Equal(parallel.Rows[i]) {
			t.Fatalf("row %d differs between serial and parallel build", i)
		}
		if !serial.Triplets[i].Theta.Equal(parallel.Triplets[i].Theta) {
			t.Fatalf("θ %d differs between serial and parallel build", i)
		}
		for fi := range serial.NumFaults {
			if serial.FirstDetection.At(i, fi) != parallel.FirstDetection.At(i, fi) {
				t.Fatalf("first detection (%d,%d) differs", i, fi)
			}
		}
	}
}

// TestLanesMatchPerTripletRows checks every row and first-detection entry
// of a build against the reference row of its triplet: the triplet's test
// set expanded on its own and fault simulated alone. The evolution lengths
// cross every packing boundary: several triplets per 64-pattern block with
// and without unused high bits (T = 1, 3, 5, 21, 32), one triplet per block
// (33, 64), and one triplet over several blocks, ending on a block boundary
// or one pattern past it (65, 128, 129, 256, 257). T = 255 is the longest
// whose first detections fit a one-byte cell, and T = 256 the shortest that
// needs two.
func TestLanesMatchPerTripletRows(t *testing.T) {
	c, err := bench.ScanView("s420")
	if err != nil {
		t.Fatal(err)
	}
	all, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := atpg.Run(c, all, atpg.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var faults []fault.Fault
	for _, fi := range res.DetectedFaults() {
		faults = append(faults, all[fi])
	}
	gen, _ := tpg.NewAdder(len(c.Inputs))
	sim, err := fsim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, cycles := range []int{1, 3, 5, 21, 32, 33, 64, 65, 128, 129, 255, 256, 257} {
		for _, j := range []int{1, 2} {
			m, err := Build(context.Background(), c, faults, res.Patterns, gen,
				Options{Cycles: cycles, Seed: 9, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			if want := 1 + cycles/256; m.FirstDetection.CellBytes() != want {
				t.Fatalf("T=%d: first detections take %d bytes a cell, want %d", cycles, m.FirstDetection.CellBytes(), want)
			}
			for i, tr := range m.Triplets {
				if rl, el := m.RowLength(i), m.EffectiveLength(i, m.Rows[i].Elements()); rl != el {
					t.Fatalf("T=%d triplet %d: row length %d, effective length over its row %d", cycles, i, rl, el)
				}
				ts, err := tpg.Expand(gen, tr)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Run(context.Background(), faults, ts)
				if err != nil {
					t.Fatal(err)
				}
				for fi := range faults {
					if m.Rows[i].Contains(fi) != ref.Detected[fi] || m.FirstDetection.At(i, fi) != ref.FirstPattern[fi] {
						t.Fatalf("T=%d j%d triplet %d fault %d: row %v first %d, reference %v first %d",
							cycles, j, i, fi, m.Rows[i].Contains(fi), m.FirstDetection.At(i, fi),
							ref.Detected[fi], ref.FirstPattern[fi])
					}
				}
			}
		}
	}
}
