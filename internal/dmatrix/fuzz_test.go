package dmatrix

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/tpg"
)

// FuzzLanesMatchPerTripletRows checks the packing on small generated
// full-scan circuits, as FuzzFaultSimMatchesReference does for the
// simulator: every row and first-detection entry of a build at Parallelism
// 1 and 2 must equal what fsim.Run reports for that triplet's test set,
// expanded and simulated alone. T runs from 1 to 600 and the triplets from
// 1 to 300, with each of the four generator kinds, so lanes hold several
// triplets, one, or one segment of a triplet longer than a block, and a
// group's lanes are full, partly empty, or retire at different segments.
// FuzzFaultSimMatchesReference ties fsim.Run to the naive reference.
func FuzzLanesMatchPerTripletRows(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(1), uint8(20), uint8(1), uint16(7), uint8(0), uint16(40))
	f.Add(int64(2), uint8(6), uint8(3), uint8(2), uint8(30), uint8(0), uint16(0), uint8(1), uint16(299))
	f.Add(int64(3), uint8(4), uint8(1), uint8(4), uint8(12), uint8(1), uint16(64), uint8(2), uint16(9))
	f.Add(int64(4), uint8(8), uint8(4), uint8(0), uint8(32), uint8(1), uint16(128), uint8(3), uint16(6))
	f.Add(int64(5), uint8(5), uint8(2), uint8(3), uint8(28), uint8(1), uint16(255), uint8(0), uint16(4))
	f.Add(int64(6), uint8(7), uint8(3), uint8(2), uint8(24), uint8(0), uint16(599), uint8(1), uint16(5))
	f.Fuzz(func(t *testing.T, seed int64, inputs, outputs, ffs, gates, hardCones uint8, cycles uint16, kind uint8, triplets uint16) {
		p := bench.Profile{
			Name:      "fuzz",
			Inputs:    1 + int(inputs%8),
			Outputs:   1 + int(outputs%4),
			FFs:       int(ffs % 5),
			Gates:     1 + int(gates%32),
			HardCones: int(hardCones % 2),
			Seed:      seed,
		}
		seq, err := bench.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		c, err := seq.FullScan()
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := tpg.ByName(tpg.Kinds()[int(kind)%len(tpg.Kinds())], len(c.Inputs))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		patterns := make([]bitvec.Vector, 1+int(triplets%300))
		for i := range patterns {
			patterns[i] = bitvec.Random(len(c.Inputs), rng)
		}
		T := 1 + int(cycles%600)
		sim, err := fsim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		var want []*fsim.Result
		for _, j := range []int{1, 2} {
			m, err := Build(context.Background(), c, faults, patterns, gen,
				Options{Cycles: T, Seed: seed, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			for i, tr := range m.Triplets {
				if len(want) <= i {
					ts, err := tpg.Expand(gen, tr)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := sim.Run(context.Background(), faults, ts)
					if err != nil {
						t.Fatal(err)
					}
					want = append(want, ref)
				}
				ref := want[i]
				for fi := range faults {
					if m.Rows[i].Contains(fi) != ref.Detected[fi] || m.FirstDetection.At(i, fi) != ref.FirstPattern[fi] {
						t.Fatalf("T=%d j%d triplet %d of %d fault %s: row %v first %d, alone %v first %d",
							T, j, i, len(patterns), faults[fi].String(c), m.Rows[i].Contains(fi),
							m.FirstDetection.At(i, fi), ref.Detected[fi], ref.FirstPattern[fi])
					}
				}
			}
		}
	})
}
