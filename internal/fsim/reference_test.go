package fsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
)

// FuzzFaultSimMatchesReference checks the simulator against the naive
// reference, which evaluates the good and faulty machines from scratch one
// fault and one pattern at a time, on small generated full-scan circuits
// with reconvergent fanout and random-pattern-resistant cones. Every
// fault's Detected and FirstPattern must match at Parallelism 1 and 2 on a
// pattern list that crosses a 64-pattern block, and every fault ATPG
// reports as detected must be detected by its patterns.
func FuzzFaultSimMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(1), uint8(20), uint8(1), uint8(70))
	f.Add(int64(2), uint8(6), uint8(3), uint8(2), uint8(30), uint8(0), uint8(100))
	f.Add(int64(3), uint8(4), uint8(1), uint8(4), uint8(12), uint8(1), uint8(65))
	f.Add(int64(4), uint8(8), uint8(4), uint8(0), uint8(32), uint8(1), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, inputs, outputs, ffs, gates, hardCones, npat uint8) {
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
		if c.NumLogicGates() > 64 {
			t.Skipf("%d logic gates", c.NumLogicGates())
		}
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		patterns := make([]bitvec.Vector, 65+int(npat%64))
		for i := range patterns {
			patterns[i] = bitvec.Random(len(c.Inputs), rng)
		}
		want := make([]int, len(faults))
		for fi, flt := range faults {
			want[fi] = fsim.RefFirstDetection(c, flt, patterns)
		}
		sim, err := fsim.New(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 2} {
			res, err := sim.Run(faults, patterns, fsim.Options{Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			for fi, flt := range faults {
				if res.Detected[fi] != (want[fi] >= 0) || res.FirstPattern[fi] != want[fi] {
					t.Fatalf("j%d fault %s: detected=%v first=%d, reference first=%d",
						j, flt.String(c), res.Detected[fi], res.FirstPattern[fi], want[fi])
				}
			}
		}

		res, err := atpg.Run(c, faults, atpg.Options{Seed: seed, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		for fi, d := range res.Detected {
			if d && fsim.RefFirstDetection(c, faults[fi], res.Patterns) < 0 {
				t.Fatalf("ATPG reports %s detected; the reference finds no detecting pattern",
					faults[fi].String(c))
			}
		}
	})
}
