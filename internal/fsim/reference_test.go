package fsim_test

import (
	"context"
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
// fault's Detected and FirstPattern must match on a list of 1 to 600
// patterns, which crosses the 64-, 256- and 512-pattern boundaries. Every
// fault ATPG reports
// as detected must be detected by its patterns, and no fault it reports
// untestable may be detected by any of the 2^n input vectors (the
// circuits have at most 12 scan inputs).
func FuzzFaultSimMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(1), uint8(20), uint8(1), uint16(70))
	f.Add(int64(2), uint8(6), uint8(3), uint8(2), uint8(30), uint8(0), uint16(100))
	f.Add(int64(3), uint8(4), uint8(1), uint8(4), uint8(12), uint8(1), uint16(65))
	f.Add(int64(4), uint8(8), uint8(4), uint8(0), uint8(32), uint8(1), uint16(64))
	// A testable fault whose effect also reaches a line where it is masked:
	// a prover that required every differing line to propagate would call
	// it untestable.
	f.Add(int64(154), uint8(95), uint8(1), uint8(33), uint8(26), uint8(1), uint16(105))
	// 256, 257 and 513 patterns: a full 256-pattern block, one pattern
	// past it, and one past two of them.
	f.Add(int64(5), uint8(5), uint8(2), uint8(3), uint8(28), uint8(1), uint16(255))
	f.Add(int64(6), uint8(7), uint8(3), uint8(2), uint8(24), uint8(0), uint16(256))
	f.Add(int64(7), uint8(2), uint8(1), uint8(4), uint8(31), uint8(1), uint16(512))
	f.Fuzz(func(t *testing.T, seed int64, inputs, outputs, ffs, gates, hardCones uint8, npat uint16) {
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
		patterns := make([]bitvec.Vector, 1+int(npat%600))
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
		got, err := sim.Run(context.Background(), faults, patterns)
		if err != nil {
			t.Fatal(err)
		}
		for fi, flt := range faults {
			if got.Detected[fi] != (want[fi] >= 0) || got.FirstPattern[fi] != want[fi] {
				t.Fatalf("fault %s: detected=%v first=%d, reference first=%d",
					flt.String(c), got.Detected[fi], got.FirstPattern[fi], want[fi])
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
		if len(res.Untestable) == 0 {
			return
		}
		n := len(c.Inputs)
		if n > 12 {
			t.Fatalf("%d scan inputs; the exhaustive check takes at most 12", n)
		}
		all := make([]bitvec.Vector, 1<<n)
		for m := range all {
			all[m] = bitvec.New(n)
			for i := range n {
				all[m].SetBit(i, m>>i&1 == 1)
			}
		}
		for _, fi := range res.Untestable {
			if p := fsim.RefFirstDetection(c, faults[fi], all); p >= 0 {
				t.Fatalf("ATPG reports %s untestable; the reference detects it with %s",
					faults[fi].String(c), all[p])
			}
		}
	})
}
