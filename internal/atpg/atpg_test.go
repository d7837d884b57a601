package atpg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
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

func mustParse(t testing.TB, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

func TestFullCoverageC17(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(c, faults, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("c17 coverage = %v, want 1.0 (aborted: %d, untestable: %d)",
			res.Coverage(), len(res.Aborted), len(res.Untestable))
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns produced")
	}
	// The classic minimal test set for c17 has 4-5 patterns; compaction
	// should land close.
	if len(res.Patterns) > 10 {
		t.Errorf("compacted test set unusually large: %d patterns", len(res.Patterns))
	}

	// Independent check: grading the returned patterns must reproduce the
	// claimed detection record.
	sim, _ := fsim.New(c)
	fres, err := sim.Run(context.Background(), faults, res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	for i := range faults {
		if fres.Detected[i] != res.Detected[i] {
			t.Errorf("fault %s: ATPG claims %v, grading says %v",
				faults[i].String(c), res.Detected[i], fres.Detected[i])
		}
	}
}

func TestPodemDirectOnAllC17Faults(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	gen := newPodem(newView(c), 1000)
	rng := rand.New(rand.NewSource(3))
	sim, _ := fsim.New(c)
	for _, f := range faults {
		out := gen.generate(f, proof{}) // no verdict: PODEM searches
		if out.status != statusDetected {
			t.Errorf("PODEM failed on testable fault %s (status %d)", f.String(c), out.status)
			continue
		}
		pattern := fill(out.cube, rng)
		res, err := sim.Run(context.Background(), []fault.Fault{f}, []bitvec.Vector{pattern})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Detected[0] {
			t.Errorf("PODEM pattern %s does not detect %s", pattern, f.String(c))
		}
	}
}

func TestRedundantFaultProvenUntestable(t *testing.T) {
	// z = OR(a, NOT(a)): z s-a-1 is redundant.
	src := `
INPUT(a)
INPUT(b)
OUTPUT(q)
n = NOT(a)
z = OR(a, n)
q = AND(z, b)
`
	c := mustParse(t, "red", src)
	gz, _ := c.GateByName("z")
	faults := []fault.Fault{{Gate: gz.ID, Pin: fault.OutputPin, StuckAt1: true}}
	o := newOutcomes(newView(c), faults, []int{0}, Options{Parallelism: 1}.WithDefaults())
	if out := o.classify(o.gens[0], 0); out.status != statusUntestable || !out.proved {
		t.Errorf("redundant fault classified %d (proved %v), want untestable by the prover", out.status, out.proved)
	}

	res, err := Run(c, faults, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Untestable) != 1 {
		t.Errorf("Run did not classify the redundant fault: %+v", res.Stats)
	}
	if res.TestableCoverage() != 1.0 {
		t.Errorf("testable coverage = %v, want 1.0", res.TestableCoverage())
	}
}

func TestXorChainNeedsDeterministicPhase(t *testing.T) {
	// A 16-input AND tree is strongly random-resistant: the only test for
	// "output s-a-0" needs all 16 inputs at 1 (probability 2^-16).
	src := `
INPUT(i0)` + "\n"
	for i := 1; i < 16; i++ {
		src += "INPUT(i" + itoa(i) + ")\n"
	}
	src += "OUTPUT(z)\n"
	// Balanced AND tree.
	src += `
a0 = AND(i0, i1)
a1 = AND(i2, i3)
a2 = AND(i4, i5)
a3 = AND(i6, i7)
a4 = AND(i8, i9)
a5 = AND(i10, i11)
a6 = AND(i12, i13)
a7 = AND(i14, i15)
b0 = AND(a0, a1)
b1 = AND(a2, a3)
b2 = AND(a4, a5)
b3 = AND(a6, a7)
c0 = AND(b0, b1)
c1 = AND(b2, b3)
z = AND(c0, c1)
`
	c := mustParse(t, "andtree", src)
	faults, _, _ := fault.List(c)
	res, err := Run(c, faults, Options{Seed: 1, MaxRandomPatterns: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Coverage() != 1.0 {
		t.Errorf("AND tree coverage = %v, want 1.0", res.Coverage())
	}
	if res.Stats.PodemDetected == 0 {
		t.Error("expected the deterministic phase to contribute")
	}
}

func TestCompactionShrinksOrKeeps(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	raw, err := Run(c, faults, Options{Seed: 5, SkipCompaction: true})
	if err != nil {
		t.Fatal(err)
	}
	compacted, err := Run(c, faults, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(compacted.Patterns) > len(raw.Patterns) {
		t.Errorf("compaction grew the test set: %d -> %d",
			len(raw.Patterns), len(compacted.Patterns))
	}
	if compacted.Coverage() != raw.Coverage() {
		t.Errorf("compaction changed coverage: %v vs %v",
			raw.Coverage(), compacted.Coverage())
	}
}

func TestSequentialRejected(t *testing.T) {
	c := mustParse(t, "seq", `
INPUT(a)
OUTPUT(z)
z = AND(a, q)
q = DFF(z)
`)
	if _, err := Run(c, nil, Options{}); err == nil {
		t.Fatal("expected error for sequential circuit")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	r1, err := Run(c, faults, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c, faults, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Patterns) != len(r2.Patterns) {
		t.Fatalf("same seed produced different test set sizes: %d vs %d",
			len(r1.Patterns), len(r2.Patterns))
	}
	for i := range r1.Patterns {
		if !r1.Patterns[i].Equal(r2.Patterns[i]) {
			t.Fatalf("same seed produced different pattern %d", i)
		}
	}
}

// Randomized: ATPG must reach full testable coverage on random circuits and
// its claimed detections must match independent grading.
func TestRandomCircuitsFullTestableCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		c := randomCircuit(t, rng, 6, 40)
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(c, faults, Options{Seed: int64(trial), BacktrackLimit: 5000})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Aborted) > 0 {
			t.Errorf("trial %d: %d aborts on a small circuit", trial, len(res.Aborted))
		}
		if res.TestableCoverage() != 1.0 {
			t.Errorf("trial %d: testable coverage %v", trial, res.TestableCoverage())
		}
		sim, _ := fsim.New(c)
		fres, err := sim.Run(context.Background(), faults, res.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if fres.Detected[i] != res.Detected[i] {
				t.Errorf("trial %d fault %s: claim %v, grading %v",
					trial, faults[i].String(c), res.Detected[i], fres.Detected[i])
			}
		}
	}
}

func randomCircuit(t testing.TB, rng *rand.Rand, nIn, nGates int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rand")
	var signals []string
	for i := 0; i < nIn; i++ {
		name := "pi" + itoa(i)
		if _, err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not}
	for i := 0; i < nGates; i++ {
		tp := types[rng.Intn(len(types))]
		n := 2
		if tp == netlist.Not {
			n = 1
		}
		fanin := make([]string, n)
		for j := range fanin {
			fanin[j] = signals[len(signals)-1-rng.Intn(min(len(signals), 10))]
		}
		name := "g" + itoa(i)
		if _, err := c.AddGate(name, tp, fanin...); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	used := map[string]bool{}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			used[c.Gates[f].Name] = true
		}
	}
	var dangling []string
	for _, g := range c.Gates {
		if !used[g.Name] {
			dangling = append(dangling, g.Name)
		}
	}
	for len(dangling) > 2 {
		name := "t" + itoa(len(c.Gates))
		if _, err := c.AddGate(name, netlist.Or, dangling[0], dangling[1]); err != nil {
			t.Fatal(err)
		}
		dangling = append(dangling[2:], name)
	}
	for _, d := range dangling {
		if err := c.MarkOutput(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Finalize(); err != nil {
		t.Fatal(err)
	}
	return c
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// BenchmarkATPG times a full ATPG run on s1238 at each degree of
// parallelism: j1 is the PODEM kernel alone, the others add the outcome
// fan-out (and fsim's worker pool).
func BenchmarkATPG(b *testing.B) {
	c, err := bench.ScanView("s1238")
	if err != nil {
		b.Fatal(err)
	}
	faults, _, err := fault.List(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range parallelDegrees {
		b.Run("s1238/"+d.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Run(c, faults, Options{Seed: 1, Parallelism: d.j}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
