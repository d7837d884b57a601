package fsim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
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

// refFaultyEval is a naive single-pattern faulty-machine reference: evaluate
// every gate in topological order with the fault injected.
func refFaultyEval(c *netlist.Circuit, f fault.Fault, p bitvec.Vector) (outs []bool) {
	vals := make(map[int]bool)
	force := func(id int, v bool) bool {
		if f.Pin == fault.OutputPin && f.Gate == id {
			return f.StuckAt1
		}
		return v
	}
	for i, id := range c.Inputs {
		vals[id] = force(id, p.Bit(i))
	}
	for _, id := range c.TopoOrder() {
		g := c.Gates[id]
		if g.Type == netlist.Input {
			continue
		}
		in := make([]uint64, len(g.Fanin))
		for pin, fi := range g.Fanin {
			v := vals[fi]
			if f.Gate == id && f.Pin == pin {
				v = f.StuckAt1
			}
			if v {
				in[pin] = 1
			}
		}
		v := netlist.Eval(g.Type, in)&1 == 1
		vals[id] = force(id, v)
	}
	for _, id := range c.Outputs {
		outs = append(outs, vals[id])
	}
	return outs
}

func refGoodEval(c *netlist.Circuit, p bitvec.Vector) []bool {
	// A fault on a non-existent gate pin never matches, so this reuses the
	// faulty reference with an inert fault.
	return refFaultyEval(c, fault.Fault{Gate: -1, Pin: fault.OutputPin}, p)
}

// refFirstDetection returns the index of the first pattern whose primary
// outputs differ between the good machine and the machine with fault f,
// or -1 if none does, by evaluating both from scratch per pattern.
func refFirstDetection(c *netlist.Circuit, f fault.Fault, patterns []bitvec.Vector) int {
	for pi, p := range patterns {
		good := refGoodEval(c, p)
		bad := refFaultyEval(c, f, p)
		for o := range good {
			if good[o] != bad[o] {
				return pi
			}
		}
	}
	return -1
}

// TestAgainstBruteForce cross-checks the event-driven simulator against the
// naive reference on every collapsed fault of c17 over random patterns.
func TestAgainstBruteForce(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	patterns := make([]bitvec.Vector, 100) // crosses a block boundary
	for i := range patterns {
		patterns[i] = bitvec.Random(5, rng)
	}

	sim, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(faults, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}

	for fi, f := range faults {
		wantFirst := refFirstDetection(c, f, patterns)
		if wantDetected := wantFirst >= 0; res.Detected[fi] != wantDetected {
			t.Errorf("fault %s: detected=%v, want %v", f.String(c), res.Detected[fi], wantDetected)
		}
		if res.FirstPattern[fi] != wantFirst {
			t.Errorf("fault %s: first pattern %d, want %d", f.String(c), res.FirstPattern[fi], wantFirst)
		}
	}
}

// Randomized property check on generated circuits: the simulator's
// detection and first detecting pattern must match brute force for every
// fault.
func TestRandomCircuitsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		c := randomCircuit(t, rng, 4+rng.Intn(4), 15+rng.Intn(25))
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		patterns := make([]bitvec.Vector, 20)
		for i := range patterns {
			patterns[i] = bitvec.Random(len(c.Inputs), rng)
		}
		sim, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(faults, patterns, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for fi, f := range faults {
			first := refFirstDetection(c, f, patterns)
			if want := first >= 0; res.Detected[fi] != want {
				t.Fatalf("trial %d fault %s: detected=%v, want %v\n%s",
					trial, f.String(c), res.Detected[fi], want, netlist.Format(c))
			}
			if res.FirstPattern[fi] != first {
				t.Fatalf("trial %d fault %s: first pattern %d, want %d\n%s",
					trial, f.String(c), res.FirstPattern[fi], first, netlist.Format(c))
			}
		}
	}
}

// randomCircuit builds a small random combinational circuit where every
// dangling gate is collected into an output OR tree.
func randomCircuit(t testing.TB, rng *rand.Rand, nIn, nGates int) *netlist.Circuit {
	t.Helper()
	c := netlist.New("rand")
	var signals []string
	for i := 0; i < nIn; i++ {
		name := "i" + string(rune('a'+i))
		if _, err := c.AddInput(name); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	types := []netlist.GateType{netlist.And, netlist.Or, netlist.Nand,
		netlist.Nor, netlist.Xor, netlist.Xnor, netlist.Not, netlist.Buf}
	for i := 0; i < nGates; i++ {
		tp := types[rng.Intn(len(types))]
		n := 2
		if tp == netlist.Not || tp == netlist.Buf {
			n = 1
		}
		fanin := make([]string, n)
		for j := range fanin {
			fanin[j] = signals[rng.Intn(len(signals))]
		}
		name := "g" + itoa(i)
		if _, err := c.AddGate(name, tp, fanin...); err != nil {
			t.Fatal(err)
		}
		signals = append(signals, name)
	}
	// Collect dangling signals so everything is observable.
	dangling := []string{}
	for _, g := range c.Gates {
		if len(g.Fanout) == 0 {
			dangling = append(dangling, g.Name)
		}
	}
	// The Fanout fields are only valid after Finalize; recompute manually.
	used := map[string]bool{}
	for _, g := range c.Gates {
		for _, f := range g.Fanin {
			used[c.Gates[f].Name] = true
		}
	}
	dangling = dangling[:0]
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

func TestDropDetectedStopsEarly(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	sim, _ := New(c)
	// Sixteen repetitions of the exhaustive set span two 256-pattern
	// blocks.
	patterns := make([]bitvec.Vector, 512)
	for v := range patterns {
		patterns[v] = bitvec.FromUint64(5, uint64(v%32))
	}
	res, err := sim.Run(faults, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// c17 is fully testable: every collapsed fault must be detected by the
	// exhaustive set.
	if res.NumDetected != len(faults) {
		t.Errorf("exhaustive patterns detected %d of %d faults", res.NumDetected, len(faults))
	}
}

func TestStopWhenAllDetected(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	sim, _ := New(c)
	patterns := make([]bitvec.Vector, 640)
	for v := range patterns {
		patterns[v] = bitvec.FromUint64(5, uint64(v%32))
	}
	res, err := sim.Run(faults, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PatternsApplied == len(patterns) {
		t.Error("expected early stop before all 640 patterns")
	}
	if res.NumDetected != len(faults) {
		t.Errorf("detected %d of %d", res.NumDetected, len(faults))
	}
}

func TestUndetectableRedundantFault(t *testing.T) {
	// z = OR(a, NOT(a)) is constant 1: z s-a-1 is undetectable.
	src := `
INPUT(a)
OUTPUT(z)
n = NOT(a)
z = OR(a, n)
`
	c := mustParse(t, "red", src)
	gz, _ := c.GateByName("z")
	faults := []fault.Fault{
		{Gate: gz.ID, Pin: fault.OutputPin, StuckAt1: true},  // undetectable
		{Gate: gz.ID, Pin: fault.OutputPin, StuckAt1: false}, // always detected
	}
	sim, _ := New(c)
	patterns := []bitvec.Vector{bitvec.FromUint64(1, 0), bitvec.FromUint64(1, 1)}
	res, err := sim.Run(faults, patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected[0] {
		t.Error("redundant s-a-1 on constant-1 line reported detected")
	}
	if !res.Detected[1] || res.FirstPattern[1] != 0 {
		t.Errorf("s-a-0 on constant-1 line: %+v", res)
	}
	if got := res.Coverage(); got != 0.5 {
		t.Errorf("coverage = %v, want 0.5", got)
	}
}

func TestEmptyPatternList(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, _ := fault.List(c)
	sim, _ := New(c)
	res, err := sim.Run(faults, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected != 0 || res.PatternsApplied != 0 {
		t.Errorf("empty run: %+v", res)
	}
}

// TestSequentialRejected checks that New refuses a circuit with
// flip-flops: fault simulation runs on the full-scan view.
func TestSequentialRejected(t *testing.T) {
	c := mustParse(t, "seq", `
INPUT(a)
OUTPUT(z)
z = AND(a, q)
q = DFF(z)
`)
	if _, err := New(c); err == nil {
		t.Fatal("expected error for sequential circuit")
	}
}

// TestDetectRejectsBadBlocks checks that a lane of more than 64 patterns,
// more than four lanes, and a pattern whose width is not the circuit's
// input count are refused.
func TestDetectRejectsBadBlocks(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	tg := NewTargets(sim.v, faults)
	live := make([]uint8, len(faults))
	masks := make([][4]uint64, len(faults))
	wide := make([]bitvec.Vector, 65)
	for i := range wide {
		wide[i] = bitvec.New(5)
	}
	if _, err := sim.Detect(tg, [][]bitvec.Vector{nil, wide}, live, masks); err == nil {
		t.Error("expected error for a 65-pattern lane")
	}
	if _, err := sim.Detect(tg, make([][]bitvec.Vector, Lanes+1), live, masks); err == nil {
		t.Errorf("expected error for %d lanes", Lanes+1)
	}
	if _, err := sim.Detect(tg, [][]bitvec.Vector{{bitvec.New(3)}}, live, masks); err == nil {
		t.Error("expected error for a 3-bit pattern on 5 inputs")
	}
	if _, err := sim.Run(faults, []bitvec.Vector{bitvec.New(3)}, Options{}); err == nil {
		t.Error("Run accepted a 3-bit pattern on 5 inputs")
	}
}

// resultsEqual compares every field of two Results bit for bit.
func resultsEqual(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if got.NumDetected != want.NumDetected {
		t.Errorf("%s: NumDetected %d, want %d", label, got.NumDetected, want.NumDetected)
	}
	if got.PatternsApplied != want.PatternsApplied {
		t.Errorf("%s: PatternsApplied %d, want %d", label, got.PatternsApplied, want.PatternsApplied)
	}
	if got.GateEvals != want.GateEvals {
		t.Errorf("%s: GateEvals %d, want %d", label, got.GateEvals, want.GateEvals)
	}
	for i := range want.Detected {
		if got.Detected[i] != want.Detected[i] {
			t.Fatalf("%s: Detected[%d] = %v, want %v", label, i, got.Detected[i], want.Detected[i])
		}
		if got.FirstPattern[i] != want.FirstPattern[i] {
			t.Fatalf("%s: FirstPattern[%d] = %d, want %d", label, i, got.FirstPattern[i], want.FirstPattern[i])
		}
	}
}

// TestReusedSimulatorMatchesFresh runs one Simulator per circuit on the
// whole fault list and then on a shorter one, over 600 patterns (two full
// passes and a partial one). Every Result must equal a fresh Simulator's
// bit for bit, so nothing a run leaves behind — good values, the faulty
// machine, live masks — reaches the next.
func TestReusedSimulatorMatchesFresh(t *testing.T) {
	for _, name := range []string{"s420", "s820", "s953", "s1238"} {
		scan, err := bench.ScanView(name)
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := fault.List(scan)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		patterns := make([]bitvec.Vector, 600)
		for i := range patterns {
			patterns[i] = bitvec.Random(len(scan.Inputs), rng)
		}
		reused, err := New(scan)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range [][]fault.Fault{faults, faults[:len(faults)/3]} {
			fresh, err := New(scan)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Run(sub, patterns, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := reused.Run(sub, patterns, Options{})
			if err != nil {
				t.Fatal(err)
			}
			resultsEqual(t, fmt.Sprintf("%s, %d faults", name, len(sub)), want, got)
		}
	}
}

// BenchmarkFaultSim grades 256 random patterns against every collapsed
// fault of s1238 with fault dropping.
func BenchmarkFaultSim(b *testing.B) {
	c, err := bench.ScanView("s1238")
	if err != nil {
		b.Fatal(err)
	}
	faults, _, err := fault.List(c)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := New(c)
	if err != nil {
		b.Fatal(err)
	}
	patterns := make([]bitvec.Vector, 256)
	rng := rand.New(rand.NewSource(1))
	for i := range patterns {
		patterns[i] = bitvec.Random(len(c.Inputs), rng)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := sim.Run(faults, patterns, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
