package logicsim

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
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

func mustParse(t *testing.T, name, src string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return c
}

// refC17 computes c17's outputs directly from its equations.
func refC17(in [5]bool) (g22, g23 bool) {
	nand := func(a, b bool) bool { return !(a && b) }
	g1, g2, g3, g6, g7 := in[0], in[1], in[2], in[3], in[4]
	n10 := nand(g1, g3)
	n11 := nand(g3, g6)
	n16 := nand(g2, n11)
	n19 := nand(n11, g7)
	return nand(n10, n16), nand(n16, n19)
}

func TestC17Exhaustive(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	sim, err := NewSequential(c)
	if err != nil {
		t.Fatal(err)
	}
	// All 32 input combinations fit in one block.
	patterns := make([]bitvec.Vector, 32)
	for v := 0; v < 32; v++ {
		patterns[v] = bitvec.FromUint64(5, uint64(v))
	}
	words, err := PackPatterns(c, patterns)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Step(words)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 32; v++ {
		var in [5]bool
		for i := 0; i < 5; i++ {
			in[i] = (v>>uint(i))&1 == 1
		}
		w22, w23 := refC17(in)
		if got := out[0]>>uint(v)&1 == 1; got != w22 {
			t.Errorf("pattern %05b: G22 = %v, want %v", v, got, w22)
		}
		if got := out[1]>>uint(v)&1 == 1; got != w23 {
			t.Errorf("pattern %05b: G23 = %v, want %v", v, got, w23)
		}
	}
}

func TestAllGateTypes(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
OUTPUT(o_and)
OUTPUT(o_or)
OUTPUT(o_xor)
OUTPUT(o_not)
OUTPUT(o_buf)
OUTPUT(o_xnor)
OUTPUT(o_nor)
o_and  = AND(a, b)
o_or   = OR(a, b)
o_xor  = XOR(a, b)
o_not  = NOT(a)
o_buf  = BUFF(b)
o_xnor = XNOR(a, b)
o_nor  = NOR(a, b)
`
	c := mustParse(t, "types", src)
	sim, err := NewSequential(c)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		a, b := v&1 == 1, v&2 == 2
		out, err := sim.StepOne(bitvec.FromUint64(2, uint64(v)))
		if err != nil {
			t.Fatal(err)
		}
		want := []bool{a && b, a || b, a != b, !a, b, a == b, !(a || b)}
		for i, w := range want {
			if out.Bit(i) != w {
				t.Errorf("v=%02b output %d = %v, want %v", v, i, out.Bit(i), w)
			}
		}
	}
}

func TestInputCountMismatch(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	sim, _ := NewSequential(c)
	if _, err := sim.Step(make([]uint64, 3)); err == nil {
		t.Fatal("expected error for wrong input word count")
	}
}

func TestPackPatternsErrors(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	if _, err := PackPatterns(c, make([]bitvec.Vector, 65)); err == nil {
		t.Fatal("expected error for 65-pattern block")
	}
	if _, err := PackPatterns(c, []bitvec.Vector{bitvec.New(3)}); err == nil {
		t.Fatal("expected error for wrong pattern width")
	}
}

func TestPackPatternsLayout(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	p0 := bitvec.FromUint64(5, 0b00001) // only input 0 set
	p1 := bitvec.FromUint64(5, 0b10000) // only input 4 set
	words, err := PackPatterns(c, []bitvec.Vector{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if words[0] != 0b01 {
		t.Errorf("input 0 word = %b, want 01", words[0])
	}
	if words[4] != 0b10 {
		t.Errorf("input 4 word = %b, want 10", words[4])
	}
}

// Blockwise simulation must agree with pattern-at-a-time simulation.
func TestBlockMatchesSingle(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
OUTPUT(z)
t1 = XOR(a, b)
t2 = NAND(c, d)
t3 = OR(t1, c)
t4 = AND(t2, b)
y  = XNOR(t3, t4)
z  = NOR(t1, t4)
`
	c := mustParse(t, "mix", src)
	sim, err := NewSequential(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	patterns := make([]bitvec.Vector, 64)
	for i := range patterns {
		patterns[i] = bitvec.Random(4, rng)
	}
	words, _ := PackPatterns(c, patterns)
	blockOut, err := sim.Step(words)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]uint64, len(blockOut))
	copy(block, blockOut) // Step reuses its buffer; StepOne below overwrites it

	sim2, _ := NewSequential(c)
	for k, p := range patterns {
		single, err := sim2.StepOne(p)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 2; o++ {
			if got := block[o]>>uint(k)&1 == 1; got != single.Bit(o) {
				t.Errorf("pattern %d output %d: block %v vs single %v", k, o, got, single.Bit(o))
			}
		}
	}
}
