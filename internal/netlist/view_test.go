package netlist

import (
	"math/rand"
	"testing"
)

// allTypes is one gate of every evaluated type, with a line feeding two
// pins of one gate (d) and a primary output that also fans out (x).
const allTypes = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(x)
OUTPUT(y)
OUTPUT(z)
x   = AND(a, b, c)
n1  = NAND(a, b)
o1  = OR(b, c)
r1  = NOR(n1, o1)
e1  = XOR(a, c, x)
e2  = XNOR(r1, e1)
i1  = NOT(e2)
f1  = BUFF(i1)
d   = AND(c, b)
y   = XOR(d, d)
z   = OR(f1, x, y)
`

// TestViewEvalMatchesEval checks the view's evaluation of every line, in
// each of its four words, against the gate semantics of Eval on random
// words.
func TestViewEvalMatchesEval(t *testing.T) {
	c, err := ParseString("types", allTypes)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(c)
	rng := rand.New(rand.NewSource(1))
	val := make([][4]uint64, len(v.Nodes))
	for trial := 0; trial < 20; trial++ {
		for l := range val {
			for w := range val[l] {
				val[l][w] = rng.Uint64()
			}
		}
		for l := range v.Nodes {
			if v.Nodes[l].Type == Input {
				continue
			}
			got := v.Eval(int32(l), val)
			for w := range got {
				var in []uint64
				for _, f := range v.FaninOf(int32(l)) {
					in = append(in, val[f][w])
				}
				if want := Eval(v.Nodes[l].Type, in); got[w] != want {
					t.Fatalf("line %d (%s) word %d: Eval %x, want %x", l, v.Nodes[l].Type, w, got[w], want)
				}
			}
		}
	}
	for _, tc := range []struct {
		src  string
		want uint64
	}{{"z = CONST0()", 0}, {"z = CONST1()", ^uint64(0)}} {
		c, err := ParseString("const", "OUTPUT(z)\n"+tc.src+"\n")
		if err != nil {
			t.Fatal(err)
		}
		v := NewView(c)
		if got := v.Eval(v.Line[c.Outputs[0]], make([][4]uint64, 1)); got != [4]uint64{tc.want, tc.want, tc.want, tc.want} {
			t.Errorf("%s: Eval %x, want %x in every word", tc.src, got, tc.want)
		}
	}
}

// TestViewSensitivity checks that flipping a fanin pin flips its gate in
// exactly the patterns Sensitivity reports, in each of the four words.
func TestViewSensitivity(t *testing.T) {
	c, err := ParseString("types", allTypes)
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(c)
	rng := rand.New(rand.NewSource(2))
	val := make([][4]uint64, len(v.Nodes))
	for trial := 0; trial < 20; trial++ {
		for l := range val {
			for w := range val[l] {
				val[l][w] = rng.Uint64()
			}
		}
		for l := range v.Nodes {
			nd := &v.Nodes[l]
			for pin := 0; pin < int(nd.InEnd-nd.In); pin++ {
				// Flip the pin alone, through a private copy of its line.
				saved := v.Fanin[int(nd.In)+pin]
				inv := val[saved]
				for w := range inv {
					inv[w] = ^inv[w]
				}
				flipped := append(append([][4]uint64(nil), val...), inv)
				v.Fanin[int(nd.In)+pin] = int32(len(val))
				a, b := v.Eval(int32(l), flipped), v.Eval(int32(l), append(val, val[saved]))
				v.Fanin[int(nd.In)+pin] = saved
				want := v.Sensitivity(int32(l), pin, val)
				for w := range want {
					if got := a[w] ^ b[w]; got != want[w] {
						t.Fatalf("line %d (%s) pin %d word %d: flip changes %x, Sensitivity %x", l, nd.Type, pin, w, got, want[w])
					}
				}
			}
		}
	}
}

// TestViewOrderAndRoots checks the level order and the fanout-free regions
// of c17: G3, G11 and G16 fan out twice and G22 and G23 are outputs, so
// those are the roots, and every other line belongs to the region of its
// single fanout.
func TestViewOrderAndRoots(t *testing.T) {
	c := parseC17(t)
	v := NewView(c)
	for l := range v.Nodes {
		for _, fo := range v.FanoutOf(int32(l)) {
			if fo <= int32(l) {
				t.Errorf("line %d fans out to earlier line %d", l, fo)
			}
		}
	}
	want := map[string]string{
		"G1": "G22", "G2": "G16", "G3": "G3", "G6": "G11", "G7": "G23",
		"G10": "G22", "G11": "G11", "G16": "G16", "G19": "G23", "G22": "G22", "G23": "G23",
	}
	for name, root := range want {
		g, _ := c.GateByName(name)
		r, _ := c.GateByName(root)
		if got := v.Root[v.Line[g.ID]]; got != v.Line[r.ID] {
			t.Errorf("%s: root line %d, want %d (%s)", name, got, v.Line[r.ID], root)
		}
	}
}
