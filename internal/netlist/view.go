package netlist

import (
	"cmp"
	"slices"
)

// View is the flat, read-only form of a finalized combinational circuit
// that the fault simulator and the test generator work on: gate types
// with CSR fanin and combinational fanout lists, and each line's
// fanout-free region.
//
// Lines are numbered in level order, gate ID breaking ties, so every
// line's fanout has larger indices than the line itself: one ascending
// sweep evaluates the circuit, and events propagate in one forward sweep
// over a bitmap of pending lines. A View is immutable once built and may
// be shared by any number of goroutines.
type View struct {
	Circuit *Circuit
	Line    []int32 // gate ID → line
	Nodes   []Node  // by line
	Fanin   []int32 // in pin order
	Fanout  []int32 // combinational fanout only, ascending
	Inputs  []int32 // primary inputs, in circuit input order
	Outputs []int32 // primary outputs, in circuit output order
	IsOut   []bool

	// Root is the root of each line's fanout-free region: the line itself
	// if it is a primary output or does not have exactly one fanout (a
	// line feeding two pins of one gate has two), else its fanout's root.
	// A value change on a line that is not a root can reach the rest of
	// the circuit only through its root, along a single path.
	Root []int32
}

// Node is one line of a View: its gate type and the ranges of its fanin
// and fanout in the view's shared lists.
type Node struct {
	In, InEnd   int32
	Out, OutEnd int32
	Type        GateType
}

// gateOps gives each gate type's function in one of two shapes, so Eval
// branches once per gate rather than on its type: the XOR of the fanin
// words (opXor), or the AND of the fanin words, each inverted for opNeg
// (De Morgan turns the OR family into ANDs of inverted inputs); then the
// result inverted for opInv. An input's word is assigned, not computed.
var gateOps = [...]uint8{
	Input:  opInv,
	And:    0,
	Nand:   opInv,
	Or:     opNeg | opInv,
	Nor:    opNeg,
	Xor:    opXor,
	Xnor:   opXor | opInv,
	Not:    opInv,
	Buf:    0,
	DFF:    0,
	Const0: opInv,
	Const1: 0,
}

const (
	opXor = 1 << iota
	opNeg
	opInv
)

// NewView flattens the finalized circuit c.
func NewView(c *Circuit) *View {
	c.mustFinal("NewView")
	n := c.NumGates()
	gates := make([]int32, n) // line index → gate ID
	for id := range gates {
		gates[id] = int32(id)
	}
	slices.SortStableFunc(gates, func(a, b int32) int { return cmp.Compare(c.Gates[a].Level, c.Gates[b].Level) })
	v := &View{
		Circuit: c,
		Line:    make([]int32, n),
		Nodes:   make([]Node, n),
		IsOut:   make([]bool, n),
		Root:    make([]int32, n),
	}
	for l, id := range gates {
		v.Line[id] = int32(l)
	}
	for l, id := range gates {
		g, nd := c.Gates[id], &v.Nodes[l]
		nd.Type = g.Type
		nd.In = int32(len(v.Fanin))
		for _, f := range g.Fanin {
			v.Fanin = append(v.Fanin, v.Line[f])
		}
		nd.InEnd, nd.Out = int32(len(v.Fanin)), int32(len(v.Fanout))
		for _, fo := range g.Fanout {
			if c.Gates[fo].Type != DFF {
				v.Fanout = append(v.Fanout, v.Line[fo])
			}
		}
		nd.OutEnd = int32(len(v.Fanout))
		slices.Sort(v.Fanout[nd.Out:nd.OutEnd])
	}
	for _, id := range c.Inputs {
		v.Inputs = append(v.Inputs, v.Line[id])
	}
	for _, id := range c.Outputs {
		v.Outputs = append(v.Outputs, v.Line[id])
		v.IsOut[v.Line[id]] = true
	}
	for l := int32(n) - 1; l >= 0; l-- {
		nd := &v.Nodes[l]
		v.Root[l] = l
		if !v.IsOut[l] && nd.OutEnd-nd.Out == 1 {
			v.Root[l] = v.Root[v.Fanout[nd.Out]]
		}
	}
	return v
}

// FaninOf returns the fanin lines of line l, in pin order.
func (v *View) FaninOf(l int32) []int32 {
	nd := &v.Nodes[l]
	return v.Fanin[nd.In:nd.InEnd]
}

// FanoutOf returns the combinational fanout lines of line l, ascending.
func (v *View) FanoutOf(l int32) []int32 {
	nd := &v.Nodes[l]
	return v.Fanout[nd.Out:nd.OutEnd]
}

// Eval computes line l's gate function bitwise over the four words val
// holds for each of its fanin lines: one call evaluates 256 patterns, 64
// per word. An input line's value is assigned, not computed: Eval returns
// zero words for it.
func (v *View) Eval(l int32, val [][4]uint64) [4]uint64 {
	nd := &v.Nodes[l]
	in := v.Fanin[nd.In:nd.InEnd]
	op := gateOps[nd.Type]
	inv := -uint64(op >> 2 & 1)
	if op&opXor != 0 {
		x0, x1, x2, x3 := inv, inv, inv, inv
		for _, f := range in {
			w := &val[f]
			x0 ^= w[0]
			x1 ^= w[1]
			x2 ^= w[2]
			x3 ^= w[3]
		}
		return [4]uint64{x0, x1, x2, x3}
	}
	neg := -uint64(op >> 1 & 1)
	x0, x1, x2, x3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	for _, f := range in {
		w := &val[f]
		x0 &= w[0] ^ neg
		x1 &= w[1] ^ neg
		x2 &= w[2] ^ neg
		x3 &= w[3] ^ neg
	}
	return [4]uint64{x0 ^ inv, x1 ^ inv, x2 ^ inv, x3 ^ inv}
}

// Sensitivity returns the patterns, over the four words val holds per
// line, in which flipping the value on fanin pin pin of line l flips l:
// every other input of an AND-family gate holds its non-controlling value,
// and any flip passes an XOR-family gate, an inverter or a buffer.
func (v *View) Sensitivity(l int32, pin int, val [][4]uint64) [4]uint64 {
	nd := &v.Nodes[l]
	op := gateOps[nd.Type]
	s0, s1, s2, s3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
	if op&opXor != 0 {
		return [4]uint64{s0, s1, s2, s3}
	}
	neg := -uint64(op >> 1 & 1)
	for q, f := range v.Fanin[nd.In:nd.InEnd] {
		if q != pin {
			w := &val[f]
			s0 &= w[0] ^ neg
			s1 &= w[1] ^ neg
			s2 &= w[2] ^ neg
			s3 &= w[3] ^ neg
		}
	}
	return [4]uint64{s0, s1, s2, s3}
}
