package atpg

import (
	"math/bits"

	"repro/internal/netlist"
)

// proverBudget bounds the conflicts the prover spends on one fault. A
// fault it neither proves untestable nor finds a test for within the
// budget goes to PODEM as if the prover had not run. On the bundled
// circuits up to s13207 (seed 1) no fault's miter takes more than 85
// conflicts, so the budget only stops miters far harder than those.
const proverBudget = 1000

// prover settles redundant faults before PODEM searches them, by SAT-based
// test generation (Larrabee, IEEE TCAD 1992): it encodes a fault's miter
// in CNF and solves it. UNSAT proves the fault untestable.
//
// The miter has a good copy of every line in the input support of the
// observable outputs of the fault site's fanout cone, a faulty copy of the
// cone lines that reach one of those outputs (a line outside the cone has
// the same value in both machines and shares its good variable), the
// activation literal, and an active variable per cone line with Larrabee's
// active-path clauses: an active line carries the fault effect (its good
// and faulty values differ), an active line that is not a primary output
// has an active fanout, and the fault site is active. Each clause is one
// way: a line may differ in the two machines and still be inactive, since
// its effect may be masked further on. A satisfying assignment therefore
// holds a chain of active lines from the site to an output where the two
// machines differ, a test; and every test has one, the path its effect
// takes, so UNSAT means no test exists.
//
// A prover belongs to one worker. Its solver and its line maps are reset
// for every fault, so the verdict depends only on the view and the fault.
type prover struct {
	v *view
	s sat

	// By line, valid for the lines of the current miter: the good,
	// faulty and active literals.
	good, faulty, active []lit

	stamp   []int32 // by line: epoch when in the observable cone
	epoch   int32
	pending []uint64 // bitmap of lines to visit
	visit   []int32  // fanout cone lines, ascending
	cone    []int32  // observable cone lines, descending
	support []int32  // good-copy lines, descending
	ins     []lit    // clause or gate input literals, scratch
	tru     lit      // a literal fixed true
}

func newProver(v *view) *prover {
	n := len(v.Nodes)
	return &prover{
		v:       v,
		good:    make([]lit, n),
		faulty:  make([]lit, n),
		active:  make([]lit, n),
		stamp:   make([]int32, n),
		pending: make([]uint64, (n+63)/64),
		ins:     make([]lit, 0, len(v.pins)+1), // room for and's output literal
	}
}

// prove decides whether a test exists for the stuck-at fault at line site
// (fault.OutputPin or a fanin pin) with the given stuck value, spending at
// most budget conflicts. The returned conflicts are those of this solve.
func (pr *prover) prove(site int32, pin int, stuck byte, budget int) (verdict, int) {
	pr.epoch++
	pr.s.reset()
	if !pr.markCone(site) {
		return unsatisfiable, 0 // no output to observe the fault at
	}
	pr.markSupport()
	pr.encode(site, pin, stuck)
	vd := pr.s.solve(budget)
	return vd, pr.s.conflicts
}

// markCone collects into pr.cone, descending, the lines of site's fanout
// cone with a path to a primary output, and stamps them with the epoch.
// It reports whether site itself has such a path.
func (pr *prover) markCone(site int32) bool {
	v := pr.v
	// The fanout cone, ascending: every fanout has a larger index.
	pr.visit = pr.visit[:0]
	pr.pending[site>>6] |= 1 << (site & 63)
	last := site
	for w := site >> 6; w <= last>>6; w++ {
		for pr.pending[w] != 0 {
			l := w<<6 | int32(bits.TrailingZeros64(pr.pending[w]))
			pr.pending[w] &= pr.pending[w] - 1
			pr.visit = append(pr.visit, l)
			out := v.FanoutOf(l)
			for _, fo := range out {
				pr.pending[fo>>6] |= 1 << (fo & 63)
			}
			if len(out) > 0 {
				last = max(last, out[len(out)-1])
			}
		}
	}
	pr.cone = pr.cone[:0]
	for i := len(pr.visit) - 1; i >= 0; i-- {
		l := pr.visit[i]
		obs := v.IsOut[l]
		for _, fo := range v.FanoutOf(l) {
			obs = obs || pr.stamp[fo] == pr.epoch
		}
		if obs {
			pr.stamp[l] = pr.epoch
			pr.cone = append(pr.cone, l)
		}
	}
	return pr.stamp[site] == pr.epoch
}

// markSupport collects into pr.support, descending, the transitive fanin
// of the outputs in pr.cone: the lines of the good copy.
func (pr *prover) markSupport() {
	v := pr.v
	pr.support = pr.support[:0]
	top := int32(-1)
	for _, l := range pr.cone {
		if v.IsOut[l] {
			pr.pending[l>>6] |= 1 << (l & 63)
			top = max(top, l)
		}
	}
	for w := top >> 6; w >= 0; w-- {
		for pr.pending[w] != 0 {
			l := w<<6 | int32(63-bits.LeadingZeros64(pr.pending[w]))
			pr.pending[w] &^= 1 << (l & 63)
			pr.support = append(pr.support, l)
			for _, f := range v.FaninOf(l) {
				pr.pending[f>>6] |= 1 << (f & 63)
			}
		}
	}
}

// encode adds the miter of the fault over the marked lines to the solver.
// Lines are encoded in ascending order, so every fanin has its literal
// first.
func (pr *prover) encode(site int32, pin int, stuck byte) {
	v := pr.v
	pr.tru = pr.s.newVar()
	pr.s.addClause(pr.tru)
	for i := len(pr.support) - 1; i >= 0; i-- {
		l := pr.support[i]
		pr.ins = pr.ins[:0]
		for _, f := range v.FaninOf(l) {
			pr.ins = append(pr.ins, pr.good[f])
		}
		pr.good[l] = pr.gate(v.Nodes[l].Type, pr.ins)
	}

	// The faulty copy. The site's faulty value is the stuck constant on
	// its output, or its gate over the good fanin values with the stuck
	// constant on the faulted pin.
	stuckLit := pr.tru.flip(stuck == v0)
	for i := len(pr.cone) - 1; i >= 0; i-- {
		l := pr.cone[i]
		pr.ins = pr.ins[:0]
		for _, f := range v.FaninOf(l) {
			if pr.stamp[f] == pr.epoch {
				pr.ins = append(pr.ins, pr.faulty[f])
			} else {
				pr.ins = append(pr.ins, pr.good[f])
			}
		}
		switch {
		case l != site:
			pr.faulty[l] = pr.gate(v.Nodes[l].Type, pr.ins)
		case pin < 0:
			pr.faulty[l] = stuckLit
		default:
			pr.ins[pin] = stuckLit
			pr.faulty[l] = pr.gate(v.Nodes[l].Type, pr.ins)
		}
	}

	// Activation: the faulted line carries the opposite of the stuck value
	// in the good machine.
	act := site
	if pin >= 0 {
		act = v.FaninOf(site)[pin]
	}
	pr.s.addClause(pr.good[act].flip(stuck == v1))

	// Active-path clauses, one way only (see the type's doc).
	for i := len(pr.cone) - 1; i >= 0; i-- {
		l := pr.cone[i]
		a := pr.s.newVar()
		g, f := pr.good[l], pr.faulty[l]
		pr.s.addClause(a.not(), g, f)
		pr.s.addClause(a.not(), g.not(), f.not())
		pr.active[l] = a
	}
	for _, l := range pr.cone {
		if v.IsOut[l] {
			continue
		}
		pr.ins = append(pr.ins[:0], pr.active[l].not())
		for _, fo := range v.FanoutOf(l) {
			if pr.stamp[fo] == pr.epoch {
				pr.ins = append(pr.ins, pr.active[fo])
			}
		}
		pr.s.addClause(pr.ins...)
	}
	pr.s.addClause(pr.active[site])
}

// gate encodes the function of gate type t over the input literals ins
// and returns its output literal. Buffers and inverters make no variable,
// and the OR family is an AND of inverted inputs, inverted.
func (pr *prover) gate(t netlist.GateType, ins []lit) lit {
	switch t {
	case netlist.Input:
		return pr.s.newVar()
	case netlist.Const0:
		return pr.tru.not()
	case netlist.Const1:
		return pr.tru
	case netlist.Buf:
		return ins[0]
	case netlist.Not:
		return ins[0].not()
	case netlist.And:
		return pr.and(ins, false)
	case netlist.Nand:
		return pr.and(ins, false).not()
	case netlist.Or:
		return pr.and(ins, true).not()
	case netlist.Nor:
		return pr.and(ins, true)
	case netlist.Xor, netlist.Xnor:
		acc := ins[0]
		for _, x := range ins[1:] {
			acc = pr.xor(acc, x)
		}
		return acc.flip(t == netlist.Xnor)
	}
	panic("atpg: prover cannot encode gate type " + t.String())
}

// and returns a literal equal to the AND of ins, each inverted when inv
// holds. It overwrites ins, and appends to it within its capacity: ins is
// pr.ins, which has room for one literal past the widest gate.
func (pr *prover) and(ins []lit, inv bool) lit {
	if len(ins) == 1 {
		return ins[0].flip(inv)
	}
	o := pr.s.newVar()
	for i, x := range ins {
		x = x.flip(inv)
		pr.s.addClause(o.not(), x)
		ins[i] = x.not()
	}
	pr.s.addClause(append(ins, o)...)
	return o
}

// xor returns a literal equal to a ⊕ b.
func (pr *prover) xor(a, b lit) lit {
	o := pr.s.newVar()
	pr.s.addClause(o.not(), a, b)
	pr.s.addClause(o.not(), a.not(), b.not())
	pr.s.addClause(o, a.not(), b)
	pr.s.addClause(o, a, b.not())
	return o
}
