package atpg

import (
	"math/bits"
	"slices"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// proverBudget bounds the conflicts the prover spends on one fault. A
// fault it neither proves untestable nor finds a test for within the
// budget goes to PODEM as if the prover had not run. On the bundled
// circuits up to s13207 (seed 1) no fault's solve takes more than 238
// conflicts (on s13207; no more than 85 on any other circuit), so the
// budget only stops miters far harder than those. A fault's conflicts
// depend on the faults its region's solver decided before it (see
// decide), never on the worker or the time.
const proverBudget = 1000

// prover settles redundant faults before PODEM searches them, by SAT-based
// test generation (Larrabee, IEEE TCAD 1992) over one miter per fanout-free
// region (netlist.View.Root). A fault whose site lies in the region of root
// r can reach the rest of the circuit only through r, along the one path
// from its site up to r; so it has a test exactly when some input pattern
// activates it, sensitizes that path, and makes the flip of r observable.
//
// The miter of root r has a good copy of every line in the input support
// of the observable outputs of r's fanout cone, a faulty copy of the cone
// lines that reach one of those outputs with r inverted (a line outside
// the cone has the same value in both machines and shares its good
// variable), and an active variable per cone line with Larrabee's
// active-path clauses: an active line carries the flip (its good and
// faulty values differ), an active line that is not a primary output has
// an active fanout, and r is active. Each clause is one way: a line may
// differ in the two machines and still be inactive, since its effect may
// be masked further on. A satisfying assignment therefore holds a chain of
// active lines from r to an output where the two machines differ; and every
// pattern that makes r's flip observable has one, the path the flip takes,
// so UNSAT means no such pattern exists.
//
// A fault of the region is the miter under assumptions, all of them
// good-copy literals: the activation value on the faulted line, and the
// non-controlling value on every other input of each AND-family gate the
// path enters, from the faulted pin or the site up to r (the condition
// netlist.View.Sensitivity gives the fault simulator; XOR, BUF and NOT add
// none). A line feeding two pins of one gate is itself a root, so the path
// enters each gate on one pin.
//
// A prover belongs to one worker. decide resets its solver for every
// region, so a verdict depends only on the view, the region's faults and
// their order.
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
	assumps []lit    // a fault's assumptions, scratch
	tested  []bool   // decide's: by list position, a model tests the fault
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

// proof is the prover's verdict on one fault and the conflicts it took.
type proof struct {
	verdict   verdict
	conflicts int
}

// decide encodes the miter of region root r and decides, in order on its
// one solver, each fault of list, whose sites all lie in the region:
// proofs[fi] is fault fi's. A model is a test for every fault of the
// region whose assumptions it satisfies, so each model settles the later
// faults it tests as satisfiable, with no solve. decide reports whether it
// encoded a miter; it does not when r reaches no primary output, and every
// fault is then untestable with no conflict.
func (pr *prover) decide(r int32, faults []fault.Fault, list []int32, proofs []proof) bool {
	if !pr.encodeRegion(r) {
		for _, fi := range list {
			proofs[fi] = proof{verdict: unsatisfiable}
		}
		return false
	}
	tested := slices.Grow(pr.tested[:0], len(list))[:len(list)]
	clear(tested)
	pr.tested = tested
	for i, fi := range list {
		if tested[i] {
			proofs[fi] = proof{verdict: satisfiable}
			continue
		}
		vd, n := pr.prove(r, faults[fi], proverBudget)
		proofs[fi] = proof{verdict: vd, conflicts: n}
		if vd != satisfiable {
			continue
		}
		for j := i + 1; j < len(list); j++ {
			if !tested[j] {
				pr.assume(r, faults[list[j]])
				tested[j] = pr.holds()
			}
		}
	}
	return true
}

// encodeRegion resets the solver and adds the miter of region root r. It
// reports false, adding nothing, when r reaches no primary output.
func (pr *prover) encodeRegion(r int32) bool {
	pr.epoch++
	pr.s.reset()
	if !pr.markCone(r) {
		return false
	}
	pr.markSupport()
	pr.encodeGood()
	pr.encodeFaulty(r, pr.good[r].not())
	pr.encodeActive(r)
	return true
}

// prove decides fault f on the encoded miter of its region root r,
// spending at most budget conflicts. The returned conflicts are those of
// this solve. After satisfiable, the solver holds the model until its next
// solve.
func (pr *prover) prove(r int32, f fault.Fault, budget int) (verdict, int) {
	pr.assume(r, f)
	vd := pr.s.solve(pr.assumps, budget)
	return vd, pr.s.conflicts
}

// assume sets pr.assumps to fault f's assumptions on the miter of its
// region root r: its activation, and the sensitization of every gate its
// path enters up to r.
func (pr *prover) assume(r int32, f fault.Fault) {
	v := pr.v
	site, pin, stuck := v.site(f)
	act := site
	if pin >= 0 {
		act = v.FaninOf(site)[pin]
	}
	pr.assumps = append(pr.assumps[:0], pr.good[act].flip(stuck == v1))
	for l := site; ; {
		if pin >= 0 {
			pr.sensitize(l, pin)
		}
		if l == r {
			return
		}
		fo := v.FanoutOf(l)[0]
		pin = slices.Index(v.FaninOf(fo), l)
		l = fo
	}
}

// holds reports whether the solver's model satisfies every assumption.
func (pr *prover) holds() bool {
	for _, a := range pr.assumps {
		if pr.s.val[a] != 1 {
			return false
		}
	}
	return true
}

// sensitize appends to the assumptions the non-controlling value on every
// input of line l other than pin, if l is an AND-family gate.
func (pr *prover) sensitize(l int32, pin int) {
	c := controlling(pr.v.Nodes[l].Type)
	if c == vX {
		return
	}
	for q, f := range pr.v.FaninOf(l) {
		if q != pin {
			pr.assumps = append(pr.assumps, pr.good[f].flip(c == v1))
		}
	}
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

// encodeGood adds the literal fixed true and the good copy of the lines
// in pr.support. Lines are encoded in ascending order, so every fanin has
// its literal first.
func (pr *prover) encodeGood() {
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
}

// encodeFaulty adds the faulty copy of the lines in pr.cone, whose lowest
// line is site: site's faulty literal is fs, and every other cone line is
// its gate over its fanins' faulty literals, or good ones outside the
// cone.
func (pr *prover) encodeFaulty(site int32, fs lit) {
	v := pr.v
	for i := len(pr.cone) - 1; i >= 0; i-- {
		l := pr.cone[i]
		if l == site {
			pr.faulty[l] = fs
			continue
		}
		pr.ins = pr.ins[:0]
		for _, f := range v.FaninOf(l) {
			if pr.stamp[f] == pr.epoch {
				pr.ins = append(pr.ins, pr.faulty[f])
			} else {
				pr.ins = append(pr.ins, pr.good[f])
			}
		}
		pr.faulty[l] = pr.gate(v.Nodes[l].Type, pr.ins)
	}
}

// encodeActive adds the active-path clauses over pr.cone from site, one
// way only (see the type's doc).
func (pr *prover) encodeActive(site int32) {
	v := pr.v
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
