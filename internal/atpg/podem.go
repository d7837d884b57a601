package atpg

import (
	"math/bits"

	"repro/internal/fault"
	"repro/internal/netlist"
)

// Three-valued logic values. Objectives, decisions and test cubes use
// them; the search state packs two of them per line (see below).
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

// Packed dual-rail values. One byte holds a line's value in both the good
// and the faulty machine. Each machine has a 0-rail and a 1-rail: a binary
// value sets exactly one of them and X sets neither. The 0-rails sit two
// bits below the 1-rails, so one AND and one OR over a gate's fanin bytes
// evaluate both machines at once, and inversion swaps the rail pairs.
const (
	good0   byte = 1 << 0
	faulty0 byte = 1 << 1
	good1   byte = 1 << 2
	faulty1 byte = 1 << 3

	zeroRails   = good0 | faulty0 // 0 in both machines
	oneRails    = good1 | faulty1 // 1 in both machines
	goodRails   = good0 | good1
	faultyRails = faulty0 | faulty1

	pX    byte = 0               // X in both machines
	pD    byte = good1 | faulty0 // D: good 1, faulty 0
	pNotD byte = good0 | faulty1 // D-bar: good 0, faulty 1
)

// swapRails inverts both machines.
func swapRails(x byte) byte { return x>>2&zeroRails | x<<2&oneRails }

// pack returns a three-valued value in both machines.
func pack(v byte) byte {
	switch v {
	case v0:
		return zeroRails
	case v1:
		return oneRails
	}
	return pX
}

// goodOf returns the good-machine value of a packed byte.
func goodOf(x byte) byte {
	switch {
	case x&good0 != 0:
		return v0
	case x&good1 != 0:
		return v1
	}
	return vX
}

// bothBinary reports whether neither machine is X.
func bothBinary(x byte) bool { return x&goodRails != 0 && x&faultyRails != 0 }

// evalGate evaluates gate type t in both machines from the packed values
// val[f] of its fanin lines. AND-family gates take the AND of the 1-rails
// and the OR of the 0-rails; XOR folds pairwise. Input gates (assigned, not
// evaluated) read X.
func evalGate(t netlist.GateType, val []byte, fanin []int32) byte {
	switch t {
	case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
		all, some := byte(zeroRails|oneRails), byte(0)
		for _, f := range fanin {
			x := val[f]
			all &= x
			some |= x
		}
		switch t {
		case netlist.And:
			return some&zeroRails | all&oneRails
		case netlist.Nand:
			return swapRails(some&zeroRails | all&oneRails)
		case netlist.Or:
			return all&zeroRails | some&oneRails
		default:
			return swapRails(all&zeroRails | some&oneRails)
		}
	case netlist.Xor, netlist.Xnor:
		acc := zeroRails
		for _, f := range fanin {
			x := val[f]
			same, diff := acc&x, acc&swapRails(x)
			acc = (same|same>>2)&zeroRails | (diff|diff<<2)&oneRails
		}
		if t == netlist.Xnor {
			return swapRails(acc)
		}
		return acc
	case netlist.Not:
		return swapRails(val[fanin[0]])
	case netlist.Buf:
		return val[fanin[0]]
	case netlist.Const0:
		return zeroRails
	case netlist.Const1:
		return oneRails
	}
	return pX
}

// evalStuck evaluates gate type t like evalGate, from its fanin values in,
// with the faulty machine forced to stuckRail (faulty0 or faulty1) on one
// fanin pin, or on the output for fault.OutputPin. pins is the identity
// index 0, 1, …, at least len(in) long.
func evalStuck(t netlist.GateType, in []byte, pins []int32, pin int, stuckRail byte) byte {
	if pin == fault.OutputPin {
		return evalGate(t, in, pins[:len(in)])&goodRails | stuckRail
	}
	saved := in[pin]
	in[pin] = saved&goodRails | stuckRail
	out := evalGate(t, in, pins[:len(in)])
	in[pin] = saved
	return out
}

// Status of a PODEM run for one fault.
type status int

const (
	statusDetected status = iota
	statusUntestable
	statusAborted
)

// view is the circuit as PODEM searches it: the shared level-ordered
// netlist.View plus SCOAP controllability and distance to a primary
// output. One view is built per Run and shared by every worker.
type view struct {
	netlist.View
	pins []int32 // identity index 0 … max fanin − 1, for evalStuck

	distPO []int // min combinational distance to a primary output
	cc0    []int // SCOAP-style 0-controllability
	cc1    []int // SCOAP-style 1-controllability

	// base holds every line's value with all primary inputs X and no
	// fault: the state each search starts from before injecting its fault.
	base []byte
}

func newView(c *netlist.Circuit) *view {
	v := &view{View: *netlist.NewView(c)}
	n := len(v.Nodes)
	v.distPO, v.cc0, v.cc1, v.base = make([]int, n), make([]int, n), make([]int, n), make([]byte, n)
	maxFanin := 0
	for l := range v.Nodes {
		maxFanin = max(maxFanin, len(v.FaninOf(int32(l))))
	}
	v.pins = make([]int32, maxFanin)
	for i := range v.pins {
		v.pins[i] = int32(i)
	}
	v.computeControllability()
	v.computeDistPO()
	for l := range v.Nodes {
		v.base[l] = evalGate(v.Nodes[l].Type, v.base, v.FaninOf(int32(l)))
	}
	return v
}

// computeControllability assigns SCOAP-style testability measures: cc0/cc1
// estimate the effort of driving each line to 0/1 from the primary inputs.
// They guide backtrace input selection.
func (v *view) computeControllability() {
	for id := range v.Nodes {
		fanin := v.FaninOf(int32(id))
		switch t := v.Nodes[id].Type; t {
		case netlist.Input, netlist.DFF:
			v.cc0[id], v.cc1[id] = 1, 1
		case netlist.Const0:
			v.cc0[id], v.cc1[id] = 0, 1<<28
		case netlist.Const1:
			v.cc0[id], v.cc1[id] = 1<<28, 0
		case netlist.Not:
			v.cc0[id] = v.cc1[fanin[0]] + 1
			v.cc1[id] = v.cc0[fanin[0]] + 1
		case netlist.Buf:
			v.cc0[id] = v.cc0[fanin[0]] + 1
			v.cc1[id] = v.cc1[fanin[0]] + 1
		case netlist.And, netlist.Nand:
			sum1, min0 := 1, int(^uint(0)>>1)
			for _, f := range fanin {
				sum1 += v.cc1[f]
				min0 = min(min0, v.cc0[f])
			}
			if t == netlist.And {
				v.cc1[id], v.cc0[id] = sum1, min0+1
			} else {
				v.cc0[id], v.cc1[id] = sum1, min0+1
			}
		case netlist.Or, netlist.Nor:
			sum0, min1 := 1, int(^uint(0)>>1)
			for _, f := range fanin {
				sum0 += v.cc0[f]
				min1 = min(min1, v.cc1[f])
			}
			if t == netlist.Or {
				v.cc0[id], v.cc1[id] = sum0, min1+1
			} else {
				v.cc1[id], v.cc0[id] = sum0, min1+1
			}
		case netlist.Xor, netlist.Xnor:
			// Fold pairwise over the inputs.
			c0, c1 := v.cc0[fanin[0]], v.cc1[fanin[0]]
			for _, f := range fanin[1:] {
				b0, b1 := v.cc0[f], v.cc1[f]
				c0, c1 = min(c0+b0, c1+b1), min(c0+b1, c1+b0)
			}
			if t == netlist.Xnor {
				c0, c1 = c1, c0
			}
			v.cc0[id], v.cc1[id] = c0+1, c1+1
		}
	}
}

// computeDistPO fills the distance to the nearest primary output, for
// D-frontier selection.
func (v *view) computeDistPO() {
	const inf = 1 << 30
	for i := range v.distPO {
		v.distPO[i] = inf
	}
	queue := make([]int32, 0, len(v.Outputs))
	for _, id := range v.Outputs {
		if v.distPO[id] > 0 {
			v.distPO[id] = 0
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, f := range v.FaninOf(id) {
			if v.distPO[f] > v.distPO[id]+1 {
				v.distPO[f] = v.distPO[id] + 1
				queue = append(queue, f)
			}
		}
	}
}

// cc returns the controllability cost of driving a line to val.
func (v *view) cc(id int32, val byte) int {
	if val == v1 {
		return v.cc1[id]
	}
	return v.cc0[id]
}

func not3(v byte) byte {
	switch v {
	case v0:
		return v1
	case v1:
		return v0
	default:
		return vX
	}
}

// controlling returns the controlling input value of a gate type, or vX if
// the gate has none (XOR family).
func controlling(t netlist.GateType) byte {
	switch t {
	case netlist.And, netlist.Nand:
		return v0
	case netlist.Or, netlist.Nor:
		return v1
	default:
		return vX
	}
}

// inverts reports whether the gate type inverts the backtraced objective.
func inverts(t netlist.GateType) bool {
	switch t {
	case netlist.Nand, netlist.Nor, netlist.Not:
		return true
	default:
		return false
	}
}

// podem is one worker's test generator for single stuck-at faults, using
// the PODEM algorithm: decisions are made only on primary inputs, with
// three-valued event-driven implication of the good and faulty machines
// (packed, one evaluation for both) and trail-based backtracking. It owns
// all of its mutable state, so workers share nothing but the view.
type podem struct {
	v     *view
	limit int // backtrack limit

	val []byte // packed good/faulty value per line

	// X-path memoization, valid for one xpathEpoch.
	xpathMemo  []byte // 0 unknown, 1 yes, 2 no
	xpathEpoch []int32
	xpathCur   int32

	// Event propagation state: a bitmap of lines whose fanin changed, and
	// the highest line set in it.
	pending []uint64
	last    int32

	// Trail-based undo.
	trail   []trailEntry
	markers []int

	// Current fault.
	site      int32
	pin       int  // fault.OutputPin or the faulted fanin pin
	stuck     byte // v0 or v1
	stuckRail byte // faulty0 or faulty1
	siteIn    []byte
	// cone is the fanout cone of the site, in gate ID order: the only
	// region where the D-frontier can live. Cached per site because the
	// output fault and all pin faults of a gate share it.
	cone     []int32
	coneGate int32
}

type trailEntry struct {
	id  int32
	old byte
}

type decision struct {
	pi        int32 // line of the primary input
	value     byte
	triedBoth bool
}

func newPodem(v *view, limit int) *podem {
	n := len(v.Nodes)
	return &podem{
		v:          v,
		limit:      limit,
		val:        make([]byte, n),
		xpathMemo:  make([]byte, n),
		xpathEpoch: make([]int32, n),
		pending:    make([]uint64, (n+63)/64),
		siteIn:     make([]byte, len(v.pins)),
		coneGate:   -1,
	}
}

// generate runs PODEM for one fault. The outcome depends only on the
// view, the fault and the backtrack limit.
func (p *podem) generate(f fault.Fault) *outcome {
	p.setFault(f)
	p.reset()

	var stack []decision
	backtracks := 0
	for {
		if p.detected() {
			return &outcome{status: statusDetected, cube: p.cube(), backtracks: backtracks}
		}
		objGate, objVal := p.objective()
		if objVal != vX {
			pi, val, ok := p.backtrace(objGate, objVal)
			if ok {
				p.pushMarker()
				p.assign(pi, val)
				stack = append(stack, decision{pi: pi, value: val})
				continue
			}
			// No X path to a PI: treat as a dead end.
		}
		// Dead end: backtrack to the most recent decision with an untried
		// alternative.
		backtracks++
		if backtracks > p.limit {
			return &outcome{status: statusAborted, backtracks: backtracks}
		}
		flipped := false
		for len(stack) > 0 {
			d := stack[len(stack)-1]
			p.popToMarker()
			stack = stack[:len(stack)-1]
			if !d.triedBoth {
				nv := not3(d.value)
				p.pushMarker()
				p.assign(d.pi, nv)
				stack = append(stack, decision{pi: d.pi, value: nv, triedBoth: true})
				flipped = true
				break
			}
		}
		if !flipped {
			return &outcome{status: statusUntestable, backtracks: backtracks}
		}
	}
}

func (p *podem) setFault(f fault.Fault) {
	p.site = p.v.Line[f.Gate]
	p.pin = f.Pin
	p.stuck, p.stuckRail = v0, faulty0
	if f.StuckAt1 {
		p.stuck, p.stuckRail = v1, faulty1
	}
	if p.coneGate != p.site {
		p.cone = p.cone[:0]
		for _, id := range p.v.Circuit.FanoutCone(f.Gate) {
			p.cone = append(p.cone, p.v.Line[id])
		}
		p.coneGate = p.site
	}
}

// reset rebuilds the starting state for the current fault: all primary
// inputs X, constants propagated, the fault injected. It copies the
// fault-free baseline and re-implies only what the fault changes.
func (p *podem) reset() {
	copy(p.val, p.v.base)
	p.val[p.site] = p.eval(p.site)
	p.propagate(p.site)
	p.trail = p.trail[:0]
	p.markers = p.markers[:0]
}

// eval computes a line's packed value from its fanin, injecting the fault
// at its site.
func (p *podem) eval(id int32) byte {
	if id == p.site {
		return p.evalSite()
	}
	nd := &p.v.Nodes[id]
	return evalGate(nd.Type, p.val, p.v.Fanin[nd.In:nd.InEnd])
}

// evalSite evaluates the fault site. A primary input keeps its assigned
// good value.
func (p *podem) evalSite() byte {
	nd := &p.v.Nodes[p.site]
	if nd.Type == netlist.Input {
		return p.val[p.site]&goodRails | p.stuckRail // only an output fault sits on an input
	}
	in := p.siteIn[:0]
	for _, f := range p.v.Fanin[nd.In:nd.InEnd] {
		in = append(in, p.val[f])
	}
	return evalStuck(nd.Type, in, p.v.pins, p.pin, p.stuckRail)
}

// assign sets a primary input to a binary value and propagates events.
func (p *podem) assign(pi int32, val byte) {
	x := pack(val)
	if pi == p.site {
		x = x&goodRails | p.stuckRail // only an output fault sits on an input
	}
	p.setValue(pi, x)
	p.propagate(pi)
}

func (p *podem) setValue(id int32, x byte) {
	p.trail = append(p.trail, trailEntry{id: id, old: p.val[id]})
	p.val[id] = x
}

// propagate re-implies the lines downstream of a changed line. Lines are
// evaluated in increasing index, hence level, order, each at most once,
// after every one of its changed fanins.
func (p *podem) propagate(from int32) {
	out := p.v.FanoutOf(from)
	if len(out) == 0 {
		return
	}
	p.last = -1
	p.scheduleFanouts(out)
	for w := out[0] >> 6; w <= p.last>>6; w++ {
		for p.pending[w] != 0 {
			id := w<<6 | int32(bits.TrailingZeros64(p.pending[w]))
			p.pending[w] &= p.pending[w] - 1
			if x := p.eval(id); x != p.val[id] {
				p.setValue(id, x)
				p.scheduleFanouts(p.v.FanoutOf(id))
			}
		}
	}
}

// scheduleFanouts marks a changed line's fanout (ascending) pending.
func (p *podem) scheduleFanouts(out []int32) {
	for _, fo := range out {
		p.pending[fo>>6] |= 1 << (fo & 63)
	}
	if len(out) > 0 {
		p.last = max(p.last, out[len(out)-1])
	}
}

func (p *podem) pushMarker() {
	p.markers = append(p.markers, len(p.trail))
}

func (p *podem) popToMarker() {
	if len(p.markers) == 0 {
		return
	}
	mark := p.markers[len(p.markers)-1]
	p.markers = p.markers[:len(p.markers)-1]
	for i := len(p.trail) - 1; i >= mark; i-- {
		e := p.trail[i]
		p.val[e.id] = e.old
	}
	p.trail = p.trail[:mark]
}

// detected reports whether any primary output currently carries a fault
// effect (binary and different in the two machines).
func (p *podem) detected() bool {
	for _, id := range p.v.Outputs {
		if x := p.val[id]; x == pD || x == pNotD {
			return true
		}
	}
	return false
}

// objective returns the next (line, value) goal: activate the fault if it is
// not yet activated, otherwise advance the D-frontier gate closest to a
// primary output. It returns value vX when no goal exists (dead end).
func (p *podem) objective() (int32, byte) {
	v := p.v
	actLine := p.site
	if p.pin != fault.OutputPin {
		actLine = v.FaninOf(p.site)[p.pin]
	}
	switch goodOf(p.val[actLine]) {
	case vX:
		return actLine, not3(p.stuck) // the line value that activates the fault
	case p.stuck:
		return 0, vX // good value equals the stuck value: no divergence possible
	}

	// Fault activated. Find the best D-frontier gate: output X in either
	// machine with a divergent binary input pair and an X path to a primary
	// output (without an X path the divergence can never be observed, so
	// the branch is pruned immediately).
	p.xpathCur++
	best, bestDist := int32(-1), int(^uint(0)>>1)
	for _, g := range p.cone {
		id := int32(g)
		if bothBinary(p.val[id]) || v.Nodes[id].Type == netlist.Input {
			continue
		}
		diverges := false
		for pin, f := range v.FaninOf(id) {
			x := p.val[f]
			if id == p.site && pin == p.pin {
				x = x&goodRails | p.stuckRail
			}
			if x == pD || x == pNotD {
				diverges = true
				break
			}
		}
		if diverges && v.distPO[id] < bestDist && p.xpath(id) {
			best, bestDist = id, v.distPO[id]
		}
	}
	if best < 0 {
		return 0, vX
	}
	// Objective: set an X side input of the frontier gate to the
	// non-controlling value so the divergence passes through. All side
	// inputs must eventually be set, so take the hardest one first (classic
	// multiple-backtrace intuition): failing early is cheaper.
	ctrl := controlling(v.Nodes[best].Type)
	nonCtrl := not3(ctrl)
	if ctrl == vX {
		nonCtrl = v0 // XOR family: any binary value sensitizes
	}
	pick, pickCost := int32(-1), -1
	for _, f := range v.FaninOf(best) {
		if p.val[f]&goodRails != 0 {
			continue
		}
		if cost := v.cc(f, nonCtrl); cost > pickCost {
			pick, pickCost = f, cost
		}
	}
	if pick < 0 {
		return 0, vX
	}
	return pick, nonCtrl
}

// xpath reports whether line id has a path of lines to a primary output
// that are X in at least one machine. Memoized per objective computation.
func (p *podem) xpath(id int32) bool {
	if p.xpathEpoch[id] == p.xpathCur {
		return p.xpathMemo[id] == 1
	}
	p.xpathEpoch[id] = p.xpathCur
	p.xpathMemo[id] = 2 // assume no (also breaks fanout cycles defensively)
	if p.v.IsOut[id] {
		p.xpathMemo[id] = 1
		return true
	}
	for _, fo := range p.v.FanoutOf(id) {
		if bothBinary(p.val[fo]) {
			continue
		}
		if p.xpath(fo) {
			p.xpathMemo[id] = 1
			return true
		}
	}
	return false
}

// backtrace walks an objective (line, value) backwards through X-valued
// gates to an unassigned primary input, returning the PI and the value to
// try. Input selection is guided by controllability: when one controlling
// input suffices, take the easiest; when all inputs are needed, take the
// hardest (so infeasible branches fail early).
func (p *podem) backtrace(line int32, val byte) (int32, byte, bool) {
	v := p.v
	for {
		t := v.Nodes[line].Type
		if t == netlist.Input {
			if p.val[line]&goodRails != 0 {
				return 0, 0, false
			}
			return line, val, true
		}

		var inVal byte
		var pickEasiest bool
		switch t {
		case netlist.Not, netlist.Buf:
			if inverts(t) {
				val = not3(val)
			}
			line = v.FaninOf(line)[0]
			continue
		case netlist.And, netlist.Nand:
			out := val
			if t == netlist.Nand {
				out = not3(val)
			}
			if out == v1 {
				inVal, pickEasiest = v1, false // all inputs must be 1
			} else {
				inVal, pickEasiest = v0, true // one 0 suffices
			}
		case netlist.Or, netlist.Nor:
			out := val
			if t == netlist.Nor {
				out = not3(val)
			}
			if out == v0 {
				inVal, pickEasiest = v0, false // all inputs must be 0
			} else {
				inVal, pickEasiest = v1, true // one 1 suffices
			}
		case netlist.Xor, netlist.Xnor:
			// Parity gates: any X input works; aim for its cheaper value.
			next, bestCost := int32(-1), int(^uint(0)>>1)
			var nextVal byte
			for _, f := range v.FaninOf(line) {
				if p.val[f]&goodRails != 0 {
					continue
				}
				c0, c1 := v.cc(f, v0), v.cc(f, v1)
				fv, cost := v0, c0
				if c1 < c0 {
					fv, cost = v1, c1
				}
				if cost < bestCost {
					next, nextVal, bestCost = f, fv, cost
				}
			}
			if next < 0 {
				return 0, 0, false
			}
			line, val = next, nextVal
			continue
		default:
			return 0, 0, false
		}

		next, bestCost := int32(-1), -1
		if pickEasiest {
			bestCost = int(^uint(0) >> 1)
		}
		for _, f := range v.FaninOf(line) {
			if p.val[f]&goodRails != 0 {
				continue
			}
			cost := v.cc(f, inVal)
			if (pickEasiest && cost < bestCost) || (!pickEasiest && cost > bestCost) {
				next, bestCost = f, cost
			}
		}
		if next < 0 {
			return 0, 0, false
		}
		line, val = next, inVal
	}
}

// cube returns the good-machine value of every primary input, in input
// order: the test cube the search found.
func (p *podem) cube() []byte {
	out := make([]byte, len(p.v.Inputs))
	for i, id := range p.v.Inputs {
		out[i] = goodOf(p.val[id])
	}
	return out
}
