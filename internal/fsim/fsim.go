// Package fsim implements a parallel-pattern stuck-at fault simulator with
// stem analysis.
//
// Every line of the circuit's level-ordered netlist.View holds four 64-bit
// words, so one pass of the kernel simulates up to 256 patterns, one bit
// each. Detect takes up to four lanes of at most 64 patterns, lane w in
// word w, and a 4-bit live mask per fault saying in which lanes the fault
// is still wanted: Run puts 256 consecutive patterns in the four lanes,
// and the Detection Matrix puts four triplets' test sets (or four packs of
// short ones) side by side. For each pass the good machine is simulated
// once. The faults are then handled by the fanout-free region they sit in
// (netlist.View.Root), not one at a time:
//
//   - One backward critical-path-tracing pass gives every line its path
//     sensitivity: the patterns in which flipping the line flips its
//     region root. Inside a region a line has one path to the root, so
//     this is the AND of the local sensitivities of the gates along it.
//   - A fault reaches its root in the patterns that activate it (the good
//     value differs from the stuck value) and sensitize its path; a fault
//     on a gate input pin also needs that pin's local sensitivity.
//   - One event-driven propagation per region root flips the root in
//     exactly the patterns some live fault of the region reaches it, and
//     records in which of them a primary output changes: the root's
//     observability.
//
// A fault's detection mask is activation & path sensitivity & root
// observability. This is exact for single stuck-at faults (critical path
// tracing, Abramovici, Menon & Miller 1984; PPSFP with stem analysis, Lee
// & Ha 1991): a fault inside a region changes nothing outside it except
// through the root, and the patterns of a pass are independent bits.
//
// Four words per line, rather than one, pay because the set of gates a
// region root's flip reaches is already nearly as large at 64 patterns as
// at 256, so an evaluation over four words costs little more than one over
// a single word and covers four times the patterns. The 30 Detection
// Matrices of perfbench's traced cold run (seed 1) take 4.1 M four-word
// evaluations where one word per line took 14.3 M.
//
// This simulator plays the role of the TestGen fault simulator in the paper:
// it grades the ATPG test set and fills the Detection Matrix (which triplet
// detects which fault, and at which pattern index).
//
// # Concurrency
//
// A Simulator propagates its region roots serially, on the calling
// goroutine. Fanning them out across goroutines does not pay: one root's
// propagation is only tens of gate evaluations, the packing, good machine
// and fault effects of a pass are serial work before any fan-out, and on
// the bundled circuits a per-root worker pool measured no faster than one
// goroutine. Callers that want parallelism run one Simulator per goroutine
// on a shared view and Targets, as the Detection Matrix build does. A
// Run's Result depends only on the circuit, the faults, the patterns and
// the options.
//
// # Cancellation
//
// Options.Context makes a run cancellable: the context is checked once per
// 256-pattern block — the grain at which the simulator commits work — and
// a cancelled run returns the context's error wrapped, with no partial
// Result.
package fsim

import (
	"context"
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/ctxutil"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Lanes is the number of 64-pattern lanes one pass simulates, one per
// word of a line's value.
const Lanes = 4

// Options controls a fault simulation run.
type Options struct {
	// Context, when non-nil, cancels the run: Run checks it between
	// 256-pattern blocks and returns the context's error. A run that
	// completes before cancellation is unaffected.
	Context context.Context
}

// Result reports the outcome of a fault simulation run.
type Result struct {
	// Detected[i] reports whether faults[i] was detected by any pattern.
	Detected []bool
	// FirstPattern[i] is the index (into the pattern slice) of the first
	// pattern that detects faults[i], or -1 if undetected.
	FirstPattern []int
	// NumDetected is the number of detected faults.
	NumDetected int
	// PatternsApplied is how many patterns were actually simulated before
	// any early stop.
	PatternsApplied int
	// GateEvals counts faulty-machine evaluations during stem
	// propagation, each over four words, a proxy for fault simulation
	// effort (the paper's argument that the set covering flow needs far
	// fewer fault simulations than GATSBY).
	GateEvals int64
}

// Coverage returns the fraction of faults detected, in [0, 1].
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 1
	}
	return float64(r.NumDetected) / float64(len(r.Detected))
}

// Effort counts the work of simulating passes.
type Effort struct {
	GateEvals int64 // four-word faulty-machine evaluations during stem propagation
	Stems     int64 // region-root propagations run
}

// Targets is a fault list prepared for one view: every fault's site and
// activation line, grouped by region root. It is read-only once built, so
// any number of Simulators on the view may share it.
type Targets struct {
	faults []target
	roots  []int32 // region roots with at least one fault, ascending
	start  []int32 // the faults of roots[i] are order[start[i]:start[i+1]]
	order  []int32 // fault indices, grouped by root, ascending within one
}

// target is one fault on the view.
type target struct {
	site  int32  // the line whose value the fault changes first
	act   int32  // the line whose good value activates it
	pin   int    // faulted fanin pin of site, or fault.OutputPin
	stuck uint64 // the stuck value in every pattern bit
}

// NewTargets prepares faults, which must lie in v's circuit.
func NewTargets(v *netlist.View, faults []fault.Fault) *Targets {
	t := &Targets{faults: make([]target, len(faults))}
	count := make([]int32, len(v.Nodes)+1)
	for i, f := range faults {
		tg := &t.faults[i]
		tg.site = v.Line[f.Gate]
		tg.act, tg.pin = tg.site, f.Pin
		if f.Pin != fault.OutputPin {
			tg.act = v.FaninOf(tg.site)[f.Pin]
		}
		if f.StuckAt1 {
			tg.stuck = ^uint64(0)
		}
		count[v.Root[tg.site]+1]++
	}
	// Counting sort by root keeps each root's faults in list order.
	for l := range v.Nodes {
		if count[l+1] > 0 {
			t.roots = append(t.roots, int32(l))
			t.start = append(t.start, count[l])
		}
		count[l+1] += count[l]
	}
	t.start = append(t.start, int32(len(faults)))
	t.order = make([]int32, len(faults))
	for i := range t.faults {
		r := v.Root[t.faults[i].site]
		t.order[count[r]] = int32(i)
		count[r]++
	}
	return t
}

// Simulator holds the per-circuit state for fault simulation: the good
// machine, each line's path sensitivity and one faulty machine, four words
// per line. A Simulator is not safe for concurrent use by multiple
// goroutines; create one per concurrent caller. Simulators on one view
// may run concurrently.
type Simulator struct {
	v     *netlist.View
	words []uint64    // one lane's primary-input words, by input
	good  [][4]uint64 // good-machine value per line
	sens  [][4]uint64 // per line, the patterns in which flipping it flips its root

	// The faulty machine: good values, except on the lines the current
	// propagation changed.
	val     [][4]uint64
	changed []int32  // lines whose val differs from good
	pending []uint64 // bitmap of lines waiting to be evaluated

	active []int32     // roots some live fault reaches in the current pass
	reach  [][4]uint64 // by active root, the patterns to flip it in
	live   []uint8     // Run's live masks
	masks  [][4]uint64 // Run's per-fault detection masks
}

// New returns a fault simulator for the finalized combinational circuit.
func New(c *netlist.Circuit) (*Simulator, error) {
	if !c.Finalized() {
		return nil, fmt.Errorf("fsim: circuit %q not finalized", c.Name)
	}
	if !c.IsCombinational() {
		return nil, fmt.Errorf("fsim: circuit %q is sequential; apply FullScan first", c.Name)
	}
	return NewForView(netlist.NewView(c)), nil
}

// NewForView returns a fault simulator on a view of a combinational
// circuit, which it shares read-only.
func NewForView(v *netlist.View) *Simulator {
	n := len(v.Nodes)
	return &Simulator{
		v:       v,
		words:   make([]uint64, len(v.Inputs)),
		good:    make([][4]uint64, n),
		sens:    make([][4]uint64, n),
		val:     make([][4]uint64, n),
		pending: make([]uint64, (n+63)/64),
	}
}

// Run simulates the fault list against the pattern sequence, 256
// consecutive patterns per pass, and returns the detection record. A fault
// detected in one pass is not simulated in later ones, and the run ends
// once every fault is detected.
func (s *Simulator) Run(faults []fault.Fault, patterns []bitvec.Vector, opts Options) (*Result, error) {
	t := NewTargets(s.v, faults)
	res := &Result{
		Detected:     make([]bool, len(faults)),
		FirstPattern: make([]int, len(faults)),
	}
	if cap(s.live) < len(faults) {
		s.live = make([]uint8, len(faults))
		s.masks = make([][4]uint64, len(faults))
	}
	live, masks := s.live[:len(faults)], s.masks[:len(faults)]
	for i := range res.FirstPattern {
		res.FirstPattern[i] = -1
		live[i] = 1<<Lanes - 1
	}

	var stems, blocks int64
	var lanes [Lanes][]bitvec.Vector
	for base := 0; base < len(patterns); base += 64 * Lanes {
		if err := ctxutil.Err(opts.Context); err != nil {
			return nil, fmt.Errorf("fsim: %w", err)
		}
		block := patterns[base:min(base+64*Lanes, len(patterns))]
		for w := range lanes {
			lanes[w] = block[min(64*w, len(block)):min(64*(w+1), len(block))]
		}
		e, err := s.Detect(t, lanes[:], live, masks)
		if err != nil {
			return nil, err
		}
		res.PatternsApplied += len(block)
		res.GateEvals += e.GateEvals
		stems += e.Stems
		blocks += int64(len(block)+63) / 64
		for fi, m := range masks {
			if live[fi] == 0 || m == [4]uint64{} {
				continue
			}
			res.Detected[fi] = true
			res.NumDetected++
			live[fi] = 0
			w := 0
			for m[w] == 0 {
				w++
			}
			res.FirstPattern[fi] = base + 64*w + bits.TrailingZeros64(m[w])
		}
		if res.NumDetected == len(faults) {
			break
		}
	}
	// Fold effort counters onto the enclosing trace span (if any): many
	// Run calls accumulate into a single span, and AddInt commutes, so the
	// totals are schedule-independent. No per-run span is created.
	if sp := obs.CurrentSpan(opts.Context); sp != nil {
		sp.AddInt("gate_evals", res.GateEvals)
		sp.AddInt("patterns_applied", int64(res.PatternsApplied))
		sp.AddInt("runs", 1)
		sp.AddInt("stems", stems)
		sp.AddInt("blocks", blocks)
	}
	return res, nil
}

// Detect simulates one pass of up to Lanes lanes of at most 64 patterns
// each: lane w is word w of every line, bit k of it lanes[w][k]. A lane
// may be empty. For every fault i of t, masks[i][w] receives the patterns
// of lane w that detect it if bit w of live[i] is set, and zero otherwise.
func (s *Simulator) Detect(t *Targets, lanes [][]bitvec.Vector, live []uint8, masks [][4]uint64) (Effort, error) {
	if err := s.simulateGood(lanes); err != nil {
		return Effort{}, fmt.Errorf("fsim: %w", err)
	}
	s.traceSensitivity()
	// allow[m] keeps, in the lanes of live mask m, the bits that hold a
	// pattern.
	var allow [1 << Lanes][4]uint64
	for m := range allow {
		for w, lane := range lanes {
			if m>>w&1 != 0 {
				allow[m][w] = ^uint64(0) >> (64 - len(lane))
			}
		}
	}
	// Each live fault's effect at its root; a root that some effect
	// reaches is propagated once, flipped in the union of its effects.
	v, good, sens := s.v, s.good, s.sens
	s.active, s.reach = s.active[:0], s.reach[:0]
	for ri := range t.roots {
		var reach [4]uint64
		for _, fi := range t.order[t.start[ri]:t.start[ri+1]] {
			a := &allow[live[fi]&(1<<Lanes-1)]
			if *a == [4]uint64{} {
				masks[fi] = [4]uint64{}
				continue
			}
			tg := &t.faults[fi]
			g, sn := &good[tg.act], &sens[tg.site]
			x := [4]uint64{
				(g[0] ^ tg.stuck) & a[0] & sn[0],
				(g[1] ^ tg.stuck) & a[1] & sn[1],
				(g[2] ^ tg.stuck) & a[2] & sn[2],
				(g[3] ^ tg.stuck) & a[3] & sn[3],
			}
			if tg.pin != fault.OutputPin && x != [4]uint64{} {
				p := v.Sensitivity(tg.site, tg.pin, good)
				x[0] &= p[0]
				x[1] &= p[1]
				x[2] &= p[2]
				x[3] &= p[3]
			}
			masks[fi] = x
			reach[0] |= x[0]
			reach[1] |= x[1]
			reach[2] |= x[2]
			reach[3] |= x[3]
		}
		if reach != [4]uint64{} {
			s.active = append(s.active, int32(ri))
			s.reach = append(s.reach, reach)
		}
	}
	e := Effort{Stems: int64(len(s.active))}
	if len(s.active) > 0 {
		copy(s.val, good)
	}
	for k, ri := range s.active {
		o := s.propagate(t.roots[ri], s.reach[k], &e.GateEvals)
		for _, fi := range t.order[t.start[ri]:t.start[ri+1]] {
			m := &masks[fi]
			m[0] &= o[0]
			m[1] &= o[1]
			m[2] &= o[2]
			m[3] &= o[3]
		}
	}
	return e, nil
}

// simulateGood packs the lanes into the primary inputs' words (bit k of
// word w holds lanes[w][k]) and evaluates the good machine.
func (s *Simulator) simulateGood(lanes [][]bitvec.Vector) error {
	v := s.v
	if len(lanes) > Lanes {
		return fmt.Errorf("%d lanes exceed %d", len(lanes), Lanes)
	}
	for w, lane := range lanes {
		if len(lane) > 64 {
			return fmt.Errorf("lane %d has %d patterns, more than 64", w, len(lane))
		}
		for k, p := range lane {
			if p.Width() != len(v.Inputs) {
				return fmt.Errorf("lane %d pattern %d has width %d, circuit has %d inputs", w, k, p.Width(), len(v.Inputs))
			}
		}
	}
	for _, l := range v.Inputs {
		s.good[l] = [4]uint64{}
	}
	for w, lane := range lanes {
		clear(s.words)
		for k, p := range lane {
			// Visit the pattern's set bits only; a Vector holds none past
			// its width.
			for j := 0; 64*j < len(s.words); j++ {
				for x := p.Limb(j); x != 0; x &= x - 1 {
					s.words[64*j+bits.TrailingZeros64(x)] |= 1 << uint(k)
				}
			}
		}
		for i, l := range v.Inputs {
			s.good[l][w] = s.words[i]
		}
	}
	for l := range v.Nodes {
		if v.Nodes[l].Type != netlist.Input {
			s.good[l] = v.Eval(int32(l), s.good)
		}
	}
	return nil
}

// traceSensitivity computes every line's path sensitivity to its region
// root, in one backward pass: a root is sensitive in every pattern, and a
// line inside a region in the patterns where its single fanout is
// sensitive and passes a flip of the line.
func (s *Simulator) traceSensitivity() {
	v := s.v
	for g := int32(len(v.Nodes)) - 1; g >= 0; g-- {
		if v.Root[g] == g {
			s.sens[g] = [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		}
		sg := s.sens[g]
		for pin, f := range v.FaninOf(g) {
			if v.Root[f] != f {
				p := v.Sensitivity(g, pin, s.good)
				s.sens[f] = [4]uint64{sg[0] & p[0], sg[1] & p[1], sg[2] & p[2], sg[3] & p[3]}
			}
		}
	}
}

// propagate flips line r in the patterns flip, propagates the change
// event-driven in level order, and returns the patterns in which a primary
// output changed. It restores the faulty machine to the good values
// afterwards.
func (s *Simulator) propagate(r int32, flip [4]uint64, evals *int64) [4]uint64 {
	v, good, val := s.v, s.good, s.val
	var observed [4]uint64
	if v.IsOut[r] {
		observed = flip
	}
	g := &good[r]
	val[r] = [4]uint64{g[0] ^ flip[0], g[1] ^ flip[1], g[2] ^ flip[2], g[3] ^ flip[3]}
	s.changed = append(s.changed[:0], r)
	if out := v.FanoutOf(r); len(out) > 0 {
		last := s.schedule(out)
		for w := out[0] >> 6; w <= last>>6; w++ {
			for s.pending[w] != 0 {
				l := w<<6 | int32(bits.TrailingZeros64(s.pending[w]))
				s.pending[w] &= s.pending[w] - 1
				x := v.Eval(l, val)
				*evals++
				g := &good[l]
				d0, d1, d2, d3 := x[0]^g[0], x[1]^g[1], x[2]^g[2], x[3]^g[3]
				if d0|d1|d2|d3 == 0 {
					continue
				}
				val[l] = x
				s.changed = append(s.changed, l)
				if v.IsOut[l] {
					observed[0] |= d0
					observed[1] |= d1
					observed[2] |= d2
					observed[3] |= d3
				}
				last = max(last, s.schedule(v.FanoutOf(l)))
			}
		}
	}
	for _, l := range s.changed {
		val[l] = good[l]
	}
	return observed
}

// schedule marks a changed line's fanout (ascending) pending and returns
// the highest line it marked, or -1.
func (s *Simulator) schedule(out []int32) int32 {
	for _, fo := range out {
		s.pending[fo>>6] |= 1 << (fo & 63)
	}
	if len(out) == 0 {
		return -1
	}
	return out[len(out)-1]
}
