// Package fsim implements a parallel-pattern stuck-at fault simulator with
// stem analysis.
//
// Patterns are processed in blocks of 64, one bit per pattern, on the
// circuit's level-ordered netlist.View. For each block the good machine is
// simulated once. The faults are then handled by the fanout-free region
// they sit in (netlist.View.Root), not one at a time:
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
// through the root, and the patterns of a block are independent bits.
//
// This simulator plays the role of the TestGen fault simulator in the paper:
// it grades the ATPG test set and fills the Detection Matrix (which triplet
// detects which fault, and at which pattern index).
//
// # Parallelism and determinism
//
// Run fans the region-root propagations of each block out across
// Options.Parallelism worker goroutines. The good-machine values, path
// sensitivities and fault effects are computed once per block before the
// fan-out and only read during it; each worker owns a private faulty
// machine and writes only the observability slots of the roots it
// propagates. The masks are then combined and folded into the Result
// serially, in fault-list order.
//
// Determinism guarantee: for any Parallelism value (including 1, the serial
// path), Run returns a bit-identical Result — Detected, FirstPattern,
// NumDetected, PatternsApplied and GateEvals all match exactly. A root's
// propagation is the same whichever worker runs it, and GateEvals is a sum
// of per-root counts, which is order-independent. The fsim and dmatrix test
// suites assert this equivalence on the benchmark circuits.
//
// # Cancellation
//
// Options.Context makes a run cancellable: the context is checked once per
// 64-pattern block — the grain at which the simulator commits work — and a
// cancelled run returns the context's error wrapped, with no partial
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
	"repro/internal/parallel"
)

// Options controls a fault simulation run.
type Options struct {
	// DropDetected stops simulating a fault after its first detection.
	// This is the right mode both for test grading and for Detection Matrix
	// rows, which only need "detected by this test set" plus the earliest
	// detecting pattern.
	DropDetected bool
	// StopWhenAllDetected ends the run early once every fault is detected.
	StopWhenAllDetected bool
	// Parallelism is the number of worker goroutines the region roots of
	// each pattern block are fanned out across. 1 forces the serial path;
	// 0 (and any negative value) means one worker per available processor.
	// The Result is bit-identical for every value — see the package
	// documentation for the determinism guarantee.
	Parallelism int
	// Context, when non-nil, cancels the run: Run checks it between
	// 64-pattern blocks and returns the context's error. A run that
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
	// propagation, a proxy for fault simulation effort (the paper's
	// argument that the set covering flow needs far fewer fault
	// simulations than GATSBY).
	GateEvals int64
}

// Coverage returns the fraction of faults detected, in [0, 1].
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 1
	}
	return float64(r.NumDetected) / float64(len(r.Detected))
}

// Effort counts the work of simulating blocks.
type Effort struct {
	GateEvals int64 // faulty-machine evaluations during stem propagation
	Stems     int64 // region-root propagations run
}

// minRootsPerWorker is the smallest per-worker share of a block's active
// region roots worth a goroutine handoff; below it the block degrades
// toward the serial path. Purely a scheduling threshold — it cannot affect
// results.
const minRootsPerWorker = 8

// rootChunk is the number of region roots a worker claims per atomic
// operation on the shared cursor.
const rootChunk = 16

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

// Simulator holds the per-circuit state for fault simulation: the shared
// good machine plus one private faulty machine per worker. A Simulator is
// not safe for concurrent use by multiple goroutines — Run manages its own
// internal worker pool instead; create one Simulator per concurrent caller.
// Simulators on one view may run concurrently.
type Simulator struct {
	v     *netlist.View
	words []uint64 // packed primary-input words of the current block
	good  []uint64 // good-machine value per line
	sens  []uint64 // per line, the patterns in which flipping it flips its root
	block int      // blocks simulated; a machine synced to this holds good

	machines []*machine // machines[0] serves the serial path; grown on demand
	active   []int32    // roots some live fault reaches in the current block
	reach    []uint64   // by active root, the patterns to flip it in
	observed []uint64   // by active root, the patterns an output changed in
	maskBuf  []uint64   // per-fault detection masks for one block
	evals    []int64    // per-worker gate-evaluation counters
}

// machine is one worker's private faulty machine: the good values of the
// current block, except on the lines the current propagation changed.
type machine struct {
	val     []uint64
	block   int     // the Simulator block val holds the good values of
	changed []int32 // lines whose val differs from good
	pending []uint64
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
		v:        v,
		words:    make([]uint64, len(v.Inputs)),
		good:     make([]uint64, n),
		sens:     make([]uint64, n),
		block:    1,
		machines: []*machine{newMachine(n)},
	}
}

func newMachine(n int) *machine {
	return &machine{val: make([]uint64, n), pending: make([]uint64, (n+63)/64)}
}

// ensureMachines grows the private faulty-machine pool to n entries.
func (s *Simulator) ensureMachines(n int) {
	for len(s.machines) < n {
		s.machines = append(s.machines, newMachine(len(s.v.Nodes)))
	}
}

// Run simulates the fault list against the pattern sequence and returns the
// detection record. The Result is bit-identical for every Options.Parallelism
// value; see the package documentation.
func (s *Simulator) Run(faults []fault.Fault, patterns []bitvec.Vector, opts Options) (*Result, error) {
	workers := parallel.Degree(opts.Parallelism)
	t := NewTargets(s.v, faults)
	res := &Result{
		Detected:     make([]bool, len(faults)),
		FirstPattern: make([]int, len(faults)),
	}
	live := make([]bool, len(faults))
	for i := range res.FirstPattern {
		res.FirstPattern[i] = -1
		live[i] = true
	}
	nLive := len(faults)
	if cap(s.maskBuf) < len(faults) {
		s.maskBuf = make([]uint64, len(faults))
	}
	masks := s.maskBuf[:len(faults)]

	var stems, blocks int64
	for base := 0; base < len(patterns); base += 64 {
		if err := ctxutil.Err(opts.Context); err != nil {
			return nil, fmt.Errorf("fsim: %w", err)
		}
		block := patterns[base:min(base+64, len(patterns))]
		e, err := s.detect(t, block, live, masks, workers)
		if err != nil {
			return nil, fmt.Errorf("fsim: %w", err)
		}
		res.PatternsApplied += len(block)
		res.GateEvals += e.GateEvals
		stems += e.Stems
		blocks++
		for fi, m := range masks {
			if !live[fi] || m == 0 {
				continue
			}
			if !res.Detected[fi] {
				res.Detected[fi] = true
				res.NumDetected++
				res.FirstPattern[fi] = base + bits.TrailingZeros64(m)
			}
			if opts.DropDetected {
				live[fi] = false
				nLive--
			}
		}
		if opts.StopWhenAllDetected && res.NumDetected == len(faults) {
			break
		}
		if opts.DropDetected && nLive == 0 {
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

// Detect simulates one block of at most 64 patterns on the calling
// goroutine. For every fault i of t with live[i] set, masks[i] receives
// the patterns of the block (bit k for block[k]) that detect it; the
// other entries are zeroed.
func (s *Simulator) Detect(t *Targets, block []bitvec.Vector, live []bool, masks []uint64) (Effort, error) {
	e, err := s.detect(t, block, live, masks, 1)
	if err != nil {
		return Effort{}, fmt.Errorf("fsim: %w", err)
	}
	return e, nil
}

// detect is Detect with the region-root propagations fanned out across up
// to workers goroutines.
func (s *Simulator) detect(t *Targets, block []bitvec.Vector, live []bool, masks []uint64, workers int) (Effort, error) {
	if err := s.simulateGood(block); err != nil {
		return Effort{}, err
	}
	s.traceSensitivity()
	blockMask := ^uint64(0)
	if len(block) < 64 {
		blockMask = uint64(1)<<uint(len(block)) - 1
	}
	// Each live fault's effect at its root; a root that some effect
	// reaches is propagated once, flipped in the union of its effects.
	v, good := s.v, s.good
	s.active, s.reach = s.active[:0], s.reach[:0]
	for ri := range t.roots {
		var reach uint64
		for _, fi := range t.order[t.start[ri]:t.start[ri+1]] {
			masks[fi] = 0
			if !live[fi] {
				continue
			}
			tg := &t.faults[fi]
			x := (good[tg.act] ^ tg.stuck) & blockMask & s.sens[tg.site]
			if tg.pin != fault.OutputPin && x != 0 {
				x &= v.Sensitivity(tg.site, tg.pin, good)
			}
			masks[fi] = x
			reach |= x
		}
		if reach != 0 {
			s.active = append(s.active, int32(ri))
			s.reach = append(s.reach, reach)
		}
	}
	e := Effort{Stems: int64(len(s.active))}
	if cap(s.observed) < len(s.active) {
		s.observed = make([]uint64, len(s.active))
	}
	observed := s.observed[:len(s.active)]

	// Degrade toward serial when the active roots are too few to amortize
	// goroutine handoffs. Scheduling only; results are unaffected.
	workers = max(1, min(workers, len(s.active)/minRootsPerWorker))
	if workers == 1 {
		m := s.machines[0]
		for k, ri := range s.active {
			observed[k] = m.propagate(s, t.roots[ri], s.reach[k], &e.GateEvals)
		}
	} else {
		s.ensureMachines(workers)
		if cap(s.evals) < workers {
			s.evals = make([]int64, workers)
		}
		evals := s.evals[:workers]
		clear(evals)
		parallel.ForEachChunk(workers, len(s.active), rootChunk, func(worker, lo, hi int) {
			// Count locally and publish once per chunk: per-root increments
			// on adjacent counters would false-share one cache line.
			m, n := s.machines[worker], int64(0)
			for k := lo; k < hi; k++ {
				observed[k] = m.propagate(s, t.roots[s.active[k]], s.reach[k], &n)
			}
			evals[worker] += n
		})
		for _, n := range evals {
			e.GateEvals += n
		}
	}
	for k, ri := range s.active {
		for _, fi := range t.order[t.start[ri]:t.start[ri+1]] {
			masks[fi] &= observed[k]
		}
	}
	return e, nil
}

// simulateGood packs the block into primary-input words (bit k holds
// pattern k) and evaluates the good machine.
func (s *Simulator) simulateGood(block []bitvec.Vector) error {
	if len(block) > 64 {
		return fmt.Errorf("block of %d patterns exceeds 64", len(block))
	}
	clear(s.words)
	for k, p := range block {
		if p.Width() != len(s.words) {
			return fmt.Errorf("pattern %d has width %d, circuit has %d inputs", k, p.Width(), len(s.words))
		}
		for i := range s.words {
			if p.Bit(i) {
				s.words[i] |= 1 << uint(k)
			}
		}
	}
	v := s.v
	for i, l := range v.Inputs {
		s.good[l] = s.words[i]
	}
	for l := range v.Nodes {
		if v.Nodes[l].Type != netlist.Input {
			s.good[l] = v.Eval(int32(l), s.good)
		}
	}
	s.block++
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
			s.sens[g] = ^uint64(0)
		}
		sg := s.sens[g]
		for pin, f := range v.FaninOf(g) {
			if v.Root[f] != f {
				s.sens[f] = sg & v.Sensitivity(g, pin, s.good)
			}
		}
	}
}

// propagate flips line r in the patterns flip, propagates the change
// event-driven in level order, and returns the patterns in which a primary
// output changed. It restores the machine to the good values afterwards.
func (m *machine) propagate(s *Simulator, r int32, flip uint64, evals *int64) uint64 {
	v, good, val := s.v, s.good, m.val
	if m.block != s.block {
		copy(val, good)
		m.block = s.block
	}
	var observed uint64
	if v.IsOut[r] {
		observed = flip
	}
	val[r] = good[r] ^ flip
	m.changed = append(m.changed[:0], r)
	if out := v.FanoutOf(r); len(out) > 0 {
		last := m.schedule(out)
		for w := out[0] >> 6; w <= last>>6; w++ {
			for m.pending[w] != 0 {
				l := w<<6 | int32(bits.TrailingZeros64(m.pending[w]))
				m.pending[w] &= m.pending[w] - 1
				x := v.Eval(l, val)
				*evals++
				d := x ^ good[l]
				if d == 0 {
					continue
				}
				val[l] = x
				m.changed = append(m.changed, l)
				if v.IsOut[l] {
					observed |= d
				}
				last = max(last, m.schedule(v.FanoutOf(l)))
			}
		}
	}
	for _, l := range m.changed {
		val[l] = good[l]
	}
	return observed
}

// schedule marks a changed line's fanout (ascending) pending and returns
// the highest line it marked, or -1.
func (m *machine) schedule(out []int32) int32 {
	for _, fo := range out {
		m.pending[fo>>6] |= 1 << (fo & 63)
	}
	if len(out) == 0 {
		return -1
	}
	return out[len(out)-1]
}
