// Package atpg generates compacted deterministic test sets for stuck-at
// faults on combinational circuits.
//
// It stands in for the commercial gate-level ATPG (TestGen in the paper)
// that supplies the reseeding flow with its inputs: the target fault list F
// and the deterministic test set ATPGTS that covers F completely. The flow
// is classical: a random-pattern phase with fault dropping, a deterministic
// phase for the random-resistant faults, and reverse-order fault
// simulation to compact the final pattern sequence.
//
// The deterministic phase classifies each fault in two steps, over a flat,
// level-ordered view of the circuit built once per Run. First a SAT-based
// prover (Larrabee 1992) encodes the fault's miter in CNF and solves it
// within a budget of conflicts; UNSAT proves the fault untestable with no
// search. Many of the faults the random phase leaves are redundant, which
// PODEM can only show by exhausting its search; the prover settles nearly
// all of them by unit propagation and a handful of conflicts. Every other
// fault goes to PODEM, which evaluates the good and the faulty machine
// together (each line holds both values as dual rails in one byte) and
// returns a test cube, untestable, or aborted at the backtrack limit. The
// prover never supplies a test: a detected fault's cube is always PODEM's,
// so the only classification the prover changes is that of a fault PODEM
// would abort, which becomes untestable.
//
// A fault's outcome (status, test cube, backtracks, the prover's
// conflicts) depends only on the circuit, the fault and the backtrack
// limit, so with Parallelism > 1 workers, each with its own search state
// and solver, classify ahead along the undetected-fault list while a
// single consumer walks it in order: it takes each outcome, X-fills each
// test cube from the run's random source, and closes a batch at 64
// patterns. The consumer sees the outcomes in the serial order and the
// random source draws the same bits, so the Result is bit-identical for
// every Parallelism. An outcome computed past a batch's end is kept for
// the next batch; one whose fault a batch's patterns detect is wasted.
package atpg

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Options tunes the ATPG run. The zero value selects sensible defaults.
type Options struct {
	// Seed drives pattern randomness (random phase and X-filling).
	Seed int64
	// MaxRandomPatterns bounds the random phase (default 10*64).
	MaxRandomPatterns int
	// RandomStallBlocks stops the random phase after this many consecutive
	// 64-pattern blocks without a new detection (default 2).
	RandomStallBlocks int
	// BacktrackLimit bounds PODEM backtracks per fault (default 1000).
	BacktrackLimit int
	// SkipCompaction keeps the raw pattern list (useful for ablation).
	SkipCompaction bool
	// Parallelism bounds the PODEM search workers; the fault simulation of
	// the random, PODEM-grading and compaction phases runs on the calling
	// goroutine. 1 forces serial: every search runs on the calling
	// goroutine and no goroutine is started for PODEM. 0 (and any negative
	// value) means one worker per available processor. The Result is
	// bit-identical for any value: PODEM outcomes are consumed in
	// undetected-list order (see the package doc).
	Parallelism int
	// Context, when non-nil, cancels the run: it is checked between
	// fault-simulation blocks (through fsim), before every PODEM search and
	// every outcome the consumer takes, and at each phase boundary. A
	// cancelled run returns the context's error — there is no partial test
	// set — after every worker it started has exited.
	Context context.Context
}

// WithDefaults returns the options with every zero tuning field replaced by
// its documented default. Run applies it internally; the reseeding Engine
// applies it too before deriving cache keys, so that explicitly passing a
// default value and leaving the field zero address the same artifact.
func (o Options) WithDefaults() Options {
	if o.MaxRandomPatterns == 0 {
		o.MaxRandomPatterns = 640
	}
	if o.RandomStallBlocks == 0 {
		o.RandomStallBlocks = 2
	}
	if o.BacktrackLimit == 0 {
		o.BacktrackLimit = 1000
	}
	return o
}

// Stats reports how the test set was produced.
type Stats struct {
	RandomPatterns           int // patterns tried in the random phase
	RandomDetected           int // faults detected by the random phase
	PodemDetected            int // faults detected by PODEM patterns
	PodemUntestable          int // faults proven untestable, by the prover or by PODEM
	PodemAborted             int // faults abandoned at the backtrack limit
	PatternsBeforeCompaction int
	GateEvals                int64 // fault-simulation effort
}

// Result is the outcome of an ATPG run.
type Result struct {
	// Patterns is the final (compacted) deterministic test set, the
	// paper's ATPGTS.
	Patterns []bitvec.Vector
	// Detected[i] reports whether faults[i] is detected by Patterns.
	Detected []bool
	// Untestable lists indices of faults proven redundant, by the prover
	// or by PODEM.
	Untestable []int
	// Aborted lists indices of faults abandoned at the backtrack limit.
	Aborted []int
	Stats   Stats
}

// Coverage returns detected / total over the full fault list.
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 1
	}
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(len(r.Detected))
}

// TestableCoverage returns detected / (total − untestable), the paper's
// "testable fault coverage".
func (r *Result) TestableCoverage() float64 {
	testable := len(r.Detected) - len(r.Untestable)
	if testable <= 0 {
		return 1
	}
	n := 0
	for _, d := range r.Detected {
		if d {
			n++
		}
	}
	return float64(n) / float64(testable)
}

// DetectedFaults returns the indices of detected faults, the target list F
// for the reseeding flow.
func (r *Result) DetectedFaults() []int {
	var out []int
	for i, d := range r.Detected {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// Run generates a compacted test set for the fault list on the finalized
// combinational circuit.
func Run(c *netlist.Circuit, faults []fault.Fault, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	if !c.IsCombinational() {
		return nil, fmt.Errorf("atpg: circuit %q is sequential; apply FullScan first", c.Name)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	v := newView(c)
	sim := fsim.NewForView(&v.View)
	res := &Result{Detected: make([]bool, len(faults))}
	patterns, undetected, err := randomPhase(sim, len(c.Inputs), faults, opts, rng, res)
	if err != nil {
		return nil, err
	}

	// Phase 2: PODEM on the remaining faults. Patterns are produced in
	// batches of up to 64 (one per distinct target fault) and then fault
	// simulated as a single block, so each deterministic pattern can drop
	// many faults at the cost of one parallel-pattern pass. Searches may run
	// ahead on several workers, but outcomes are consumed — classified and
	// X-filled from rng — strictly in undetected-list order.
	pool := newOutcomes(v, faults, opts)
	classified := make([]bool, len(faults)) // untestable or aborted
	for len(undetected) > 0 {
		var batch []bitvec.Vector
		var targets []int
		err = pool.round(undetected, func(fi int, out *outcome) bool {
			switch out.status {
			case statusUntestable:
				res.Untestable = append(res.Untestable, fi)
				res.Stats.PodemUntestable++
				classified[fi] = true
			case statusAborted:
				res.Aborted = append(res.Aborted, fi)
				res.Stats.PodemAborted++
				classified[fi] = true
			case statusDetected:
				batch = append(batch, fill(out.cube, rng))
				targets = append(targets, fi)
			}
			return len(batch) < 64
		})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		n := 0
		for _, fi := range undetected {
			if !classified[fi] {
				undetected[n] = fi
				n++
			}
		}
		undetected = undetected[:n]
		if len(batch) == 0 {
			break // every remaining fault in range was classified
		}
		sub := subset(faults, undetected)
		fres, err := sim.Run(sub, batch, fsim.Options{DropDetected: true, Context: opts.Context})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		for si, d := range fres.Detected {
			if d {
				res.Detected[undetected[si]] = true
				res.Stats.PodemDetected++
			}
		}
		for bi, fi := range targets {
			if !res.Detected[fi] {
				// PODEM said detected but simulation disagrees: that is a
				// generator bug; fail loudly rather than looping forever.
				return nil, fmt.Errorf("atpg: internal error: PODEM pattern %d does not detect %s",
					bi, faults[fi].String(c))
			}
		}
		patterns = append(patterns, batch...)
		undetected = filterUndetected(undetected, res.Detected)
	}
	res.Stats.PatternsBeforeCompaction = len(patterns)
	if sp := obs.CurrentSpan(opts.Context); sp != nil {
		sp.AddInt("podem_searches", pool.consumed)
		sp.AddInt("podem_backtracks", pool.backtracks)
		sp.AddInt("podem_wasted", pool.ran-pool.consumed)
		sp.AddInt("prover_untestable", pool.proved)
		sp.AddInt("prover_conflicts", pool.conflicts)
	}

	// Phase 3: reverse-order compaction. Simulating the sequence backwards
	// with fault dropping keeps only patterns that still first-detect a
	// fault; later (deterministic, high-yield) patterns absorb the work of
	// earlier random ones.
	if !opts.SkipCompaction && len(patterns) > 0 {
		detectedIdx := res.DetectedFaults()
		sub := subset(faults, detectedIdx)
		reversed := make([]bitvec.Vector, len(patterns))
		for i, p := range patterns {
			reversed[len(patterns)-1-i] = p
		}
		fres, err := sim.Run(sub, reversed, fsim.Options{DropDetected: true, Context: opts.Context})
		if err != nil {
			return nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		keep := make([]bool, len(reversed))
		for _, fp := range fres.FirstPattern {
			if fp >= 0 {
				keep[fp] = true
			}
		}
		var compacted []bitvec.Vector
		for i := len(reversed) - 1; i >= 0; i-- { // restore original order
			if keep[i] {
				compacted = append(compacted, reversed[i])
			}
		}
		patterns = compacted
	}
	res.Patterns = patterns
	return res, nil
}

// randomPhase is phase 1 of Run: random patterns of width inputs with
// fault dropping. Patterns that detect nothing new are discarded block by
// block. It records the detections in res and returns the patterns kept
// and the faults left undetected, in fault-list order.
func randomPhase(sim *fsim.Simulator, width int, faults []fault.Fault, opts Options, rng *rand.Rand, res *Result) ([]bitvec.Vector, []int, error) {
	var patterns []bitvec.Vector
	undetected := make([]int, len(faults))
	for i := range faults {
		undetected[i] = i
	}
	stall := 0
	for len(patterns) < opts.MaxRandomPatterns && len(undetected) > 0 && stall < opts.RandomStallBlocks {
		block := make([]bitvec.Vector, 64)
		for i := range block {
			block[i] = bitvec.Random(width, rng)
		}
		sub := subset(faults, undetected)
		fres, err := sim.Run(sub, block, fsim.Options{DropDetected: true, Context: opts.Context})
		if err != nil {
			return nil, nil, fmt.Errorf("atpg: %w", err)
		}
		res.Stats.GateEvals += fres.GateEvals
		res.Stats.RandomPatterns += len(block)
		if fres.NumDetected == 0 {
			stall++
			continue
		}
		stall = 0
		// Keep only patterns that first-detect something.
		keep := make([]bool, len(block))
		for si, fp := range fres.FirstPattern {
			if fp >= 0 {
				keep[fp] = true
				fi := undetected[si]
				res.Detected[fi] = true
				res.Stats.RandomDetected++
			}
		}
		for pi, k := range keep {
			if k {
				patterns = append(patterns, block[pi])
			}
		}
		undetected = filterUndetected(undetected, res.Detected)
	}
	return patterns, undetected, nil
}

// fill turns a test cube into a pattern, drawing each unassigned input
// from rng in input order.
func fill(cube []byte, rng *rand.Rand) bitvec.Vector {
	out := bitvec.New(len(cube))
	for i, v := range cube {
		switch v {
		case v1:
			out.SetBit(i, true)
		case vX:
			if rng.Intn(2) == 1 {
				out.SetBit(i, true)
			}
		}
	}
	return out
}

func subset(faults []fault.Fault, idx []int) []fault.Fault {
	out := make([]fault.Fault, len(idx))
	for i, fi := range idx {
		out[i] = faults[fi]
	}
	return out
}

func filterUndetected(idx []int, detected []bool) []int {
	n := 0
	for _, fi := range idx {
		if !detected[fi] {
			idx[n] = fi
			n++
		}
	}
	return idx[:n]
}
