// Package dmatrix builds the Detection Matrix of the reseeding flow: one row
// per candidate triplet, one column per target fault, with d[i][j] = 1 iff
// the test set generated by triplet i detects fault j.
//
// Candidate construction follows the paper's Initial Reseeding Builder: one
// triplet per ATPG pattern p_i, with the state seed δ_i = p_i (so the
// pattern itself is the triplet's first output and the candidate set covers
// the fault list by construction), a random input value θ_i, and a common
// experimentally-tuned evolution length T.
//
// Build draws those candidates and hands them to Grade, which
// fault-simulates any list of triplets of one length T. GATSBY grades each
// generation of its genetic search through Grade too, against the faults
// it has yet to detect. Every matrix records, for each detection, the
// index of the earliest detecting pattern: the covering flow trims its
// triplets with it, and GATSBY takes a candidate's length from it. The
// FirstTable holding them takes one byte a cell for T ≤ 255, two up to
// 65 535 and four beyond, so at the paper's lengths it is as large as
// eight copies of the matrix's rows, not thirty-two.
//
// # Packing
//
// The fault simulator simulates four 64-pattern lanes per pass, one per
// word of a line's value, and Grade fills each lane with exactly the
// 64-pattern block of a one-word simulator:
//
//   - For T ≤ 64 a lane is a pack of max(1, ⌊64/T⌋) triplets: triplet j of
//     the pack owns the T-bit field starting at bit j·T, so one pass fills
//     the rows of four packs.
//   - For T > 64 the four lanes hold the same 64-pattern segment of four
//     consecutive triplets, and the build steps through the segments. Each
//     lane drops the faults its own triplet has detected, and is simulated,
//     and its patterns counted, only while its triplet has a live fault.
//
// Each fault's detection mask splits into the lanes' rows and
// first-detection indices. Packing changes how much is simulated, not
// what: each lane sees exactly its own triplets' test sets.
//
// # Parallelism and determinism
//
// Grade fault-simulates the groups of four lanes concurrently: groups are
// handed out to Options.Parallelism workers by the internal/parallel pool,
// and every worker owns a private fsim.Simulator and buffers on one
// circuit view and fault list shared by the whole build. A worker expands
// the test sets of its group's triplets just before it simulates them, so
// only the groups in flight hold their patterns; the generator is
// stateful, so the expansions take turns on it. Build's θ selection (a
// single rand stream) stays sequential, and each worker writes only its
// own groups' row slots, so the finished Matrix — Triplets, Rows,
// FirstDetection, GateEvals, PatternsSimulated — is bit-identical for
// every Parallelism value, including the serial value 1.
// The dmatrix tests assert this equivalence on benchmark circuits.
package dmatrix

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tpg"
)

// Options controls matrix construction. Cancellation is not an option:
// Build and Grade take their context as a parameter.
type Options struct {
	// Cycles is the evolution length T applied to every triplet. It must be
	// at least 1 (T = 1 reproduces the raw ATPG test set).
	Cycles int
	// Seed drives Build's random θ selection.
	Seed int64
	// Parallelism is the number of goroutines fault-simulating groups of
	// triplets concurrently. 1 forces the serial path; 0 (and any negative value)
	// means one worker per available processor. The matrix is bit-identical
	// for any value — see the package documentation.
	Parallelism int
}

// Matrix is the Detection Matrix together with the triplets that generated
// it.
type Matrix struct {
	Triplets  []tpg.Triplet
	NumFaults int
	// Rows[i] is the set of fault indices detected by triplet i's test set.
	Rows []*bitvec.Set
	// FirstDetection records, for every triplet i and fault j, the earliest
	// pattern index (0..Cycles-1) at which i detects j: At(i, j), or -1.
	// It costs one byte per matrix cell for T ≤ 255, two up to 65 535 and
	// four beyond.
	FirstDetection FirstTable
	// Stats
	GateEvals         int64 // fault-simulation effort
	PatternsSimulated int
	TripletSims       int // number of triplet test-set fault simulations
}

// Build draws the candidate triplets of the patterns — δ_i = p_i, θ_i from
// opts.Seed in pattern order, T = opts.Cycles — and grades them. faults is
// the target list F (typically the ATPG-detected faults); patterns is
// ATPGTS. ctx cancels the build as it cancels Grade.
func Build(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, patterns []bitvec.Vector,
	gen tpg.Generator, opts Options) (*Matrix, error) {

	rng := rand.New(rand.NewSource(opts.Seed))
	triplets := make([]tpg.Triplet, len(patterns))
	for i, p := range patterns {
		triplets[i] = tpg.Triplet{Delta: p.Clone(), Theta: gen.RandomTheta(rng), Cycles: opts.Cycles}
	}
	return Grade(ctx, c, faults, triplets, gen, opts)
}

// Grade fault-simulates the given triplets on the generator against faults
// and returns their matrix, whose Triplets is the given slice. Every
// triplet's Cycles must equal opts.Cycles, the packing unit; opts.Seed is
// not used. The generator's width must equal the circuit's input count.
//
// ctx, which must not be nil, cancels the grading: it is checked before
// each group is expanded and simulated. A cancelled grading returns the
// context's error — there is no partial matrix. The fsim span that
// carries the simulation totals opens on ctx.
func Grade(ctx context.Context, c *netlist.Circuit, faults []fault.Fault, triplets []tpg.Triplet,
	gen tpg.Generator, opts Options) (*Matrix, error) {

	if opts.Cycles < 1 {
		return nil, fmt.Errorf("dmatrix: Cycles must be >= 1, got %d", opts.Cycles)
	}
	if gen.Width() != len(c.Inputs) {
		return nil, fmt.Errorf("dmatrix: generator width %d != circuit inputs %d",
			gen.Width(), len(c.Inputs))
	}
	if !c.Finalized() || !c.IsCombinational() {
		return nil, fmt.Errorf("dmatrix: circuit %q must be finalized and combinational", c.Name)
	}

	for i, t := range triplets {
		if t.Cycles != opts.Cycles {
			return nil, fmt.Errorf("dmatrix: triplet %d has %d cycles, want %d", i, t.Cycles, opts.Cycles)
		}
	}

	// Fault-simulate the groups in parallel, each worker expanding the
	// test sets of its own group first. Each group's rows and effort land
	// at its own indices and are folded serially afterwards, so the matrix
	// and its statistics are independent of scheduling.
	m := &Matrix{NumFaults: len(faults), Triplets: triplets}
	per := max(1, 64/opts.Cycles) // triplets per lane
	span := fsim.Lanes * per      // triplets per group
	groups := (len(triplets) + span - 1) / span
	workers := parallel.Clamp(parallel.Degree(opts.Parallelism), groups)
	v := netlist.NewView(c)
	targets := fsim.NewTargets(v, faults)
	m.Rows = make([]*bitvec.Set, len(triplets))
	m.FirstDetection = NewFirstTable(len(triplets), len(faults), opts.Cycles)
	// One fsim span covers the whole phase and carries its totals.
	fctx, fsp := obs.StartSpan(ctx, "fsim")
	defer fsp.End()
	fsp.SetInt("rows", int64(len(triplets)))
	packers := make([]*packer, workers)
	stats := make([]packStats, groups)
	var genMu sync.Mutex // gen is stateful: one expansion at a time
	err := parallel.ForEach(workers, groups, func(worker, k int) error {
		if err := fctx.Err(); err != nil {
			return fmt.Errorf("dmatrix: %w", err)
		}
		w := packers[worker]
		if w == nil {
			w = &packer{
				sim:   fsim.NewForView(v),
				live:  make([]uint8, len(faults)),
				masks: make([][4]uint64, len(faults)),
			}
			packers[worker] = w
		}
		lo, hi := k*span, min((k+1)*span, len(triplets))
		genMu.Lock()
		err := w.expand(gen, triplets, lo, hi)
		genMu.Unlock()
		if err != nil {
			return err
		}
		if stats[k], err = w.fill(m, targets, lo, hi, per, opts.Cycles); err != nil {
			return fmt.Errorf("dmatrix: triplets %d-%d: %w", lo, hi-1, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var stems, blocks int64
	for _, st := range stats {
		m.GateEvals += st.GateEvals
		stems += st.Stems
		blocks += int64(st.blocks)
		m.PatternsSimulated += st.patterns
	}
	m.TripletSims = len(triplets)
	fsp.SetInt("gate_evals", m.GateEvals)
	fsp.SetInt("patterns_applied", int64(m.PatternsSimulated))
	fsp.SetInt("stems", stems)
	fsp.SetInt("blocks", blocks)
	return m, nil
}

// packer is one worker's simulator and buffers.
type packer struct {
	sim      *fsim.Simulator
	testSets [][]bitvec.Vector // the current group's, by triplet from lo
	lanes    [fsim.Lanes][]bitvec.Vector
	live     []uint8 // per fault, the lanes whose triplets have not detected it
	masks    [][4]uint64
}

// expand fills w.testSets with the test sets of triplets lo..hi-1.
func (w *packer) expand(gen tpg.Generator, triplets []tpg.Triplet, lo, hi int) error {
	w.testSets = w.testSets[:0]
	for i := lo; i < hi; i++ {
		ts, err := tpg.Expand(gen, triplets[i])
		if err != nil {
			return fmt.Errorf("dmatrix: triplet %d: %w", i, err)
		}
		w.testSets = append(w.testSets, ts)
	}
	return nil
}

// packStats is the work one group took.
type packStats struct {
	fsim.Effort
	blocks   int // 64-pattern lanes simulated
	patterns int // summed over the group's triplets
}

// fill simulates the group of triplets lo..hi-1, whose test sets expand
// put in w.testSets, per of them to a lane, and writes their rows and first
// detections into m.
func (w *packer) fill(m *Matrix, t *fsim.Targets, lo, hi, per, cycles int) (packStats, error) {
	for i := lo; i < hi; i++ {
		m.Rows[i] = bitvec.NewSet(len(w.live))
	}
	open := uint8(1)<<((hi-lo+per-1)/per) - 1 // lanes in use
	for fi := range w.live {
		w.live[fi] = open
	}
	var st packStats
	// Each lane holds width patterns of its triplets per pass: all T of
	// them when T <= 64, so the group is one pass.
	for base := 0; base < cycles && open != 0; base += 64 {
		width := min(64, cycles-base)
		for l := range w.lanes {
			w.lanes[l] = w.lanes[l][:0]
			if open>>l&1 == 0 {
				continue
			}
			for i := lo + l*per; i < min(lo+(l+1)*per, hi); i++ {
				w.lanes[l] = append(w.lanes[l], w.testSets[i-lo][base:base+width]...)
			}
			st.blocks++
			st.patterns += len(w.lanes[l])
		}
		e, err := w.sim.Detect(t, w.lanes[:], w.live, w.masks)
		if err != nil {
			return packStats{}, err
		}
		st.GateEvals += e.GateEvals
		st.Stems += e.Stems
		switch c := m.FirstDetection.cells.(type) {
		case []uint8:
			open = record(c, m, w, lo, per, width, base)
		case []uint16:
			open = record(c, m, w, lo, per, width, base)
		default:
			open = record(c.([]int32), m, w, lo, per, width, base)
		}
	}
	return st, nil
}

// record writes one pass's detections of a group into m: lane l of the
// pass holds per triplets from lo+l·per on, each in a field of width
// patterns starting at pattern base of its test set. A fault detected in
// a lane leaves the lane's live set; the returned mask has a bit for
// every lane that still has a live fault it did not detect.
func record[E cell](cells []E, m *Matrix, w *packer, lo, per, width, base int) (open uint8) {
	field := ^uint64(0) >> (64 - width)
	for fi := range w.masks {
		for l, mask := range w.masks[fi] {
			if w.live[fi]>>l&1 == 0 {
				continue
			}
			if mask == 0 {
				open |= 1 << l
				continue
			}
			// Detected in this pass: the lane's later segments, which
			// only a lane of one triplet has, no longer need the fault.
			w.live[fi] &^= 1 << l
			first := lo + l*per
			for mask != 0 {
				j := bits.TrailingZeros64(mask) / width
				m.Rows[first+j].Add(fi)
				cells[(first+j)*m.NumFaults+fi] = E(base + bits.TrailingZeros64(mask>>(j*width)) + 1)
				mask &^= field << (j * width)
			}
		}
	}
	return open
}

// NumTriplets returns the number of rows.
func (m *Matrix) NumTriplets() int { return len(m.Triplets) }

// CoversAll reports whether the union of all rows covers every fault. It
// holds by construction when faults is exactly the set detected by the
// source ATPG patterns and Cycles >= 1.
func (m *Matrix) CoversAll() bool {
	u := bitvec.NewSet(m.NumFaults)
	for _, r := range m.Rows {
		u.Or(r)
	}
	return u.Len() == m.NumFaults
}

// UncoveredFaults returns fault indices no triplet detects.
func (m *Matrix) UncoveredFaults() []int {
	u := bitvec.NewSet(m.NumFaults)
	u.Fill()
	for _, r := range m.Rows {
		u.AndNot(r)
	}
	return u.Elements()
}

// Density returns the fraction of 1-cells in the matrix.
func (m *Matrix) Density() float64 {
	if len(m.Rows) == 0 || m.NumFaults == 0 {
		return 0
	}
	ones := 0
	for _, r := range m.Rows {
		ones += r.Len()
	}
	return float64(ones) / float64(len(m.Rows)*m.NumFaults)
}

// EffectiveLength returns the trimmed test length of triplet i when it is
// responsible for the given faults: one past the latest first-detection
// index among them (the paper deletes the trailing patterns that contribute
// nothing). It falls back to the full cycle count when the fault set is
// empty.
func (m *Matrix) EffectiveLength(i int, responsibleFaults []int) int {
	if last := m.FirstDetection.latest(i, responsibleFaults); last > 0 {
		return last
	}
	return m.Triplets[i].Cycles
}

// RowLength returns the trimmed test length of triplet i when it is
// responsible for every fault it detects, EffectiveLength(i,
// m.Rows[i].Elements()), read off the first-detection table without
// listing the row.
func (m *Matrix) RowLength(i int) int {
	if last := m.FirstDetection.rowLatest(i); last > 0 {
		return last
	}
	return m.Triplets[i].Cycles
}
