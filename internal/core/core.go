// Package core implements the paper's reseeding computation flow (Fig. 1):
//
//	Initial Reseeding Builder  →  Matrix Reducer  →  exact covering solve
//
// Prepare runs the gate-level ATPG once to obtain the target fault list F
// and the deterministic test set ATPGTS. Solve then builds the Detection
// Matrix for a chosen test pattern generator and evolution length, reduces
// it by essentiality and dominance, solves the residual exactly, and
// assembles the final reseeding solution: the necessary triplets plus the
// minimum cover of the residual, with per-triplet test lengths trimmed of
// trailing patterns that contribute no coverage.
package core

import (
	"context"
	"fmt"

	"repro/internal/atpg"
	"repro/internal/bitvec"
	"repro/internal/dmatrix"
	"repro/internal/fault"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/tpg"
)

// SolverKind selects how the reduced matrix is post-processed.
type SolverKind int

const (
	// SolverExact reduces the matrix and solves the residual with branch
	// and bound (the paper's configuration, with the exact solver standing
	// in for LINGO).
	SolverExact SolverKind = iota
	// SolverGreedy reduces the matrix and covers the residual greedily
	// (ablation: value of the exact solve).
	SolverGreedy
	// SolverGreedyNoReduce covers the raw matrix greedily with no
	// reduction at all (ablation: value of essentiality/dominance).
	SolverGreedyNoReduce
	// Under MinimizeTestLength each of the three minimizes the weighted
	// cost: the weighted reduction, the weighted exact search, and the
	// weighted greedy.
)

func (k SolverKind) String() string {
	switch k {
	case SolverExact:
		return "exact"
	case SolverGreedy:
		return "greedy"
	case SolverGreedyNoReduce:
		return "greedy-noreduce"
	default:
		return fmt.Sprintf("SolverKind(%d)", int(k))
	}
}

// Objective selects what the covering minimizes.
type Objective int

const (
	// MinimizeTriplets minimizes the number of reseedings — the paper's
	// objective, directly proportional to ROM area.
	MinimizeTriplets Objective = iota
	// MinimizeTestLength minimizes the summed trimmed test lengths using
	// the weighted covering solver: each candidate is weighted by the
	// trimmed length it would contribute. This explores the other axis of
	// the paper's area/test-time trade-off.
	MinimizeTestLength
)

func (o Objective) String() string {
	switch o {
	case MinimizeTriplets:
		return "min-triplets"
	case MinimizeTestLength:
		return "min-testlength"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// DefaultCycles is the evolution length T used when Options.Cycles is zero.
const DefaultCycles = 32

// Options configures a Solve run.
type Options struct {
	// Cycles is the evolution length T applied to every candidate triplet
	// (default DefaultCycles). The paper tunes this experimentally per
	// circuit; the trade-off between T and the number of reseedings is
	// Figure 2.
	Cycles int
	// Seed drives θ selection.
	Seed int64
	// Solver selects the covering strategy (default SolverExact). Every
	// solver honours Objective: under MinimizeTestLength it minimizes the
	// summed test-length weights, and only SolverExact can prove the cover
	// optimal.
	Solver SolverKind
	// Objective selects the quantity minimized (default MinimizeTriplets).
	Objective Objective
	// NoTrim keeps every selected triplet at full length instead of
	// deleting the trailing patterns that add no coverage.
	NoTrim bool
	// Parallelism bounds the worker pools building the Detection Matrix and
	// exploring the covering solver's branch-and-bound tree. 1 forces the
	// serial path; 0 (and any negative value) means one worker per
	// available processor. Solutions whose exact solve completes within its
	// budgets are bit-identical for any value (see internal/dmatrix,
	// internal/fsim and internal/setcover for the guarantee; only the
	// SolverNodes effort counter is timing dependent). A budget-truncated
	// solve (Optimal = false) returns a timing-dependent best-so-far.
	Parallelism int
	// Exact tunes the branch-and-bound covering solver: node budget,
	// wall-clock budget and cancellation context (the anytime contract:
	// truncated solves yield the best cover found with Optimal = false),
	// and its own Parallelism. A zero Exact.Parallelism inherits the
	// Parallelism field above; a nil Exact.Context inherits Context below.
	Exact setcover.ExactOptions
	// Context, when non-nil, cancels a Solve end to end: the Detection
	// Matrix build aborts with the context's error, and the exact covering
	// solve turns anytime — it returns the best cover found so far with
	// Optimal = false (the setcover contract), so a Solve cancelled after
	// the matrix exists still yields a valid, if unproven, solution.
	Context context.Context
}

func (o Options) withDefaults() Options {
	if o.Cycles == 0 {
		o.Cycles = DefaultCycles
	}
	if o.Exact.Parallelism == 0 {
		o.Exact.Parallelism = o.Parallelism
	}
	if o.Exact.Context == nil {
		o.Exact.Context = o.Context
	}
	return o
}

// Flow holds the per-circuit artifacts shared by every generator and every
// evolution length: the collapsed fault list, the ATPG test set, and the
// target fault list F it detects.
type Flow struct {
	Circuit *netlist.Circuit
	// AllFaults is the collapsed stuck-at list of the circuit.
	AllFaults []fault.Fault
	// TargetFaults is F: the faults detected by the ATPG test set. The
	// reseeding solution guarantees detection of exactly this list.
	TargetFaults []fault.Fault
	// Patterns is ATPGTS, the compacted deterministic test set.
	Patterns []bitvec.Vector
	// ATPG is the full ATPG outcome (coverage, untestable faults, effort).
	ATPG *atpg.Result
}

// Prepare enumerates faults and runs the ATPG on the combinational circuit.
func Prepare(c *netlist.Circuit, opts atpg.Options) (*Flow, error) {
	all, _, err := fault.List(c)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	res, err := atpg.Run(c, all, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewFlow(c, all, res), nil
}

// NewFlow assembles a Flow from already-computed artifacts — the circuit,
// its collapsed fault list and a finished ATPG result — deriving the target
// fault list exactly as Prepare does. It is the re-entry point for persisted
// preparations (internal/store): a Flow rebuilt from parts behaves
// identically to the one Prepare computed, including the order of
// TargetFaults, which fixes the Detection Matrix's column order.
func NewFlow(c *netlist.Circuit, all []fault.Fault, res *atpg.Result) *Flow {
	f := &Flow{Circuit: c, AllFaults: all, ATPG: res, Patterns: res.Patterns}
	for _, fi := range res.DetectedFaults() {
		f.TargetFaults = append(f.TargetFaults, all[fi])
	}
	return f
}

// SelectedTriplet is one reseeding of the final solution.
type SelectedTriplet struct {
	tpg.Triplet
	// EffectiveCycles is the trimmed evolution length actually needed.
	EffectiveCycles int
	// Necessary reports whether the triplet was forced by essentiality
	// (as opposed to chosen by the covering solver).
	Necessary bool
	// AssignedFaults is the number of target faults this triplet is
	// responsible for in the final solution (its ΔFC contribution).
	AssignedFaults int
}

// Solution is a computed reseeding solution and the flow statistics the
// paper reports about it.
type Solution struct {
	Circuit   string
	Generator string
	Cycles    int // candidate evolution length T

	Triplets      []SelectedTriplet
	NumNecessary  int
	NumFromSolver int
	// TestLength is the paper's global test length: the sum of trimmed
	// per-triplet lengths.
	TestLength int
	// UniformLength is the alternative storage scheme the paper mentions:
	// all triplets run for the same T = max trimmed length.
	UniformLength int
	// ROMBits estimates storage: per triplet 2×width seed bits plus a
	// length counter wide enough for the longest trimmed run.
	ROMBits int

	// Matrix and reduction anatomy (the paper's Table 2).
	MatrixRows     int
	MatrixCols     int
	ResidualRows   int
	ResidualCols   int
	DominatedRows  int
	ImpliedCols    int
	ReductionIters int
	SolverNodes    int64
	// Optimal reports that the covering solve proved its cover minimum in
	// the weights the objective prices: the triplet count under
	// MinimizeTriplets, the summed row weights under MinimizeTestLength.
	// There a triplet weighs the length it needs to detect every fault of
	// its row, while assembly trims each selected triplet to the faults it
	// keeps, so Optimal proves nothing about TestLength: a heavier cover
	// may print a shorter one. On s820 (adder, T = 32, ATPG seed 1, θ seed
	// 2) the proven cover weighs 253 and prints test length 194; the
	// unreduced greedy cover weighs 282 and prints 183.
	Optimal bool
	// RootLB is the exact solver's root lower bound on the covering cost
	// of the whole solution (essential rows included): triplet count for
	// MinimizeTriplets, total weight for MinimizeTestLength. Cost-RootLB
	// bounds the optimality gap a truncated solve may have left open; 0
	// for greedy solves, which prove no bound.
	RootLB int

	// Effort counters.
	GateEvals   int64
	TripletSims int
}

// NumTriplets returns the solution cardinality (the paper's #Triplets).
func (s *Solution) NumTriplets() int { return len(s.Triplets) }

// Solve computes a reseeding solution for one generator and one evolution
// length. The generator's width must match the circuit's input count. It is
// BuildMatrix followed by SolveMatrix; callers that reuse one Detection
// Matrix across several solves (or cache it, as the reseeding Engine does)
// call the two halves directly.
func (f *Flow) Solve(gen tpg.Generator, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	m, err := f.BuildMatrix(gen, opts)
	if err != nil {
		return nil, err
	}
	return f.SolveMatrix(m, gen, opts)
}

// BuildMatrix constructs the Detection Matrix of this Flow for one
// generator and the evolution length in opts (first-detection indices are
// always recorded, so the matrix serves both objectives and trimming). The
// matrix depends only on the Flow's artifacts, the generator kind and
// width, opts.Cycles and opts.Seed — not on Parallelism, which is the
// basis on which the Engine caches it.
func (f *Flow) BuildMatrix(gen tpg.Generator, opts Options) (*dmatrix.Matrix, error) {
	opts = opts.withDefaults()
	if len(f.TargetFaults) == 0 {
		return nil, fmt.Errorf("core: %s: empty target fault list", f.Circuit.Name)
	}
	if len(f.Patterns) == 0 {
		return nil, fmt.Errorf("core: %s: empty ATPG test set", f.Circuit.Name)
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	m, err := dmatrix.Build(ctx, f.Circuit, f.TargetFaults, f.Patterns, gen, dmatrix.Options{
		Cycles:      opts.Cycles,
		Seed:        opts.Seed,
		Parallelism: opts.Parallelism,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if !m.CoversAll() {
		// Cannot happen when F comes from Prepare (δ_i = p_i guarantees
		// coverage); guard for callers passing custom fault lists.
		return nil, fmt.Errorf("core: %s: candidate triplets do not cover F (%d uncovered)",
			f.Circuit.Name, len(m.UncoveredFaults()))
	}
	return m, nil
}

// SolveMatrix reduces and solves a Detection Matrix previously built by
// BuildMatrix on this Flow and assembles the reseeding solution. The
// matrix is only read, never written, so one (possibly cached) matrix may
// serve any number of concurrent SolveMatrix calls. The evolution length
// is taken from the matrix itself; opts.Cycles is ignored here.
func (f *Flow) SolveMatrix(m *dmatrix.Matrix, gen tpg.Generator, opts Options) (*Solution, error) {
	opts = opts.withDefaults()
	if m.NumTriplets() > 0 {
		opts.Cycles = m.Triplets[0].Cycles
	}

	problem := setcover.NewProblem(m.NumFaults)
	for _, row := range m.Rows {
		problem.AddRow(row)
	}

	sol := &Solution{
		Circuit:     f.Circuit.Name,
		Generator:   gen.Name(),
		Cycles:      opts.Cycles,
		MatrixRows:  m.NumTriplets(),
		MatrixCols:  m.NumFaults,
		GateEvals:   m.GateEvals,
		TripletSims: m.TripletSims,
	}

	// The covering span wraps reduction plus the covering solve; the
	// solver's own ascent/bb spans nest under it via Exact.Context. A nil
	// span (no trace on the context) leaves the options untouched.
	cctx, csp := obs.StartSpan(opts.Context, "covering")
	defer csp.End()
	if csp != nil {
		opts.Exact.Context = cctx
	}

	var chosen []int
	necessary := map[int]bool{}
	var weights []int // nil: every triplet costs 1
	if opts.Objective == MinimizeTestLength {
		// Weight each candidate by the trimmed length it would contribute
		// if it had to cover everything it detects.
		weights = make([]int, m.NumTriplets())
		for i := range weights {
			weights[i] = m.RowLength(i)
		}
	}
	switch opts.Solver {
	case SolverGreedyNoReduce:
		var g setcover.Solution
		var err error
		if weights == nil {
			g, err = problem.SolveGreedy()
		} else {
			g, err = problem.SolveGreedyWeighted(weights)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		chosen = g.Rows
		sol.Optimal = false
		sol.ResidualRows = m.NumTriplets()
		sol.ResidualCols = m.NumFaults
	case SolverGreedy, SolverExact:
		_, rsp := obs.StartSpan(cctx, "reduce")
		var red *setcover.Reduction
		var err error
		if weights == nil {
			red = problem.Reduce()
		} else if red, err = problem.ReduceWeighted(weights); err != nil {
			rsp.End()
			return nil, fmt.Errorf("core: %w", err)
		}
		rsp.SetInt("cells", int64(m.NumTriplets())*int64(m.NumFaults))
		rsp.SetInt("iterations", int64(red.Iterations))
		rsp.SetInt("essential", int64(len(red.Essential)))
		rsp.SetInt("dominated_rows", int64(len(red.DominatedRows)))
		rsp.SetInt("implied_cols", int64(red.ImpliedCols))
		rsp.SetInt("residual_rows", int64(red.Residual.NumRows()))
		rsp.SetInt("residual_cols", int64(red.Residual.NumCols()))
		rsp.End()
		sol.ResidualRows = red.Residual.NumRows()
		sol.ResidualCols = red.Residual.NumCols()
		sol.DominatedRows = len(red.DominatedRows)
		sol.ImpliedCols = red.ImpliedCols
		sol.ReductionIters = red.Iterations
		var cover setcover.Solution
		if opts.Solver == SolverGreedy {
			cover, err = red.SolveGreedy()
		} else {
			cover, err = red.SolveExact(opts.Exact)
		}
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		sol.SolverNodes, sol.Optimal, sol.RootLB = cover.Nodes, cover.Optimal, cover.RootLB
		for _, r := range red.Essential {
			necessary[r] = true
		}
		chosen = cover.Rows
		if weights == nil {
			// The triplets objective lists the necessary triplets first,
			// then the solver's, each in row order; the test-length
			// objective lists every triplet in row order. assemble breaks
			// first-detection ties by list position, so the order fixes
			// each triplet's trimmed length.
			chosen = append([]int(nil), red.Essential...)
			for _, r := range cover.Rows {
				if !necessary[r] {
					chosen = append(chosen, r)
				}
			}
		}
	default:
		return nil, fmt.Errorf("core: unknown solver kind %d", int(opts.Solver))
	}
	coveringAttrs(csp, sol, len(necessary))
	return f.assemble(sol, m, chosen, necessary, opts)
}

// coveringAttrs annotates a covering span with the solve's anatomy (a
// nil span no-ops).
func coveringAttrs(csp *obs.Span, sol *Solution, essential int) {
	csp.SetInt("residual_rows", int64(sol.ResidualRows))
	csp.SetInt("residual_cols", int64(sol.ResidualCols))
	csp.SetInt("essential", int64(essential))
	csp.SetInt("nodes", sol.SolverNodes)
	csp.SetInt("optimal", b2i(sol.Optimal))
	csp.End()
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// assemble verifies the chosen rows, assigns faults, trims test lengths and
// fills the solution record.
func (f *Flow) assemble(sol *Solution, m *dmatrix.Matrix, chosen []int,
	necessary map[int]bool, opts Options) (*Solution, error) {

	// Assign each fault to the selected triplet that detects it earliest
	// (ties to the earlier position in chosen); the assignment defines each
	// triplet's ΔFC and its trimmed test length.
	assigned := make([][]int, len(chosen))
	for fi, ti := range m.FirstDetectors(chosen) {
		if ti < 0 {
			return nil, fmt.Errorf("core: internal error: fault %d uncovered by computed solution", fi)
		}
		assigned[ti] = append(assigned[ti], fi)
	}

	maxEff := 0
	for ti, row := range chosen {
		eff := opts.Cycles
		if !opts.NoTrim {
			eff = m.EffectiveLength(row, assigned[ti])
		}
		if eff > maxEff {
			maxEff = eff
		}
		sol.Triplets = append(sol.Triplets, SelectedTriplet{
			Triplet:         m.Triplets[row],
			EffectiveCycles: eff,
			Necessary:       necessary[row],
			AssignedFaults:  len(assigned[ti]),
		})
		sol.TestLength += eff
		if necessary[row] {
			sol.NumNecessary++
		} else {
			sol.NumFromSolver++
		}
	}
	sol.UniformLength = maxEff * len(chosen)
	sol.ROMBits = romBits(len(chosen), len(f.Circuit.Inputs), maxEff)
	return sol, nil
}

// romBits models triplet storage: per reseeding both seed values (δ and θ,
// width bits each) plus the actual cycle count, as the paper assumes.
func romBits(triplets, width, maxCycles int) int {
	counter := 1
	for 1<<uint(counter) <= maxCycles {
		counter++
	}
	return triplets * (2*width + counter)
}

// TradeoffPoint is one sample of the reseedings-vs-test-length curve
// (Figure 2 of the paper).
type TradeoffPoint struct {
	Cycles     int // candidate evolution length T
	Triplets   int // solution cardinality
	TestLength int // trimmed global test length
}

// Tradeoff computes the Figure 2 curve: the covering solution for each
// candidate evolution length in cyclesList. The ATPG work is shared; the
// matrix is rebuilt per point with the same seed so curves are comparable.
func (f *Flow) Tradeoff(gen tpg.Generator, cyclesList []int, opts Options) ([]TradeoffPoint, error) {
	var out []TradeoffPoint
	for _, t := range cyclesList {
		o := opts
		o.Cycles = t
		sol, err := f.Solve(gen, o)
		if err != nil {
			return nil, fmt.Errorf("core: tradeoff at T=%d: %w", t, err)
		}
		out = append(out, TradeoffPoint{
			Cycles:     t,
			Triplets:   sol.NumTriplets(),
			TestLength: sol.TestLength,
		})
	}
	return out, nil
}
