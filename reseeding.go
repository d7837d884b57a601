// Package reseeding computes minimal reseeding solutions for Functional
// BIST test pattern generators by casting triplet selection as a unate set
// covering problem, reproducing "On Applying the Set Covering Model to
// Reseeding" (Chiusano, Di Carlo, Prinetto, Wunderlich — DATE 2001).
//
// A unit under test (UUT) is a combinational gate-level circuit (sequential
// circuits are handled through their full-scan view). A test pattern
// generator (TPG) is an existing functional module — an adder, subtracter or
// multiplier accumulator, or an LFSR — that applies its state register to
// the UUT inputs every clock cycle. A triplet (δ, θ, T) seeds the TPG and
// lets it run for T cycles; a reseeding solution is a set of triplets whose
// united test sets detect every target stuck-at fault.
//
// The flow is:
//
//	eng := reseeding.NewEngine(reseeding.EngineOptions{})
//	scan, _ := reseeding.ScanView("s1238")        // benchmark UUT
//	flow, _, _ := eng.PrepareCircuit(ctx, scan, reseeding.ATPGOptions{Seed: 1})
//	gen, _ := reseeding.NewTPG("adder", len(scan.Inputs))
//	sol, _ := flow.Solve(gen, reseeding.Options{Cycles: 64, Seed: 2})
//	fmt.Println(sol.NumTriplets(), sol.TestLength)
//
// PrepareCircuit runs the built-in ATPG once per circuit; Solve builds the
// Detection Matrix for one generator, reduces it by essentiality and
// dominance, and solves the residual covering problem exactly.
//
// # The Engine (v2 API)
//
// Services answering many reseeding queries keep one long-lived Engine.
// An Engine memoizes prepared flows per circuit and Detection Matrices per (circuit, generator kind,
// evolution length, seed), deduplicates concurrent identical requests
// (singleflight: N goroutines asking for the same circuit run exactly one
// ATPG), and answers plain, JSON-serializable Requests:
//
//	eng := reseeding.NewEngine(reseeding.EngineOptions{})
//	resp, _ := eng.Solve(ctx, reseeding.Request{
//	        Circuit: "s1238", TPG: "adder", Cycles: 64, Seed: 2,
//	})
//	fmt.Println(resp.Solution.NumTriplets(), resp.MatrixCached)
//
// The context threads through every phase — ATPG fault simulation, matrix
// row batches, and the exact covering solve — so cancellation and
// deadlines propagate end to end: a Solve cancelled during the covering
// phase returns the best cover found so far (Optimal = false,
// Response.Interrupted = true), one cancelled earlier returns the
// context's error. See internal/engine for the cache keying and
// invalidation rules.
//
// Flow.Solve is cache-free; pair it with Engine.SolveFlow to run
// caller-defined generators with engine cancellation.
//
// # Parallelism
//
// The hot paths of Solve — grading every candidate (δ, θ, T) triplet
// against the fault list, and the exact covering solve of the reduced
// matrix — run on a bounded worker pool. ATPGOptions.Parallelism controls
// the PODEM search workers inside PrepareCircuit, and Options.Parallelism
// controls both the Detection Matrix build and the covering solver's
// branch-and-bound fan-out inside Solve; in all of them, 1 forces the
// serial path and 0 (the zero value) uses one worker per available
// processor. Parallel runs are guaranteed bit-identical to serial runs —
// see internal/atpg, internal/dmatrix and internal/setcover for the
// determinism contract and the tests that enforce it. (The solution is
// covered by the guarantee; the SolverNodes effort counter, like
// wall-clock time, is not, and neither is the best-so-far of a
// budget-truncated solve, which reports Optimal = false.)
//
// # Anytime solving
//
// The exact covering solve honors a budget through Options.Exact
// (ExactOptions): a node budget (MaxNodes), a wall-clock budget
// (TimeBudget), or a cancellation Context. A truncated solve is not an
// error — it returns the best cover found so far, never worse than the
// greedy incumbent, with Solution.Optimal = false.
package reseeding

import (
	"context"
	"io"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gatsby"
	"repro/internal/logicsim"
	"repro/internal/netlist"
	"repro/internal/setcover"
	"repro/internal/store"
	"repro/internal/tpg"
	"repro/internal/tpggen"
)

// Circuit is a gate-level netlist. Construct one with ParseBench, the
// builder methods, or a named benchmark via OpenBenchmark/ScanView.
type Circuit = netlist.Circuit

// Gate is one node of a Circuit.
type Gate = netlist.Gate

// Fault is a single stuck-at fault on a circuit line.
type Fault = fault.Fault

// Generator is a functional module used as a test pattern generator.
type Generator = tpg.Generator

// Triplet is one reseeding: state seed δ, input value θ, evolution length T.
type Triplet = tpg.Triplet

// Flow carries the per-circuit artifacts (fault list, ATPG test set) shared
// by every generator and evolution length.
type Flow = core.Flow

// Solution is a computed reseeding solution with its covering statistics.
type Solution = core.Solution

// SelectedTriplet is one reseeding of a Solution.
type SelectedTriplet = core.SelectedTriplet

// Options configures Flow.Solve.
type Options = core.Options

// ExactOptions tunes the exact covering solver reachable through
// Options.Exact: node budget, wall-clock budget and cancellation context
// (the anytime contract), the branch-and-bound worker-pool fan-out, and
// the lower-bound mode (BoundMode).
type ExactOptions = setcover.ExactOptions

// BoundMode selects the exact solver's lower bound (ExactOptions.Bound).
// Completed solves return bit-identical covers in every mode; only the
// searched node count and wall time differ.
type BoundMode = setcover.BoundMode

// The bound modes: the default Lagrangian dual bound (BoundAuto) and the
// counting baseline (BoundCounting).
const (
	BoundAuto     = setcover.BoundAuto
	BoundCounting = setcover.BoundCounting
)

// ATPGOptions configures the deterministic test generation step.
type ATPGOptions = atpg.Options

// ATPGResult reports the outcome of test generation.
type ATPGResult = atpg.Result

// TradeoffPoint is one sample of the reseedings-vs-test-length curve.
type TradeoffPoint = core.TradeoffPoint

// GatsbyConfig tunes the genetic-algorithm baseline.
type GatsbyConfig = gatsby.Config

// GatsbyResult is a baseline reseeding solution.
type GatsbyResult = gatsby.Result

// Solver kinds for Options.Solver.
const (
	SolverExact          = core.SolverExact
	SolverGreedy         = core.SolverGreedy
	SolverGreedyNoReduce = core.SolverGreedyNoReduce
)

// Objectives for Options.Objective.
const (
	// MinimizeTriplets minimizes the reseeding count (ROM area), the
	// paper's objective.
	MinimizeTriplets = core.MinimizeTriplets
	// MinimizeTestLength minimizes the summed trimmed test lengths via
	// weighted covering.
	MinimizeTestLength = core.MinimizeTestLength
)

// ErrGatsbyTooLarge reports that the baseline's simulation budget rejects
// the circuit (the paper's "-" entries for s13207 and s15850).
var ErrGatsbyTooLarge = gatsby.ErrTooLarge

// ParseBench reads a circuit in the ISCAS ".bench" text format and returns
// it finalized.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	return netlist.Parse(name, r)
}

// FormatBench renders a circuit in ".bench" format.
func FormatBench(c *Circuit) string { return netlist.Format(c) }

// Benchmarks lists the built-in benchmark circuit names (synthetic stand-ins
// for the ISCAS'85/'89 suite; the internal/bench package doc gives the
// substitution rationale).
func Benchmarks() []string { return bench.List() }

// OpenBenchmark generates the named benchmark circuit. Sequential circuits
// keep their flip-flops; use ScanView for the combinational test view.
func OpenBenchmark(name string) (*Circuit, error) { return bench.Named(name) }

// ScanView generates the named benchmark in full-scan combinational form,
// the shape consumed by Engine.PrepareCircuit.
func ScanView(name string) (*Circuit, error) { return bench.ScanView(name) }

// Faults returns the collapsed stuck-at fault list of a combinational
// circuit. Use FaultsWithStats to also obtain the collapsing statistics.
func Faults(c *Circuit) ([]Fault, error) {
	list, _, err := fault.List(c)
	return list, err
}

// FaultStats reports the effect of structural equivalence collapsing:
// total faults before collapsing, representatives kept, class count and
// the largest class.
type FaultStats = fault.CollapseStats

// FaultsWithStats returns the collapsed stuck-at fault list of a
// combinational circuit together with the collapsing statistics that
// Faults discards.
func FaultsWithStats(c *Circuit) ([]Fault, FaultStats, error) {
	return fault.List(c)
}

// NewTPG constructs a generator by kind: "adder", "subtracter",
// "multiplier", or "lfsr". Width must equal the UUT's input count.
func NewTPG(kind string, width int) (Generator, error) { return tpg.ByName(kind, width) }

// TPGKinds lists the generator kinds accepted by NewTPG.
func TPGKinds() []string { return tpg.Kinds() }

// Engine is the long-lived, concurrency-safe front door of the reseeding
// flow: it memoizes prepared flows and Detection Matrices with
// singleflight deduplication and answers serializable Requests. See
// internal/engine for the cache keying and invalidation rules.
type Engine = engine.Engine

// EngineOptions configures NewEngine: the default worker-pool degree, the
// artifact cache bounds and the optional persistent store. Cancellation is
// not an option: the Engine's preparing and solving methods take a context.
type EngineOptions = engine.Options

// EngineStats is a snapshot of an Engine's cache counters.
type EngineStats = engine.Stats

// Request is one serializable reseeding query answered by Engine.Solve:
// circuit name or inline .bench source, TPG kind, cycles, seeds, solver,
// objective and budgets, all plain JSON-taggable values. Request.Validate
// checks it without solving; violations are typed *RequestError values.
type Request = engine.Request

// RequestError explains one way a Request is invalid (which field, and
// why). Engine.Solve returns these — possibly several, joined — for
// malformed requests; unwrap with errors.As. cmd/reseed and the HTTP
// server's 400 mapping share this type.
type RequestError = engine.RequestError

// Incumbent is one anytime progress snapshot of an exact covering solve:
// the best cover known so far. Engine.SolveWithObserver delivers these
// while a long solve runs — the heartbeat of the reseedd job API.
type Incumbent = engine.Incumbent

// ArtifactStore is the Engine's optional second-level artifact cache:
// persistence of ATPG preparations and Detection Matrices across process
// restarts. Set EngineOptions.Store to enable it; OpenStore returns the
// on-disk implementation.
type ArtifactStore = engine.ArtifactStore

// Store is the on-disk ArtifactStore: content-addressed JSON records under
// one root directory, written atomically. See internal/store for the
// layout and encodings.
type Store = store.Store

// OpenStore opens the on-disk artifact store rooted at dir, creating the
// directory tree as needed.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Response is the serializable outcome of Engine.Solve: the Solution plus
// the resolved circuit, the ATPG summary and cache observability fields.
type Response = engine.Response

// NewEngine returns an Engine with the given defaults.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// RunGatsby runs the genetic-algorithm baseline on the same target fault
// list a Flow would use, for comparison tables. ctx, which must not be
// nil, cancels the search; a cancelled run returns the context's error.
func RunGatsby(ctx context.Context, c *Circuit, faults []Fault, gen Generator, cfg GatsbyConfig) (*GatsbyResult, error) {
	return gatsby.Run(ctx, c, faults, gen, cfg)
}

// CoverProblem exposes the generic unate covering engine (rows cover
// columns) for uses beyond reseeding.
type CoverProblem = setcover.Problem

// NewCoverProblem returns an empty covering problem over numCols columns.
func NewCoverProblem(numCols int) *CoverProblem { return setcover.NewProblem(numCols) }

// SynthesizeTPG emits the named generator kind as a gate-level netlist: the
// BIST hardware corresponding to the behavioral Generator, with the state
// register as DFFs, θ as primary inputs, and the pattern as primary
// outputs. The netlist's cycle-by-cycle behaviour matches the behavioral
// model exactly (verified by the tpggen package tests).
func SynthesizeTPG(kind string, width int) (*Circuit, error) {
	return tpggen.FromKind(kind, width)
}

// SeqSimulator steps sequential circuits cycle by cycle (64 parallel
// streams), e.g. to run a synthesized TPG netlist.
type SeqSimulator = logicsim.SeqSimulator

// NewSequentialSimulator returns a cycle simulator for a finalized circuit.
func NewSequentialSimulator(c *Circuit) (*SeqSimulator, error) {
	return logicsim.NewSequential(c)
}

// ExperimentConfig drives the paper's evaluation tables.
type ExperimentConfig = experiments.Config

// CircuitResult aggregates one circuit's Table 1 / Table 2 data.
type CircuitResult = experiments.CircuitResult

// RunExperiments executes the Table 1 / Table 2 flow over the configured
// circuits; see cmd/tables for the presentation layer. ctx, which must not
// be nil, cancels the run: it returns the circuits completed before
// cancellation together with the context's error.
func RunExperiments(ctx context.Context, cfg ExperimentConfig) ([]*CircuitResult, error) {
	return experiments.Run(ctx, cfg)
}
