// Package experiments regenerates the paper's evaluation artifacts:
//
//   - Table 1 — final reseeding solutions (#Triplets, test length) per
//     circuit and per accumulator TPG, with the GATSBY baseline columns;
//   - Table 2 — set covering anatomy: initial Detection Matrix size, the
//     reduction's effect, and the split between necessary triplets and
//     triplets chosen by the exact solver;
//   - Figure 2 — the reseedings-vs-test-length trade-off on s1238 with an
//     adder-based accumulator.
//
// Results reproduce the paper's qualitative shape (who wins, where the
// covering approach's advantages come from), not its absolute numbers: the
// circuits here are the synthetic ISCAS-profile stand-ins described in the
// internal/bench package doc, and the substrate is this repository's own
// ATPG and fault simulator rather than TestGen on a SparcStation.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gatsby"
	"repro/internal/setcover"
	"repro/internal/tpg"
)

// TPGKinds are the three accumulator TPGs of the paper's evaluation.
var TPGKinds = []string{"adder", "multiplier", "subtracter"}

// Config tunes an experiment run.
type Config struct {
	// Circuits to include, in order; nil selects the paper's Table 1 list.
	Circuits []string
	// Cycles is the candidate evolution length T (default 64).
	Cycles int
	// Seed drives every stochastic component.
	Seed int64
	// WithGatsby enables the GA baseline columns (Table 1 only).
	WithGatsby bool
	// Gatsby tunes the baseline; its MaxFaults feasibility gate decides
	// which circuits get "-" entries as in the paper.
	Gatsby gatsby.Config
	// ATPG tunes the shared test generation step.
	ATPG atpg.Options
	// Parallelism bounds the worker pool used per solve for Detection
	// Matrix construction, the ATPG's PODEM search and the exact covering
	// solver's branch-and-bound fan-out. 1 forces serial; 0 means one
	// worker per available processor. A zero Parallelism inside ATPG
	// inherits this value; set it to a nonzero degree to control that
	// stage independently.
	Parallelism int
	// SolveBudget, when positive, bounds the wall-clock time of each exact
	// covering solve (the anytime contract): a truncated solve keeps the
	// best cover found so far and reports Optimal = false in Table 2.
	SolveBudget time.Duration
	// Context, when non-nil, cancels the run end to end: ATPG, matrix
	// construction and the GA baseline abort with the context's error,
	// while in-flight exact covering solves finish anytime-style
	// (best-so-far, Optimal = false). Run returns the circuits completed
	// before cancellation together with the error, so a driver can render
	// partial tables.
	Context context.Context
	// Engine, when non-nil, supplies the artifact cache the flow runs on:
	// ATPG preparations and Detection Matrices are shared across circuits,
	// TPG kinds and repeated calls (Figure2 after Run re-uses the s1238
	// preparation, for example). Nil uses a private engine per call.
	Engine *engine.Engine
}

func (c Config) withDefaults() Config {
	if c.Circuits == nil {
		c.Circuits = Table1Circuits()
	}
	if c.Cycles == 0 {
		c.Cycles = 64
	}
	if c.Engine == nil {
		c.Engine = engine.New(engine.Options{Parallelism: c.Parallelism})
	}
	return c
}

// Table1Circuits returns the circuits of the paper's Table 1, in its order.
func Table1Circuits() []string {
	return []string{
		"c499", "c880", "c1355", "c1908", "c7552",
		"s420", "s641", "s820", "s838", "s953",
		"s1238", "s1423", "s5378", "s9234", "s13207", "s15850",
	}
}

// TPGResult is one circuit × TPG cell of Table 1 / Table 2.
type TPGResult struct {
	Solution *core.Solution
	// Gatsby is nil when the baseline was not run; TooLarge reports the
	// paper's "circuit too large for GATSBY" case.
	Gatsby   *gatsby.Result
	TooLarge bool
}

// CircuitResult aggregates one benchmark circuit's experiments.
type CircuitResult struct {
	Circuit    string
	ScanInputs int
	Faults     int // |F|: ATPG-detected target faults
	Patterns   int // |ATPGTS|
	ByTPG      map[string]*TPGResult
}

// Run executes the flow for every configured circuit and TPG. It is the
// shared driver behind Table 1 and Table 2. When the configured Context is
// cancelled mid-run, Run returns the circuits completed so far together
// with the cancellation error.
func Run(cfg Config) ([]*CircuitResult, error) {
	cfg = cfg.withDefaults()
	var out []*CircuitResult
	for _, name := range cfg.Circuits {
		cr, err := RunCircuit(name, cfg)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out = append(out, cr)
	}
	return out, nil
}

// RunCircuit executes the flow for one circuit across all TPG kinds, on
// the configured Engine's artifact caches.
func RunCircuit(name string, cfg Config) (*CircuitResult, error) {
	cfg = cfg.withDefaults()
	ctx := cfg.Context
	atpgOpts := cfg.ATPG
	if atpgOpts.Seed == 0 {
		atpgOpts.Seed = cfg.Seed + 1
	}
	if atpgOpts.Parallelism == 0 {
		atpgOpts.Parallelism = cfg.Parallelism
	}
	flow, _, err := cfg.Engine.PrepareNamed(ctx, name, atpgOpts)
	if err != nil {
		return nil, err
	}
	scan := flow.Circuit
	cr := &CircuitResult{
		Circuit:    name,
		ScanInputs: len(scan.Inputs),
		Faults:     len(flow.TargetFaults),
		Patterns:   len(flow.Patterns),
		ByTPG:      make(map[string]*TPGResult),
	}
	for _, kind := range TPGKinds {
		sol, err := cfg.Engine.Run(ctx, name, kind, atpgOpts, core.Options{
			Cycles:      cfg.Cycles,
			Seed:        cfg.Seed + 2,
			Parallelism: cfg.Parallelism,
			Exact:       setcover.ExactOptions{TimeBudget: cfg.SolveBudget},
		})
		if err != nil {
			return nil, err
		}
		tr := &TPGResult{Solution: sol}
		if cfg.WithGatsby {
			gen, err := tpg.ByName(kind, len(scan.Inputs))
			if err != nil {
				return nil, err
			}
			gcfg := cfg.Gatsby
			gcfg.Seed = cfg.Seed + 3
			gcfg.Context = ctx
			if gcfg.Cycles == 0 {
				// Match the covering flow's evolution length so the
				// #Triplets comparison is apples to apples (Figure 2 shows
				// the count falls with T, so mismatched budgets would
				// decide the table, not the algorithms).
				gcfg.Cycles = cfg.Cycles
			}
			gres, err := gatsby.Run(scan, flow.TargetFaults, gen, gcfg)
			switch {
			case errors.Is(err, gatsby.ErrTooLarge):
				tr.TooLarge = true
			case err != nil:
				return nil, err
			default:
				tr.Gatsby = gres
			}
		}
		cr.ByTPG[kind] = tr
	}
	return cr, nil
}

// Figure2Point is one sample of the trade-off curve.
type Figure2Point = core.TradeoffPoint

// Figure2 computes the paper's Figure 2: the number of reseedings versus
// global test length for s1238 with an adder-based accumulator, swept over
// the candidate evolution length T.
func Figure2(cfg Config) ([]Figure2Point, error) {
	return Tradeoff("s1238", "adder", nil, cfg)
}

// Tradeoff computes a reseedings-vs-test-length curve for any circuit and
// TPG kind. A nil cyclesList selects a geometric sweep 1..1024. Each point
// is one Engine solve, so the preparation is shared with any earlier run
// on the same Engine and every point's matrix lands in the cache.
func Tradeoff(circuit, kind string, cyclesList []int, cfg Config) ([]Figure2Point, error) {
	cfg = cfg.withDefaults()
	if cyclesList == nil {
		cyclesList = []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	}
	atpgOpts := cfg.ATPG
	if atpgOpts.Seed == 0 {
		atpgOpts.Seed = cfg.Seed + 1
	}
	if atpgOpts.Parallelism == 0 {
		atpgOpts.Parallelism = cfg.Parallelism
	}
	var points []Figure2Point
	for _, t := range cyclesList {
		sol, err := cfg.Engine.Run(cfg.Context, circuit, kind, atpgOpts, core.Options{
			Cycles:      t,
			Seed:        cfg.Seed + 2,
			Parallelism: cfg.Parallelism,
			Exact:       setcover.ExactOptions{TimeBudget: cfg.SolveBudget},
		})
		if err != nil {
			return nil, fmt.Errorf("tradeoff at T=%d: %w", t, err)
		}
		points = append(points, Figure2Point{
			Cycles:     t,
			Triplets:   sol.NumTriplets(),
			TestLength: sol.TestLength,
		})
	}
	// Present the curve as the paper does: test length on the X axis,
	// reseedings on Y, sorted by test length.
	sort.Slice(points, func(a, b int) bool { return points[a].TestLength < points[b].TestLength })
	return points, nil
}
