package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// Request is a serializable reseeding query: every field is a plain value,
// so a Request can arrive as JSON over a wire, sit in a queue, or be
// replayed from a log. Exactly one of Circuit and Bench identifies the
// unit under test.
type Request struct {
	// Circuit names a built-in benchmark circuit (full-scan view), e.g.
	// "s1238". Mutually exclusive with Bench.
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline netlist in .bench format. Sequential netlists are
	// converted to their full-scan combinational view automatically. The
	// circuit is content-addressed: equal sources share cached artifacts.
	Bench string `json:"bench,omitempty"`
	// TPG selects the generator kind: "adder", "subtracter", "multiplier"
	// or "lfsr". The width is taken from the circuit. Required.
	TPG string `json:"tpg"`
	// Cycles is the evolution length T per candidate triplet
	// (default core.DefaultCycles).
	Cycles int `json:"cycles,omitempty"`
	// Seed drives the random θ selection of the Detection Matrix build.
	Seed int64 `json:"seed,omitempty"`
	// ATPGSeed overrides the engine-wide ATPG seed (0 keeps the engine
	// default). It is part of the flow cache key.
	ATPGSeed int64 `json:"atpg_seed,omitempty"`
	// Solver selects the covering strategy: "" or "exact" (default),
	// "greedy", "greedy-noreduce".
	Solver string `json:"solver,omitempty"`
	// Objective selects the minimized quantity: "" or "triplets"
	// (default), "testlength".
	Objective string `json:"objective,omitempty"`
	// NoTrim keeps every selected triplet at full length.
	NoTrim bool `json:"no_trim,omitempty"`
	// Parallelism overrides the engine's worker-pool degree for this
	// request (0 keeps the engine default). Never part of a cache key: the
	// determinism guarantee makes results bit-identical for every value.
	Parallelism int `json:"parallelism,omitempty"`
	// MaxNodes bounds the exact covering search (0 = solver default).
	MaxNodes int64 `json:"max_nodes,omitempty"`
	// SolveBudget bounds the exact covering solve's wall-clock time
	// (anytime contract; serialized as integer nanoseconds).
	SolveBudget time.Duration `json:"solve_budget,omitempty"`
	// Bound selects the exact solver's lower bound: "" or "auto"
	// (Lagrangian, the default), "lagrangian", "counting". Never part of a
	// cache key: completed solves return bit-identical covers in every
	// mode — the bound only changes how much tree is searched.
	Bound string `json:"bound,omitempty"`
	// AscentIters overrides the root subgradient budget of the Lagrangian
	// bound (0 = solver default, negative = warm start only). Ignored for
	// Bound "counting".
	AscentIters int `json:"ascent_iters,omitempty"`
}

// CircuitInfo describes the resolved unit under test of a Response.
type CircuitInfo struct {
	Name    string `json:"name"`
	Key     string `json:"key"` // flow cache key (observability)
	Inputs  int    `json:"inputs"`
	Outputs int    `json:"outputs"`
	Gates   int    `json:"gates"`
}

// ATPGInfo summarizes the prepared test-generation artifacts of a
// Response.
type ATPGInfo struct {
	Patterns     int     `json:"patterns"`
	TargetFaults int     `json:"target_faults"`
	Coverage     float64 `json:"coverage"`
	Untestable   int     `json:"untestable"`
	Aborted      int     `json:"aborted"`
}

// Response carries the outcome of Engine.Solve. It serializes to JSON
// (core.Solution has a stable JSON form), so a Response can travel back
// over the wire the Request arrived on.
type Response struct {
	Solution *core.Solution `json:"solution"`
	Circuit  CircuitInfo    `json:"circuit"`
	ATPG     ATPGInfo       `json:"atpg"`
	// PrepareCached / MatrixCached report whether the artifact came from
	// the cache or a shared in-flight computation (true) rather than being
	// computed by this request (false).
	PrepareCached bool `json:"prepare_cached"`
	MatrixCached  bool `json:"matrix_cached"`
	// Interrupted reports that the request's context was cancelled and the
	// Solution is the exact covering solver's best-so-far (Optimal is
	// false). It is never set for greedy solvers, which run to completion
	// regardless of the context. A request cancelled before any solution
	// existed returns an error instead.
	Interrupted bool `json:"interrupted,omitempty"`
	// Timing is the per-phase breakdown of this solve: the subtree of
	// spans under the solve's root span (prepare/atpg, matrix/fsim,
	// reduce, ascent, branch-and-bound), as recorded on the obs.Trace the
	// request's context carried. It is nil when the context carried no
	// trace — tracing is strictly additive and never part of the solve's
	// result, its cache keys, or any persisted artifact.
	Timing *obs.TraceData `json:"timing,omitempty"`
}

// RouteKey returns a Request's circuit identity ("bench:<name>" or
// "inline:<sha256>") — the shard key a routing layer consistent-hashes so
// every request for one circuit lands on the replica already holding its
// warm artifacts. It is "" for a request with no usable circuit identity
// (invalid; a router should send it to any replica and let the replica's
// validation reject it).
func RouteKey(req Request) string {
	switch {
	case req.Circuit != "" && req.Bench == "":
		return "bench:" + req.Circuit
	case req.Bench != "" && req.Circuit == "":
		return inlineID(req.Bench)
	}
	return ""
}

// circuitRef resolves a Request's circuit identity without doing any work:
// the id is the cache-key component, load constructs the circuit on a
// cache miss.
func (e *Engine) circuitRef(req Request) (id string, load func() (*netlist.Circuit, error), err error) {
	switch {
	case req.Circuit != "" && req.Bench != "":
		return "", nil, badField("request",
			"both a benchmark circuit (%q) and an inline bench source given; they are mutually exclusive", req.Circuit)
	case req.Circuit != "":
		name := req.Circuit
		return "bench:" + name, func() (*netlist.Circuit, error) { return bench.ScanView(name) }, nil
	case req.Bench != "":
		id := inlineID(req.Bench)
		src := req.Bench
		name := "inline-" + id[len("inline:"):len("inline:")+8]
		return id, func() (*netlist.Circuit, error) {
			c, err := netlist.Parse(name, strings.NewReader(src))
			if err != nil {
				// An unparseable inline source is the client's fault, not
				// the solve's: type it so the HTTP layer maps it to 400.
				return nil, badField("bench", "%v", err)
			}
			if !c.IsCombinational() {
				return c.FullScan()
			}
			return c, nil
		}, nil
	default:
		return "", nil, badField("request",
			"neither a benchmark circuit name nor an inline bench source given")
	}
}

// coreOptions maps the request's serialized solver knobs onto core.Options.
func (req Request) coreOptions() (core.Options, error) {
	opts := core.Options{
		Cycles:      req.Cycles,
		Seed:        req.Seed,
		NoTrim:      req.NoTrim,
		Parallelism: req.Parallelism,
	}
	switch req.Solver {
	case "", "exact":
		opts.Solver = core.SolverExact
	case "greedy":
		opts.Solver = core.SolverGreedy
	case "greedy-noreduce":
		opts.Solver = core.SolverGreedyNoReduce
	default:
		return opts, fmt.Errorf("engine: unknown solver %q", req.Solver)
	}
	switch req.Objective {
	case "", "triplets":
		opts.Objective = core.MinimizeTriplets
	case "testlength":
		opts.Objective = core.MinimizeTestLength
	default:
		return opts, fmt.Errorf("engine: unknown objective %q", req.Objective)
	}
	switch req.Bound {
	case "", "auto":
		opts.Exact.Bound = setcover.BoundAuto
	case "lagrangian":
		opts.Exact.Bound = setcover.BoundLagrangian
	case "counting":
		opts.Exact.Bound = setcover.BoundCounting
	default:
		return opts, fmt.Errorf("engine: unknown bound %q", req.Bound)
	}
	opts.Exact.AscentIters = req.AscentIters
	opts.Exact.MaxNodes = req.MaxNodes
	opts.Exact.TimeBudget = req.SolveBudget
	return opts, nil
}

// atpgOptions derives the request's ATPG options from the engine defaults
// through the same mergeATPG every other path uses, so a logically
// identical request always lands on the same flow key. Parallelism rides
// along (it is not part of the key).
func (req Request) atpgOptions(e *Engine) atpg.Options {
	return e.mergeATPG(atpg.Options{Seed: req.ATPGSeed, Parallelism: req.Parallelism})
}

// Prepare warms the circuit artifacts a Request depends on (fault list and
// ATPG test set) without solving anything. The bool reports whether they
// were already cached. A later Solve for the same circuit skips the ATPG
// entirely.
func (e *Engine) Prepare(ctx context.Context, req Request) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if errs := req.validateCircuit(); len(errs) > 0 {
		return false, errors.Join(errs...)
	}
	id, load, err := e.circuitRef(req)
	if err != nil {
		return false, err
	}
	atpgOpts := req.atpgOptions(e)
	_, hit, err := e.flow(ctx, flowKeyFor(id, atpgOpts), atpgOpts, load)
	return hit, err
}

// Solve answers one reseeding query. It threads ctx through every phase —
// ATPG, matrix construction, covering solve — and serves the first two
// from the Engine's caches when possible. A ctx cancelled during the
// covering phase yields the solver's best-so-far with Optimal = false and
// Response.Interrupted set; a ctx cancelled before any solution exists
// returns the context's error. An invalid request fails Validate before
// any work starts (errors.As exposes the *RequestError details).
func (e *Engine) Solve(ctx context.Context, req Request) (*Response, error) {
	return e.SolveWithObserver(ctx, req, SolveObserver{})
}

// A SolveObserver bundles the anytime streams of one exact covering
// solve. Both callbacks run on solver goroutines and must return
// quickly without calling back into the Engine; either may be nil.
type SolveObserver struct {
	// OnIncumbent receives the greedy seed and every replacement of the
	// best cover found so far (costs never increase; the last describes
	// the returned cover), offset to whole-solution totals (essential
	// rows included).
	OnIncumbent func(Incumbent)
	// OnSample receives periodic search-progress samples (node count,
	// best cost, root lower bound) at a coarse, solver-chosen cadence —
	// the raw material of a bound-gap/nodes-per-second timeline. Sample
	// values are offset to whole-solution totals like incumbents.
	OnSample func(setcover.Sample)
}

// SolveWithObserver is Solve with anytime progress observers: when the
// covering phase runs the exact solver, watch receives the incumbent
// stream and periodic search-progress samples. A zero SolveObserver makes
// it exactly Solve.
func (e *Engine) SolveWithObserver(ctx context.Context, req Request, watch SolveObserver) (*Response, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	id, load, err := e.circuitRef(req)
	if err != nil {
		return nil, err
	}
	opts, err := req.coreOptions()
	if err != nil {
		return nil, err
	}
	opts.Exact.OnIncumbent = watch.OnIncumbent
	opts.Exact.OnSample = watch.OnSample
	sctx, sp := obs.StartSpan(ctx, "solve")
	defer sp.End()
	sp.SetStr("tpg", req.TPG)
	atpgOpts := req.atpgOptions(e)
	key := flowKeyFor(id, atpgOpts)
	flow, prepHit, err := e.flow(sctx, key, atpgOpts, load)
	if err != nil {
		return nil, err
	}
	sp.SetStr("circuit", flow.Circuit.Name)
	sol, matHit, err := e.solveKind(sctx, key, flow, req.TPG, opts)
	if err != nil {
		return nil, err
	}
	// Only the exact covering path is anytime (greedy solves ignore the
	// context and are non-optimal by construction), so only there does a
	// cancelled context mean "this result was cut short".
	exactPath := opts.Objective == core.MinimizeTestLength || opts.Solver == core.SolverExact
	resp := &Response{
		Solution: sol,
		Circuit: CircuitInfo{
			Name:    flow.Circuit.Name,
			Key:     shortKey(key),
			Inputs:  len(flow.Circuit.Inputs),
			Outputs: len(flow.Circuit.Outputs),
			Gates:   flow.Circuit.NumLogicGates(),
		},
		ATPG: ATPGInfo{
			Patterns:     len(flow.Patterns),
			TargetFaults: len(flow.TargetFaults),
			Coverage:     flow.ATPG.Coverage(),
			Untestable:   len(flow.ATPG.Untestable),
			Aborted:      len(flow.ATPG.Aborted),
		},
		PrepareCached: prepHit,
		MatrixCached:  matHit,
		Interrupted:   exactPath && ctx.Err() != nil && !sol.Optimal,
	}
	sp.End()
	if tr := obs.FromContext(ctx); tr != nil {
		resp.Timing = tr.Subtree(sp.ID())
	}
	return resp, nil
}
