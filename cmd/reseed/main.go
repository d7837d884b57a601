// Command reseed runs the set-covering reseeding flow end to end on a
// benchmark circuit (or a user .bench netlist) and prints the solution.
//
// Usage:
//
//	reseed -circuit s1238 -tpg adder -cycles 64
//	reseed -file mydesign.bench -tpg multiplier -cycles 128 -v
//	reseed -circuit s1238 -j 4        # bound the worker pool to 4 goroutines
//	reseed -circuit s1238 -solve-budget 2s   # anytime covering solve
//
// The command is a thin client of the reseeding Engine: the flags are
// packed into a single reseeding.Request and answered by Engine.Solve, and
// -json writes the Engine's full Response — the same JSON document the
// reseedd HTTP API answers for the same Request. An invalid request (the
// typed RequestError rejections shared with the HTTP 400 mapping) exits
// with status 2 before any work starts.
// SIGINT/SIGTERM cancel the request context; an interrupt during the
// covering solve prints the best solution found so far (optimal=false,
// the anytime contract) instead of dying mid-solve, while an interrupt
// before any solution exists exits with an error.
//
// PODEM search, Detection Matrix construction and the exact covering
// solve run on a worker pool sized by -j (default: one worker per
// processor). The computed solution is bit-identical for every -j value as
// long as the solve completes. -solve-budget caps the wall-clock time of
// the exact covering solve — like an interrupt, a truncated solve keeps
// the best cover found so far.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	reseeding "repro"
	"repro/internal/obs"
	"repro/internal/report"
)

func main() {
	var (
		circuit = flag.String("circuit", "s1238", "benchmark circuit name (see benchgen -list)")
		file    = flag.String("file", "", ".bench netlist file (overrides -circuit)")
		kind    = flag.String("tpg", "adder", "TPG kind: adder, subtracter, multiplier, lfsr")
		cycles  = flag.Int("cycles", 64, "evolution length T per candidate triplet")
		seed    = flag.Int64("seed", 1, "random seed")
		solver  = flag.String("solver", "exact", "covering solver: exact, greedy, greedy-noreduce")
		objectv = flag.String("objective", "triplets", "minimize: triplets (ROM area) or testlength")
		noTrim  = flag.Bool("notrim", false, "keep full-length triplets (skip trailing-pattern deletion)")
		jsonOut = flag.String("json", "",
			"also write the full Engine Response (solution, circuit/ATPG summaries, cache and interrupt flags) as JSON to this file")
		verbose = flag.Bool("v", false, "print every selected triplet")
		jobs    = flag.Int("j", 0,
			"worker goroutines for PODEM search, matrix construction and the covering solve (0 = all processors)")
		solveBudget = flag.Duration("solve-budget", 0,
			"wall-clock budget for the exact covering solve; truncated solves return the best cover found (0 = none)")
		bound = flag.String("bound", "",
			"exact solver lower bound: auto (lagrangian, the default) or counting; the cover is bit-identical either way")
		trace = flag.Bool("trace", false,
			"record a phase-structured solve trace and print the per-phase breakdown (also embedded in -json output as response.timing)")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the request; the Engine turns a cancellation
	// that reaches the covering phase into a best-so-far solution.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	req := reseeding.Request{
		Circuit:     *circuit,
		TPG:         *kind,
		Cycles:      *cycles,
		Seed:        *seed + 1,
		ATPGSeed:    *seed,
		Solver:      *solver,
		Objective:   *objectv,
		NoTrim:      *noTrim,
		SolveBudget: *solveBudget,
		Bound:       *bound,
	}
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fail(err)
		}
		req.Circuit, req.Bench = "", string(src)
	}

	// Fail fast on a malformed request — the same typed checks the reseedd
	// HTTP API maps to 400 — before announcing any work.
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "reseed:", err)
		os.Exit(2)
	}

	target := *circuit
	if *file != "" {
		target = *file
	}
	fmt.Fprintf(os.Stderr, "reseed: %s: running ATPG, building the Detection Matrix and solving with the %s TPG (interrupt to keep the best cover found)...\n",
		target, *kind)

	if *trace {
		// Tracing is strictly additive: the solution is bit-identical with
		// the flag on or off; only Response.Timing appears.
		ctx = obs.ContextWithTrace(ctx, obs.NewTrace("reseed"))
	}
	eng := reseeding.NewEngine(reseeding.EngineOptions{Parallelism: *jobs})
	resp, err := eng.Solve(ctx, req)
	if err != nil {
		var reqErr *reseeding.RequestError
		if errors.As(err, &reqErr) {
			// The same typed rejection the reseedd HTTP API maps to 400:
			// the request is wrong, nothing was attempted.
			fmt.Fprintln(os.Stderr, "reseed:", err)
			os.Exit(2)
		}
		if errors.Is(err, context.Canceled) {
			fail(fmt.Errorf("interrupted before a solution existed: %w", err))
		}
		fail(err)
	}
	sol := resp.Solution

	fmt.Printf("circuit %s: %d inputs, %d outputs, %d gates\n",
		resp.Circuit.Name, resp.Circuit.Inputs, resp.Circuit.Outputs, resp.Circuit.Gates)
	fmt.Printf("ATPG: %d patterns, %d target faults (coverage %.2f%%, %d untestable, %d aborted)\n",
		resp.ATPG.Patterns, resp.ATPG.TargetFaults,
		100*resp.ATPG.Coverage, resp.ATPG.Untestable, resp.ATPG.Aborted)

	if *jsonOut != "" {
		// The full Response, not just the Solution, so the CLI's JSON
		// output is exactly what the reseedd HTTP API would answer for the
		// same Request (cache-hit flags, Interrupted, summaries).
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}

	fmt.Printf("\nDetection Matrix: %d x %d, reduced to %d x %d in %d sweeps (%d dominated rows, %d implied cols)\n",
		sol.MatrixRows, sol.MatrixCols, sol.ResidualRows, sol.ResidualCols,
		sol.ReductionIters, sol.DominatedRows, sol.ImpliedCols)
	fmt.Printf("solution: %d triplets (%d necessary + %d from solver), optimal=%v\n",
		sol.NumTriplets(), sol.NumNecessary, sol.NumFromSolver, sol.Optimal)
	fmt.Printf("global test length %d (uniform-T scheme: %d), ROM %d bits\n",
		sol.TestLength, sol.UniformLength, sol.ROMBits)
	fmt.Printf("effort: %d triplet simulations, %d gate evaluations\n",
		sol.TripletSims, sol.GateEvals)
	if resp.Interrupted {
		fmt.Println("interrupted: this is the best cover found before cancellation (optimal=false)")
	}
	if *trace && resp.Timing != nil {
		fmt.Println()
		printTrace(resp.Timing)
	}

	if *verbose {
		fmt.Println()
		t := report.NewTable("Selected triplets", "#", "necessary", "cycles", "faults", "delta (hex)", "theta (hex)")
		for i, st := range sol.Triplets {
			t.AddRow(
				fmt.Sprintf("%d", i),
				fmt.Sprintf("%v", st.Necessary),
				fmt.Sprintf("%d", st.EffectiveCycles),
				fmt.Sprintf("%d", st.AssignedFaults),
				st.Delta.Hex(),
				st.Theta.Hex(),
			)
		}
		if err := t.Render(os.Stdout); err != nil {
			fail(err)
		}
	}
}

// printTrace renders the solve's span tree as an indented per-phase
// breakdown: children under parents, durations in milliseconds, counter
// attributes appended.
func printTrace(td *obs.TraceData) {
	fmt.Printf("trace %s (%d spans", td.TraceID, len(td.Spans))
	if td.Dropped > 0 {
		fmt.Printf(", %d dropped", td.Dropped)
	}
	fmt.Println("):")
	children := make(map[string][]obs.SpanData)
	local := make(map[string]bool, len(td.Spans))
	for _, sp := range td.Spans {
		local[sp.SpanID] = true
	}
	var roots []obs.SpanData
	for _, sp := range td.Spans {
		if sp.Parent != "" && local[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var walk func(sp obs.SpanData, depth int)
	walk = func(sp obs.SpanData, depth int) {
		fmt.Printf("%*s%-12s %9.2fms", 2*depth, "", sp.Name, float64(sp.Duration)/1e6)
		for _, a := range sp.Attrs {
			if a.Str != "" {
				fmt.Printf("  %s=%s", a.Key, a.Str)
			} else {
				fmt.Printf("  %s=%d", a.Key, a.Int)
			}
		}
		fmt.Println()
		kids := children[sp.SpanID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return roots[a].Start < roots[b].Start })
	for _, sp := range roots {
		walk(sp, 0)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reseed:", err)
	os.Exit(1)
}
