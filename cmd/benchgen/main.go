// Command benchgen emits the synthetic benchmark circuits as .bench
// netlists, and generates the Balas–Ho set-covering corpus the exact
// solver is tested and benchmarked on.
//
// Circuit usage:
//
//	benchgen -list
//	benchgen -circuit s1238            # sequential form
//	benchgen -circuit s1238 -scan      # full-scan combinational view
//
// Set-covering usage:
//
//	benchgen -cover -rows 80 -cols 50 -density 0.45 -cseed 7      # one instance to stdout
//	benchgen -cover -costs uniform -maxcost 100 ...               # weighted cost class
//	benchgen -cover-corpus -out internal/setcover/corpus          # regenerate the committed corpus + golden.json
//
// See docs/CORPUS.md for the corpus tiers and the tests and benchmark
// that pin the solver on them.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/bench"
	"repro/internal/netlist"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

func main() {
	var (
		circuit = flag.String("circuit", "", "benchmark circuit name")
		scan    = flag.Bool("scan", false, "emit the full-scan combinational view")
		list    = flag.Bool("list", false, "list available circuits with their profiles")

		cover       = flag.Bool("cover", false, "emit one Balas-Ho set-covering instance (.scp) to stdout")
		coverCorpus = flag.Bool("cover-corpus", false, "regenerate the committed corpus instances and golden.json under -out")
		out         = flag.String("out", "", "-cover-corpus: corpus package dir to write")
		rows        = flag.Int("rows", 80, "-cover: number of covering rows (sets)")
		cols        = flag.Int("cols", 50, "-cover: number of columns to cover (elements)")
		density     = flag.Float64("density", 0.3, "-cover: target incidence density in (0,1]")
		costs       = flag.String("costs", "unit", "-cover: cost class: unit or uniform")
		maxCost     = flag.Int("maxcost", 0, "-cover: inclusive cost ceiling for -costs uniform (0 = 100)")
		cseed       = flag.Int64("cseed", 1, "-cover: generator seed")
		jobs        = flag.Int("j", 1, "-cover-corpus: generator and solver parallelism (1 = serial; 0 = all cores)")
	)
	flag.Parse()

	switch {
	case *cover:
		emitInstance(*rows, *cols, *density, *costs, *maxCost, *cseed)
	case *coverCorpus:
		regenerateCorpus(*out, *jobs)
	case *list:
		fmt.Printf("%-8s %6s %6s %6s %8s\n", "name", "PI", "PO", "FF", "gates")
		for _, p := range bench.Profiles() {
			fmt.Printf("%-8s %6d %6d %6d %8d\n", p.Name, p.Inputs, p.Outputs, p.FFs, p.Gates)
		}
	case *circuit != "":
		emitCircuit(*circuit, *scan)
	default:
		fmt.Fprintln(os.Stderr, "benchgen: one of -circuit, -list, -cover, -cover-corpus required")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}

func emitCircuit(name string, scan bool) {
	var (
		c   *netlist.Circuit
		err error
	)
	if scan {
		c, err = bench.ScanView(name)
	} else {
		c, err = bench.Named(name)
	}
	if err != nil {
		fatal(err)
	}
	if err := netlist.Write(os.Stdout, c); err != nil {
		fatal(err)
	}
}

func costClass(name string) (corpus.CostClass, error) {
	switch name {
	case "unit":
		return corpus.CostUnit, nil
	case "uniform":
		return corpus.CostUniform, nil
	default:
		return 0, fmt.Errorf("unknown cost class %q (known: unit, uniform)", name)
	}
}

func emitInstance(rows, cols int, density float64, costs string, maxCost int, seed int64) {
	cc, err := costClass(costs)
	if err != nil {
		fatal(err)
	}
	inst, err := corpus.Generate(fmt.Sprintf("scp-%d", seed), corpus.Params{
		Rows: rows, Cols: cols, Density: density, Costs: cc, MaxCost: maxCost, Seed: seed,
	})
	if err != nil {
		fatal(err)
	}
	if err := corpus.Format(os.Stdout, inst); err != nil {
		fatal(err)
	}
}

// regenerateCorpus rewrites the committed corpus artifacts: every spec'd
// instance in canonical .scp form plus golden.json, with the non-open
// tiers solved to proven optimality and the open tier solved under the
// default node budget for a best-known cost.
func regenerateCorpus(dir string, jobs int) {
	if dir == "" {
		fatal(fmt.Errorf("-cover-corpus needs -out <corpus package dir>"))
	}
	if err := os.MkdirAll(filepath.Join(dir, "instances"), 0o755); err != nil {
		fatal(err)
	}
	instances, err := corpus.GenerateAll(jobs)
	if err != nil {
		fatal(err)
	}
	golden := make(map[string]corpus.Golden)
	for i, spec := range corpus.Specs() {
		inst := instances[i]
		path := filepath.Join(dir, "instances", spec.Name+".scp")
		if err := os.WriteFile(path, []byte(corpus.FormatString(inst)), 0o644); err != nil {
			fatal(err)
		}
		opts := setcover.ExactOptions{Parallelism: jobs}
		if spec.Tier == corpus.TierOpen {
			opts.MaxNodes = corpus.DefaultOpenNodeBudget
		}
		var sol setcover.Solution
		if w := inst.Weights(); w != nil {
			sol, err = inst.Problem.SolveExactWeighted(w, opts)
		} else {
			sol, err = inst.Problem.SolveExact(opts)
		}
		if err != nil {
			fatal(fmt.Errorf("solving %s: %w", spec.Name, err))
		}
		entry := corpus.Golden{Tier: spec.Tier, BestKnown: sol.Cost}
		if sol.Optimal {
			cost := sol.Cost
			entry.Optimal = &cost
		} else if spec.Tier != corpus.TierOpen {
			fatal(fmt.Errorf("%s: %s-tier instance did not solve to optimality (%d nodes) — retune Specs", spec.Name, spec.Tier, sol.Nodes))
		}
		golden[spec.Name] = entry
		fmt.Printf("%-10s %-6s %3dx%-3d cost=%-5d optimal=%-5v nodes=%d\n",
			spec.Name, spec.Tier, inst.Problem.NumRows(), inst.Problem.NumCols(), sol.Cost, sol.Optimal, sol.Nodes)
	}
	raw, err := corpus.FormatGolden(golden)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "golden.json"), raw, 0o644); err != nil {
		fatal(err)
	}
}
