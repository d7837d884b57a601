// Command tables regenerates the paper's evaluation artifacts: Table 1
// (reseeding solutions vs the GATSBY baseline), Table 2 (set covering
// anatomy) and Figure 2 (the reseedings-vs-test-length trade-off).
//
// Usage:
//
//	tables                 # Table 1+2 on the small/medium circuits, Figure 2
//	tables -all            # the paper's full circuit list (takes many minutes)
//	tables -table 1        # just Table 1
//	tables -figure 2       # just Figure 2
//	tables -circuits s420,s1238 -cycles 128
//	tables -all -solve-budget 5s   # anytime: cap each exact covering solve
//
// All circuits run on one shared reseeding Engine, so Figure 2 reuses the
// s1238 ATPG preparation from the table run. SIGINT/SIGTERM cancel the
// run: the tables are rendered for every circuit completed so far (an
// exact covering solve interrupted mid-search contributes its best-so-far
// solution with Optimal = false) instead of dying without output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	reseeding "repro"
	"repro/internal/experiments"
)

// fastCircuits keeps the default invocation to a couple of minutes.
var fastCircuits = []string{"c499", "c880", "s420", "s641", "s820", "s838", "s953", "s1238", "s1423"}

func main() {
	var (
		all      = flag.Bool("all", false, "run the paper's full Table 1 circuit list (slow)")
		circuits = flag.String("circuits", "", "comma-separated circuit list (overrides -all)")
		table    = flag.Int("table", 0, "render only this table (1 or 2)")
		figure   = flag.Int("figure", 0, "render only this figure (2)")
		cycles   = flag.Int("cycles", 64, "candidate evolution length T")
		seed     = flag.Int64("seed", 1, "random seed")
		noGatsby = flag.Bool("nogatsby", false, "skip the GA baseline columns")
		jobs     = flag.Int("j", 0, "worker goroutines for PODEM search, matrix construction and the covering solve (0 = all processors)")
		budget   = flag.Duration("solve-budget", 0, "wall-clock budget per exact covering solve; truncated solves keep the best cover found (0 = none)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.Config{
		Cycles:      *cycles,
		Seed:        *seed,
		WithGatsby:  !*noGatsby,
		Parallelism: *jobs,
		SolveBudget: *budget,
		Context:     ctx,
		Engine:      reseeding.NewEngine(reseeding.EngineOptions{Parallelism: *jobs}),
	}
	switch {
	case *circuits != "":
		cfg.Circuits = strings.Split(*circuits, ",")
	case *all:
		cfg.Circuits = experiments.Table1Circuits()
	default:
		cfg.Circuits = fastCircuits
	}

	wantTables := *figure == 0
	wantFigure := *table == 0 && (*figure == 2 || *figure == 0)
	interrupted := false

	if wantTables {
		start := time.Now()
		var results []*experiments.CircuitResult
		for _, name := range cfg.Circuits {
			t0 := time.Now()
			cr, err := experiments.RunCircuit(name, cfg)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					interrupted = true
					fmt.Fprintf(os.Stderr, "  %-8s interrupted — rendering the %d completed circuits\n",
						name, len(results))
					break
				}
				fail(err)
			}
			results = append(results, cr)
			fmt.Fprintf(os.Stderr, "  %-8s done in %6.1fs (|F|=%d, |ATPGTS|=%d)\n",
				name, time.Since(t0).Seconds(), cr.Faults, cr.Patterns)
		}
		fmt.Fprintf(os.Stderr, "flow complete in %.1fs\n\n", time.Since(start).Seconds())

		if len(results) > 0 {
			if *table == 0 || *table == 1 {
				if err := experiments.WriteTable1(os.Stdout, results, cfg.WithGatsby); err != nil {
					fail(err)
				}
				fmt.Println()
			}
			if *table == 0 || *table == 2 {
				if err := experiments.WriteTable2(os.Stdout, results); err != nil {
					fail(err)
				}
				fmt.Println()
			}
		}
		if interrupted {
			fmt.Println("(interrupted: tables cover the circuits completed before cancellation;")
			fmt.Println(" solves cut off mid-search report their best-so-far cover, optimal=false)")
			os.Exit(130)
		}
	}

	if wantFigure {
		points, err := experiments.Figure2(cfg)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "tables: figure 2 interrupted")
				os.Exit(130)
			}
			fail(err)
		}
		if err := experiments.WriteFigure2(os.Stdout, points); err != nil {
			fail(err)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
