// Command faultsim grades a pattern file against a circuit's collapsed
// stuck-at fault list using the parallel-pattern fault simulator.
//
// The pattern file holds one binary string per line, most significant bit
// first, with width equal to the circuit's input count (the format written
// by `atpg -o`).
//
// Usage:
//
//	faultsim -circuit c880 -patterns patterns.txt
//
// The simulator grades 256 patterns per pass, with fault dropping between
// passes. SIGINT/SIGTERM cancel a long grading run.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	reseeding "repro"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fsim"
	"repro/internal/netlist"
)

func main() {
	var (
		circuit  = flag.String("circuit", "c880", "benchmark circuit name")
		file     = flag.String("file", "", ".bench netlist file (overrides -circuit)")
		patterns = flag.String("patterns", "", "pattern file (required)")
		verbose  = flag.Bool("v", false, "list undetected faults")
	)
	flag.Parse()
	if *patterns == "" {
		fail(fmt.Errorf("-patterns is required"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := loadCircuit(*file, *circuit)
	if err != nil {
		fail(err)
	}
	pats, err := readPatterns(*patterns, len(c.Inputs))
	if err != nil {
		fail(err)
	}
	faults, stats, err := reseeding.FaultsWithStats(c)
	if err != nil {
		fail(err)
	}
	sim, err := fsim.New(c)
	if err != nil {
		fail(err)
	}
	res, err := sim.Run(faults, pats, fsim.Options{Context: ctx})
	if err != nil {
		fail(err)
	}
	fmt.Printf("circuit %s: %d faults (collapsed from %d), %d patterns\n",
		c.Name, len(faults), stats.Total, len(pats))
	fmt.Printf("detected %d (%.2f%%), %d gate evaluations\n",
		res.NumDetected, 100*res.Coverage(), res.GateEvals)
	if *verbose {
		for i, d := range res.Detected {
			if !d {
				fmt.Printf("undetected: %s\n", faults[i].String(c))
			}
		}
	}
}

func readPatterns(path string, width int) ([]bitvec.Vector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []bitvec.Vector
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if s == "" {
			continue
		}
		v, err := bitvec.FromString(s)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if v.Width() != width {
			return nil, fmt.Errorf("%s:%d: pattern width %d, circuit has %d inputs",
				path, line, v.Width(), width)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}

func loadCircuit(file, circuit string) (*netlist.Circuit, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		c, err := netlist.Parse(file, f)
		if err != nil {
			return nil, err
		}
		if !c.IsCombinational() {
			return c.FullScan()
		}
		return c, nil
	}
	return bench.ScanView(circuit)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "faultsim:", err)
	os.Exit(1)
}
