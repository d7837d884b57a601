package reseeding_test

// Runnable godoc examples for the public API. Every expected output below is
// executed and checked by `go test`; the pinned numbers double as a
// regression net for the deterministic flow (fixed seeds, and the
// parallelism determinism guarantee means they hold at any -j).

import (
	"context"
	"fmt"

	reseeding "repro"
)

// ExampleEngine is the v2 front door: a long-lived Engine answers
// serializable Requests, caching the ATPG preparation and the Detection
// Matrix so a warm request only pays for the covering solve. The warm
// solution is bit-identical to the cold one.
func ExampleEngine() {
	eng := reseeding.NewEngine(reseeding.EngineOptions{})
	ctx := context.Background()
	req := reseeding.Request{Circuit: "s420", TPG: "adder", Cycles: 64, Seed: 2}

	cold, err := eng.Solve(ctx, req)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cold: %d triplets, test length %d (matrix cached=%v)\n",
		cold.Solution.NumTriplets(), cold.Solution.TestLength, cold.MatrixCached)

	warm, err := eng.Solve(ctx, req)
	if err != nil {
		panic(err)
	}
	fmt.Printf("warm: identical=%v (matrix cached=%v)\n",
		warm.Solution.TestLength == cold.Solution.TestLength &&
			warm.Solution.NumTriplets() == cold.Solution.NumTriplets(),
		warm.MatrixCached)
	// Output:
	// cold: 13 triplets, test length 370 (matrix cached=false)
	// warm: identical=true (matrix cached=true)
}

// Example is the paper's flow end to end: generate the benchmark UUT in its
// full-scan view, run the ATPG once through an Engine, pick a functional
// module as the test pattern generator, and solve the set covering problem
// for a minimal reseeding solution.
func Example() {
	scan, err := reseeding.ScanView("s420")
	if err != nil {
		panic(err)
	}
	eng := reseeding.NewEngine(reseeding.EngineOptions{})
	flow, _, err := eng.PrepareCircuit(context.Background(), scan, reseeding.ATPGOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	gen, err := reseeding.NewTPG("adder", len(scan.Inputs))
	if err != nil {
		panic(err)
	}
	sol, err := flow.Solve(gen, reseeding.Options{Cycles: 64, Seed: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ATPG: %d patterns for %d target faults\n", len(flow.Patterns), len(flow.TargetFaults))
	fmt.Printf("solution: %d triplets, test length %d, optimal %v\n",
		sol.NumTriplets(), sol.TestLength, sol.Optimal)
	// Output:
	// ATPG: 60 patterns for 972 target faults
	// solution: 13 triplets, test length 370, optimal true
}

// ExampleFlow_Solve shows the determinism guarantee of the parallel solve
// pipeline: Parallelism 1 (serial) and Parallelism 0 (one worker per
// processor) compute bit-identical solutions.
func ExampleFlow_Solve() {
	scan, err := reseeding.ScanView("s420")
	if err != nil {
		panic(err)
	}
	eng := reseeding.NewEngine(reseeding.EngineOptions{})
	flow, _, err := eng.PrepareCircuit(context.Background(), scan, reseeding.ATPGOptions{Seed: 1})
	if err != nil {
		panic(err)
	}
	gen, err := reseeding.NewTPG("adder", len(scan.Inputs))
	if err != nil {
		panic(err)
	}
	serial, err := flow.Solve(gen, reseeding.Options{Cycles: 64, Seed: 2, Parallelism: 1})
	if err != nil {
		panic(err)
	}
	parallel, err := flow.Solve(gen, reseeding.Options{Cycles: 64, Seed: 2, Parallelism: 0})
	if err != nil {
		panic(err)
	}
	fmt.Println("triplets:", serial.NumTriplets(), parallel.NumTriplets())
	fmt.Println("identical:", serial.TestLength == parallel.TestLength &&
		serial.ROMBits == parallel.ROMBits)
	// Output:
	// triplets: 13 13
	// identical: true
}

// ExampleNewTPG lists the functional modules available as test pattern
// generators and constructs one.
func ExampleNewTPG() {
	fmt.Println(reseeding.TPGKinds())
	gen, err := reseeding.NewTPG("multiplier", 16)
	if err != nil {
		panic(err)
	}
	fmt.Println(gen.Name(), gen.Width())
	// Output:
	// [adder subtracter multiplier lfsr]
	// multiplier 16
}

// ExampleScanView shows the full-scan combinational view consumed by
// PrepareCircuit: flip-flops of the sequential benchmark become pseudo
// inputs/outputs.
func ExampleScanView() {
	seq, err := reseeding.OpenBenchmark("s420")
	if err != nil {
		panic(err)
	}
	scan, err := reseeding.ScanView("s420")
	if err != nil {
		panic(err)
	}
	fmt.Printf("sequential: %d inputs\n", len(seq.Inputs))
	fmt.Printf("full scan:  %d inputs, combinational %v\n",
		len(scan.Inputs), scan.IsCombinational())
	// Output:
	// sequential: 18 inputs
	// full scan:  39 inputs, combinational true
}
