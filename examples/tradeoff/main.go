// Tradeoff reproduces the paper's Figure 2 interactively: on s1238 with an
// adder accumulator, sweeping the candidate evolution length T trades fewer
// stored reseedings (less area) for a longer global test.
//
// Each point of the sweep is one Engine request that differs only in
// Cycles: the ATPG preparation is computed once and served from the cache
// for every subsequent point (watch the cached column), while each T gets
// its own Detection Matrix.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	reseeding "repro"
	"repro/internal/report"
)

func main() {
	ctx := context.Background()
	eng := reseeding.NewEngine(reseeding.EngineOptions{})

	fmt.Println("s1238 + adder accumulator: reseedings vs. test length")
	fmt.Printf("%8s %10s %12s %10s %8s\n", "T", "triplets", "test length", "ROM bits", "cached")
	var chart []report.Point
	for _, t := range []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} {
		resp, err := eng.Solve(ctx, reseeding.Request{
			Circuit: "s1238",
			TPG:     "adder",
			Cycles:  t,
			Seed:    2,
		})
		if err != nil {
			log.Fatal(err)
		}
		sol := resp.Solution
		// ROM: 2 seeds of UUT width plus a cycle counter per triplet, sized
		// to the longest trimmed run.
		fmt.Printf("%8d %10d %12d %10d %8v\n",
			t, sol.NumTriplets(), sol.TestLength, sol.ROMBits, resp.PrepareCached)
		chart = append(chart, report.Point{
			X: float64(sol.TestLength), Y: float64(sol.NumTriplets()),
			Label: fmt.Sprintf("%d", sol.NumTriplets()),
		})
	}
	fmt.Println()
	if err := report.Chart(os.Stdout, "Figure 2 shape (annotations = #reseedings)",
		"global test length", "#reseedings", chart); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nReading: the first point is the raw minimum cover of the ATPG test set;")
	fmt.Println("letting each seed evolve longer amortizes one stored triplet over many")
	fmt.Println("patterns until a handful of reseedings suffices, at the price of test time.")
}
