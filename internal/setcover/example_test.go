package setcover_test

// Runnable godoc examples for the unate covering engine, executed by
// `go test`.

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/setcover"
)

func set(universe int, cols ...int) *bitvec.Set {
	s := bitvec.NewSet(universe)
	for _, c := range cols {
		s.Add(c)
	}
	return s
}

// ExampleNewProblem builds a tiny covering instance — rows are candidate
// triplets, columns are faults — reduces it, and solves the residual to
// provable optimality.
func ExampleNewProblem() {
	p := setcover.NewProblem(5)  // five columns (faults) to cover
	p.AddRow(set(5, 0, 1))       // row 0
	p.AddRow(set(5, 2, 3))       // row 1
	p.AddRow(set(5, 1, 2))       // row 2
	p.AddRow(set(5, 4))          // row 3: the only row covering column 4
	p.AddRow(set(5, 0, 1, 2, 3)) // row 4: dominates rows 0, 1 and 2

	red := p.Reduce()
	sol, err := red.SolveExact(setcover.ExactOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("essential rows:", red.Essential)
	fmt.Println("minimum cover:", sol.Rows)
	fmt.Println("optimal:", sol.Optimal, "verified:", p.Verify(sol.Rows))
	// Output:
	// essential rows: [3 4]
	// minimum cover: [3 4]
	// optimal: true verified: true
}

// ExampleProblem_SolveGreedy contrasts the classical greedy heuristic with
// the exact solve on an instance where greedy is led astray by the largest
// row.
func ExampleProblem_SolveGreedy() {
	p := setcover.NewProblem(6)
	p.AddRow(set(6, 0, 1, 2, 3)) // biggest row: greedy takes it first
	p.AddRow(set(6, 0, 1, 4))
	p.AddRow(set(6, 2, 3, 5))

	greedy, err := p.SolveGreedy()
	if err != nil {
		panic(err)
	}
	exact, err := p.Reduce().SolveExact(setcover.ExactOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("greedy picks:", len(greedy.Rows), "rows")
	fmt.Println("exact needs:", len(exact.Rows), "rows")
	// Output:
	// greedy picks: 3 rows
	// exact needs: 2 rows
}
