package setcover

// Randomized cross-check of every exact entry point, and of the reduce →
// solve pipeline every reseeding solve runs, against brute-force
// enumeration on small instances (≤ 12 rows), including the awkward
// corners: zero weights, duplicate rows, and uncoverable columns.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitvec"
)

// randomInstance builds a small instance WITHOUT patching coverage, so some
// instances have uncoverable columns. Half the time a row is duplicated.
func randomInstance(rng *rand.Rand) (*Problem, []int) {
	nRows := 1 + rng.Intn(12)
	nCols := 1 + rng.Intn(10)
	p := NewProblem(nCols)
	for i := 0; i < nRows; i++ {
		s := bitvec.NewSet(nCols)
		for j := 0; j < nCols; j++ {
			if rng.Intn(3) == 0 {
				s.Add(j)
			}
		}
		p.AddRow(s)
	}
	if nRows > 1 && rng.Intn(2) == 0 {
		p.AddRow(p.Row(rng.Intn(nRows)).Clone()) // duplicate row
	}
	weights := make([]int, p.NumRows())
	for i := range weights {
		weights[i] = rng.Intn(6) // zero weights common
	}
	return p, weights
}

func TestCrossCheckBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	coverable, uncoverable := 0, 0
	for trial := 0; trial < 250; trial++ {
		p, weights := randomInstance(rng)
		if p.UncoverableColumns() != nil {
			uncoverable++
			if _, err := p.SolveExact(ExactOptions{}); err == nil {
				t.Fatalf("trial %d: exact accepted uncoverable instance", trial)
			}
			if _, err := p.SolveExactWeighted(weights, ExactOptions{}); err == nil {
				t.Fatalf("trial %d: weighted exact accepted uncoverable instance", trial)
			}
			if err := checkPipelineRejects(p, weights); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			continue
		}
		coverable++
		wantCard := bruteForceOptimum(p)
		wantWeight := bruteForceWeighted(p, weights)

		exact, err := p.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wexact, err := p.SolveExactWeighted(weights, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPipeline(p, weights, wantCard, wantWeight); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for name, sol := range map[string]Solution{"SolveExact": exact, "SolveExactWeighted": wexact} {
			if !p.Verify(sol.Rows) {
				t.Fatalf("trial %d: %s returned an invalid cover %v", trial, name, sol.Rows)
			}
			if !sol.Optimal {
				t.Errorf("trial %d: %s did not prove optimality on a tiny instance", trial, name)
			}
		}
		// Both bound modes must return bit-identical solutions: the bound
		// only prunes, it never changes what the search finds.
		for name, base := range map[string]Solution{"SolveExact": exact, "SolveExactWeighted": wexact} {
			w := weights
			if name == "SolveExact" {
				w = nil
			}
			for _, mode := range []BoundMode{BoundCounting, BoundAuto} {
				var got Solution
				var err error
				if w == nil {
					got, err = p.SolveExact(ExactOptions{Bound: mode})
				} else {
					got, err = p.SolveExactWeighted(w, ExactOptions{Bound: mode})
				}
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != base.Cost || got.Optimal != base.Optimal || !slices.Equal(got.Rows, base.Rows) {
					t.Fatalf("trial %d: %s bound=%v diverged: rows %v cost %d optimal %v, want rows %v cost %d optimal %v",
						trial, name, mode, got.Rows, got.Cost, got.Optimal, base.Rows, base.Cost, base.Optimal)
				}
			}
		}
		// The dual bound is a true lower bound on the brute-force optimum.
		if lb, err := p.DualBound(nil, 0); err != nil {
			t.Fatal(err)
		} else if lb > wantCard {
			t.Errorf("trial %d: DualBound %d exceeds optimum %d", trial, lb, wantCard)
		}
		if lb, err := p.DualBound(weights, 0); err != nil {
			t.Fatal(err)
		} else if lb > wantWeight {
			t.Errorf("trial %d: weighted DualBound %d exceeds optimum %d", trial, lb, wantWeight)
		}

		if exact.Cost != wantCard || len(exact.Rows) != wantCard {
			t.Errorf("trial %d: SolveExact cost %d, brute force %d", trial, exact.Cost, wantCard)
		}
		if wexact.Cost != wantWeight {
			t.Errorf("trial %d: SolveExactWeighted cost %d, brute force %d", trial, wexact.Cost, wantWeight)
		}
	}
	if coverable == 0 || uncoverable == 0 {
		t.Fatalf("instance generator lost a corner: %d coverable, %d uncoverable", coverable, uncoverable)
	}
}

// FuzzCrossCheck drives the same cross-check from fuzzed seeds, so `go test`
// exercises the corpus and `go test -fuzz=FuzzCrossCheck` explores further.
func FuzzCrossCheck(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p, weights := randomInstance(rng)
		if p.UncoverableColumns() != nil {
			if _, err := p.SolveExact(ExactOptions{}); err == nil {
				t.Fatal("exact accepted uncoverable instance")
			}
			if err := checkPipelineRejects(p, weights); err != nil {
				t.Fatal(err)
			}
			return
		}
		exact, err := p.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantCard := bruteForceOptimum(p)
		if exact.Cost != wantCard {
			t.Fatalf("SolveExact cost %d, brute force %d", exact.Cost, wantCard)
		}
		wexact, err := p.SolveExactWeighted(weights, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantWeight := bruteForceWeighted(p, weights)
		if wexact.Cost != wantWeight {
			t.Fatalf("SolveExactWeighted cost %d, brute force %d", wexact.Cost, wantWeight)
		}
		if !p.Verify(exact.Rows) || !p.Verify(wexact.Rows) {
			t.Fatal("invalid cover")
		}
		if err := checkPipeline(p, weights, wantCard, wantWeight); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []BoundMode{BoundCounting, BoundAuto} {
			got, err := p.SolveExact(ExactOptions{Bound: mode})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cost != exact.Cost || got.Optimal != exact.Optimal || !slices.Equal(got.Rows, exact.Rows) {
				t.Fatalf("bound=%v diverged: rows %v cost %d, want rows %v cost %d",
					mode, got.Rows, got.Cost, exact.Rows, exact.Cost)
			}
		}
		if lb, err := p.DualBound(weights, 0); err != nil {
			t.Fatal(err)
		} else if lb > wantWeight {
			t.Fatalf("DualBound %d exceeds optimum %d", lb, wantWeight)
		}
	})
}

// checkPipeline cross-checks the reduce → solve pipeline on a coverable
// instance against the brute-force optima. Reduce().SolveExact and
// ReduceWeighted(weights).SolveExact must return valid covers of the
// optimum's cost, proven optimal, with RootLB between the essential rows'
// cost and the optimum. Reduce().SolveGreedy must return a valid cover
// that claims Optimal exactly when reduction alone solved the instance.
func checkPipeline(p *Problem, weights []int, wantCard, wantWeight int) error {
	red := p.Reduce()
	wred, err := p.ReduceWeighted(weights)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name string
		red  *Reduction
		want int
	}{
		{"Reduce().SolveExact", red, wantCard},
		{"ReduceWeighted().SolveExact", wred, wantWeight},
	} {
		sol, err := c.red.SolveExact(ExactOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		ess := coverCost(c.red.weights, c.red.Essential)
		switch {
		case !p.Verify(sol.Rows):
			return fmt.Errorf("%s returned an invalid cover %v", c.name, sol.Rows)
		case !sol.Optimal:
			return fmt.Errorf("%s did not prove optimality on a tiny instance", c.name)
		case sol.Cost != c.want || sol.Cost != coverCost(c.red.weights, sol.Rows):
			return fmt.Errorf("%s cost %d (rows %v), brute force %d", c.name, sol.Cost, sol.Rows, c.want)
		case sol.RootLB < ess || sol.RootLB > sol.Cost:
			return fmt.Errorf("%s RootLB %d outside [%d essential, %d optimum]", c.name, sol.RootLB, ess, sol.Cost)
		}
	}
	greedy, err := red.SolveGreedy()
	switch {
	case err != nil:
		return fmt.Errorf("Reduce().SolveGreedy: %w", err)
	case !p.Verify(greedy.Rows):
		return fmt.Errorf("Reduce().SolveGreedy returned an invalid cover %v", greedy.Rows)
	case greedy.Optimal != red.Empty():
		return fmt.Errorf("Reduce().SolveGreedy Optimal = %v with an empty residual %v", greedy.Optimal, red.Empty())
	case greedy.Cost != len(greedy.Rows) || greedy.Cost < wantCard:
		return fmt.Errorf("Reduce().SolveGreedy cost %d (rows %v) against optimum %d", greedy.Cost, greedy.Rows, wantCard)
	case greedy.RootLB != 0 || greedy.Nodes != 0:
		return fmt.Errorf("Reduce().SolveGreedy claims RootLB %d and %d nodes", greedy.RootLB, greedy.Nodes)
	}
	return nil
}

// checkPipelineRejects asserts that every pipeline solve refuses an
// uncoverable instance, naming its first uncoverable column.
func checkPipelineRejects(p *Problem, weights []int) error {
	wred, err := p.ReduceWeighted(weights)
	if err != nil {
		return err
	}
	want := fmt.Sprintf("column %d uncoverable", p.UncoverableColumns()[0])
	for name, solve := range map[string]func() (Solution, error){
		"Reduce().SolveExact":         func() (Solution, error) { return p.Reduce().SolveExact(ExactOptions{}) },
		"ReduceWeighted().SolveExact": func() (Solution, error) { return wred.SolveExact(ExactOptions{}) },
		"Reduce().SolveGreedy":        p.Reduce().SolveGreedy,
	} {
		if _, err := solve(); err == nil || !strings.Contains(err.Error(), want) {
			return fmt.Errorf("%s on an uncoverable instance: error %v, want %q", name, err, want)
		}
	}
	return nil
}
