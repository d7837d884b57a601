package setcover

// Randomized cross-check of every exact entry point against brute-force
// enumeration on small instances (≤ 12 rows), including the awkward
// corners: zero weights, duplicate rows, and uncoverable columns.

import (
	"math/rand"
	"slices"
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
			if _, _, err := p.SolveMinimal(ExactOptions{}); err == nil {
				t.Fatalf("trial %d: SolveMinimal accepted uncoverable instance", trial)
			}
			if _, _, err := p.SolveMinimalWeighted(weights, ExactOptions{}); err == nil {
				t.Fatalf("trial %d: SolveMinimalWeighted accepted uncoverable instance", trial)
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
		minimal, _, err := p.SolveMinimal(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wexact, err := p.SolveExactWeighted(weights, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wminimal, _, err := p.SolveMinimalWeighted(weights, ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for name, sol := range map[string]Solution{
			"SolveExact": exact, "SolveMinimal": minimal,
			"SolveExactWeighted": wexact, "SolveMinimalWeighted": wminimal,
		} {
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
		if len(minimal.Rows) != wantCard {
			t.Errorf("trial %d: SolveMinimal %d rows, brute force %d", trial, len(minimal.Rows), wantCard)
		}
		if wexact.Cost != wantWeight {
			t.Errorf("trial %d: SolveExactWeighted cost %d, brute force %d", trial, wexact.Cost, wantWeight)
		}
		if wminimal.Cost != wantWeight {
			t.Errorf("trial %d: SolveMinimalWeighted cost %d, brute force %d", trial, wminimal.Cost, wantWeight)
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
			return
		}
		exact, err := p.SolveExact(ExactOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForceOptimum(p); exact.Cost != want {
			t.Fatalf("SolveExact cost %d, brute force %d", exact.Cost, want)
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
