package atpg

import (
	"math/rand"
	"slices"
	"testing"
)

// solveCNF loads clauses over nvars variables into s, after a reset, and
// solves them within budget conflicts.
func solveCNF(s *sat, nvars int, clauses [][]lit, budget int) verdict {
	s.reset()
	for range nvars {
		s.newVar()
	}
	for _, c := range clauses {
		s.addClause(c...)
	}
	return s.solve(nil, budget)
}

// bruteForce reports whether some assignment of nvars variables satisfies
// every clause.
func bruteForce(nvars int, clauses [][]lit) bool {
	return len(models(nvars, clauses)) > 0
}

// models returns every assignment of nvars variables that satisfies every
// clause, variable v as bit v.
func models(nvars int, clauses [][]lit) []int {
	var out []int
	for m := 0; m < 1<<nvars; m++ {
		if satisfies(clauses, func(l lit) bool { return m>>l.vr()&1 == 1 != l.neg() }) {
			out = append(out, m)
		}
	}
	return out
}

func satisfies(clauses [][]lit, truth func(lit) bool) bool {
	for _, c := range clauses {
		ok := false
		for _, l := range c {
			ok = ok || truth(l)
		}
		if !ok {
			return false
		}
	}
	return true
}

// assumptionSets returns a fixed sequence of assumption lists over nvars
// variables, one repeated so that a solve can reuse the model before it.
func assumptionSets(nvars int) [][]lit {
	x := func(v int) lit { return posLit(int32(v % nvars)) }
	return [][]lit{
		{x(0)}, {x(0)}, {x(0).not()}, {x(0), x(1)}, {x(1).not(), x(2)},
		{x(2), x(0).not(), x(3).not()}, {x(nvars - 1), x(0).not()}, nil, {x(1), x(1).not()},
	}
}

// checkAgainstBruteForce solves clauses with a budget no instance of at
// most 12 variables exhausts, and with a budget of budget conflicts. The
// first must agree with brute force, with a model that satisfies every
// clause when satisfiable; the second may only give up. Between them, the
// first solver solves on under each of assumptionSets in turn, keeping
// what it learnt, and must agree with brute force over the models that
// make the assumptions true. It returns brute force's answer.
func checkAgainstBruteForce(t *testing.T, s *sat, nvars int, clauses [][]lit, budget int) bool {
	t.Helper()
	all := models(nvars, clauses)
	want := len(all) > 0
	switch got := solveCNF(s, nvars, clauses, 1<<30); {
	case got == unknown:
		t.Fatalf("unknown on %d variables, %v", nvars, clauses)
	case (got == satisfiable) != want:
		t.Fatalf("verdict %d, brute force satisfiable=%v on %d variables, %v", got, want, nvars, clauses)
	case got == satisfiable && !satisfies(clauses, func(l lit) bool { return s.val[l] == 1 }):
		t.Fatalf("model does not satisfy %v", clauses)
	}
	for _, as := range assumptionSets(nvars) {
		units := make([][]lit, len(as))
		for i, l := range as {
			units[i] = []lit{l}
		}
		holds := slices.ContainsFunc(all, func(m int) bool {
			return satisfies(units, func(l lit) bool { return m>>l.vr()&1 == 1 != l.neg() })
		})
		switch got := s.solve(as, 1<<30); {
		case got == unknown:
			t.Fatalf("unknown under %v on %d variables, %v", as, nvars, clauses)
		case (got == satisfiable) != holds:
			t.Fatalf("verdict %d under %v, brute force satisfiable=%v on %d variables, %v", got, as, holds, nvars, clauses)
		case got == satisfiable && !satisfies(slices.Concat(clauses, units), func(l lit) bool { return s.val[l] == 1 }):
			t.Fatalf("model under %v does not satisfy %v", as, clauses)
		}
	}
	switch got := solveCNF(s, nvars, clauses, budget); {
	case got == unknown:
		if s.conflicts < budget {
			t.Fatalf("unknown after %d conflicts, budget %d", s.conflicts, budget)
		}
	case (got == satisfiable) != want:
		t.Fatalf("budget %d: verdict %d, brute force satisfiable=%v on %v", budget, got, want, clauses)
	}
	return want
}

// randomCNF draws clauses of one to four literals over nvars variables.
func randomCNF(rng *rand.Rand, nvars, nclauses int) [][]lit {
	clauses := make([][]lit, nclauses)
	for i := range clauses {
		c := make([]lit, 1+rng.Intn(4))
		for j := range c {
			c[j] = posLit(int32(rng.Intn(nvars))).flip(rng.Intn(2) == 1)
		}
		clauses[i] = c
	}
	return clauses
}

// The solver agrees with brute force on random CNFs of at most 12
// variables, around the satisfiability threshold and away from it, with
// one solver reused across all of them.
func TestSolverMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s sat
	nsat, nunsat := 0, 0
	for range 3000 {
		nvars := 1 + rng.Intn(12)
		clauses := randomCNF(rng, nvars, rng.Intn(6*nvars+2))
		if checkAgainstBruteForce(t, &s, nvars, clauses, rng.Intn(4)) {
			nsat++
		} else {
			nunsat++
		}
	}
	if nsat < 300 || nunsat < 300 {
		t.Errorf("%d satisfiable and %d unsatisfiable instances; want both well represented", nsat, nunsat)
	}
}

// FuzzSolverMatchesBruteForce checks the solver against brute force on
// CNFs the fuzzer writes: each byte below 0xff is a literal, variable
// (b>>1) mod n, negated when b is odd; 0xff ends a clause.
func FuzzSolverMatchesBruteForce(f *testing.F) {
	f.Add(uint8(3), uint8(1), []byte{0, 2, 0xff, 1, 0xff, 3, 0xff})
	f.Add(uint8(4), uint8(0), []byte{0, 2, 4, 0xff, 1, 3, 0xff, 1, 5, 0xff, 3, 5, 0xff, 0, 0xff})
	f.Add(uint8(12), uint8(2), []byte{0, 3, 0xff, 2, 5, 0xff, 4, 7, 0xff, 6, 9, 0xff, 8, 11, 0xff, 10, 1, 0xff})
	f.Fuzz(func(t *testing.T, nv, budget uint8, data []byte) {
		nvars := 1 + int(nv%12)
		if len(data) > 400 {
			data = data[:400]
		}
		var clauses [][]lit
		var c []lit
		for _, b := range data {
			if b == 0xff {
				clauses = append(clauses, c)
				c = nil
				continue
			}
			c = append(c, posLit(int32(b>>1)%int32(nvars)).flip(b&1 == 1))
		}
		if len(c) > 0 {
			clauses = append(clauses, c)
		}
		var s sat
		checkAgainstBruteForce(t, &s, nvars, clauses, int(budget%8))
	})
}

// pigeonhole returns the clauses saying that n pigeons sit in n−1 holes,
// no two in one hole, over variables p·(n−1)+h.
func pigeonhole(n int) (int, [][]lit) {
	holes := n - 1
	x := func(p, h int) lit { return posLit(int32(p*holes + h)) }
	var clauses [][]lit
	for p := range n {
		var c []lit
		for h := range holes {
			c = append(c, x(p, h))
		}
		clauses = append(clauses, c)
	}
	for h := range holes {
		for p := range n {
			for q := p + 1; q < n; q++ {
				clauses = append(clauses, []lit{x(p, h).not(), x(q, h).not()})
			}
		}
	}
	return n * holes, clauses
}

func TestSolverPigeonhole(t *testing.T) {
	var s sat
	nvars, clauses := pigeonhole(4)
	if got := solveCNF(&s, nvars, clauses, 1<<30); got != unsatisfiable {
		t.Fatalf("4 pigeons in 3 holes: verdict %d, want unsatisfiable", got)
	}
	if bruteForce(nvars, clauses) {
		t.Fatal("brute force satisfies pigeonhole 4→3")
	}
}

// An exhausted budget gives unknown after exactly the budget's conflicts,
// and the same on every run, whatever the solver solved before.
func TestSolverBudgetIsDeterministic(t *testing.T) {
	nvars, clauses := pigeonhole(8)
	const budget = 300
	var fresh sat
	if got := solveCNF(&fresh, nvars, clauses, budget); got != unknown {
		t.Fatalf("pigeonhole 8→7 within %d conflicts: verdict %d, want unknown", budget, got)
	}
	if fresh.conflicts != budget {
		t.Fatalf("gave up after %d conflicts, want %d", fresh.conflicts, budget)
	}
	want := append([]lit(nil), fresh.trail...)

	var used sat
	rng := rand.New(rand.NewSource(3))
	for round := range 5 {
		n := 1 + rng.Intn(12)
		solveCNF(&used, n, randomCNF(rng, n, 5*n), 1<<30)
		if got := solveCNF(&used, nvars, clauses, budget); got != unknown || used.conflicts != budget {
			t.Fatalf("round %d: verdict %d after %d conflicts, want unknown after %d", round, got, used.conflicts, budget)
		}
		if len(used.trail) != len(want) {
			t.Fatalf("round %d: stopped with %d assignments, want %d", round, len(used.trail), len(want))
		}
		for i, l := range want {
			if used.trail[i] != l {
				t.Fatalf("round %d: assignment %d is %d, want %d", round, i, used.trail[i], l)
			}
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1}
	for i, w := range want {
		if got := luby(i + 1); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}
