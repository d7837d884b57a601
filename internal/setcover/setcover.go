// Package setcover implements unate set covering: reduction by essentiality
// and dominance, a parallel anytime branch-and-bound solver, and the
// classical greedy heuristic.
//
// This is the paper's optimization core. The Detection Matrix (rows =
// candidate triplets, columns = faults) is reduced with the two classical
// covering-table techniques — essential rows are forced into the solution,
// dominated rows and implied columns are deleted — and the residual matrix
// is solved exactly. The exact solver replaces the commercial ILP package
// LINGO used in the paper; both deliver a provably minimum cover of the
// residual, which is all the experiment requires.
//
// Cardinality (SolveExact) and weighted (SolveExactWeighted) solves share
// one branch-and-bound engine — cardinality is the nil-weights (unit cost)
// instantiation — and every exact solve takes one path: plan → per-branch
// search → Merge. The plan (ExactPlan) is the root node, computed once;
// each top-level branch is searched serially with sibling-row exclusion
// and per-node essentiality re-reduction; Merge picks the answer. An
// in-process solve runs the branches on the internal/parallel pool against
// a shared atomic incumbent, and a distributed solve runs the same
// branches as subtree leases (PlanExact, SolveSubtree); see engine.go.
//
// # Determinism
//
// For solves that complete within their budgets, Solution.Rows is
// bit-identical for every ExactOptions.Parallelism value and every lease
// schedule (the same contract as internal/fsim and internal/dmatrix): each
// branch reports the first optimum of its subtree in depth-first order,
// and Merge tie-breaks equal costs toward the lower top-level branch. Only
// Solution.Nodes — an effort counter, like wall-clock time — depends on
// worker timing when Parallelism > 1.
//
// # Anytime contract
//
// ExactOptions.MaxNodes, TimeBudget and Context bound the search; a
// truncated solve returns the best cover found so far (never worse than the
// greedy incumbent, always a valid cover) with Optimal = false and a nil
// error. Exceeding a budget is not an error: it is the anytime trade the
// caller asked for. Truncated results are outside the bit-identical
// guarantee — which covers were found before the budget won the race is as
// timing-dependent as the budget itself; Optimal = false is the signal.
//
// The package is deliberately independent of testing concepts: rows cover
// columns, nothing more, mirroring how the paper leans on generic
// two-level-minimization theory (McCluskey-style essentiality/dominance).
package setcover

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
)

// Problem is a unate covering instance: choose a minimum set of rows whose
// union covers every column.
type Problem struct {
	numCols int
	rows    []*bitvec.Set
}

// NewProblem returns an empty problem over the given column universe.
func NewProblem(numCols int) *Problem {
	if numCols < 0 {
		panic(fmt.Sprintf("setcover: negative column count %d", numCols))
	}
	return &Problem{numCols: numCols}
}

// AddRow adds a row covering the given column set and returns its index.
// The set is cloned; later mutation of the argument does not affect the
// problem.
func (p *Problem) AddRow(covers *bitvec.Set) int {
	if covers.Universe() != p.numCols {
		panic(fmt.Sprintf("setcover: row universe %d != %d columns", covers.Universe(), p.numCols))
	}
	p.rows = append(p.rows, covers.Clone())
	return len(p.rows) - 1
}

// NumRows returns the number of rows.
func (p *Problem) NumRows() int { return len(p.rows) }

// NumCols returns the column universe size.
func (p *Problem) NumCols() int { return p.numCols }

// Row returns the column set of row i. The returned set is owned by the
// problem and must not be modified.
func (p *Problem) Row(i int) *bitvec.Set { return p.rows[i] }

// UncoverableColumns returns the columns no row covers. A covering exists
// iff the result is empty.
func (p *Problem) UncoverableColumns() []int {
	u := bitvec.NewSet(p.numCols)
	u.Fill()
	for _, r := range p.rows {
		u.AndNot(r)
		if u.Empty() {
			break
		}
	}
	if u.Empty() {
		return nil
	}
	return u.Elements()
}

// Verify reports whether the given rows cover every column.
func (p *Problem) Verify(rows []int) bool {
	covered := bitvec.NewSet(p.numCols)
	for _, r := range rows {
		if r < 0 || r >= len(p.rows) {
			return false
		}
		covered.Or(p.rows[r])
	}
	return covered.Len() == p.numCols
}

// Minimal reports whether the cover is irredundant: removing any single row
// breaks coverage. This is the paper's definition of a minimal solution.
func (p *Problem) Minimal(rows []int) bool {
	if !p.Verify(rows) {
		return false
	}
	for skip := range rows {
		covered := bitvec.NewSet(p.numCols)
		for i, r := range rows {
			if i != skip {
				covered.Or(p.rows[r])
			}
		}
		if covered.Len() == p.numCols {
			return false
		}
	}
	return true
}

// Solution is the outcome of a solver run.
type Solution struct {
	// Rows are the selected row indices (into the problem they were solved
	// on), sorted ascending.
	Rows []int
	// Cost is the total cost of Rows: their summed weights for weighted
	// solves, their count for cardinality solves.
	Cost int
	// Optimal reports whether the solver proved minimality of Rows' cost.
	// It is false when a budget (MaxNodes, TimeBudget, Context) truncated
	// the search; Rows is then the best cover found so far.
	Optimal bool
	// Nodes counts branch-and-bound nodes explored (0 for greedy). It is an
	// effort counter: with ExactOptions.Parallelism > 1 it depends on worker
	// timing — pruning races against the shared incumbent — and is excluded
	// from the bit-identical guarantee that covers Rows, Cost and Optimal.
	Nodes int64
	// RootLB is the exact solver's root lower bound on the optimal cost —
	// the stronger of the counting bound and (in Lagrangian modes) the dual
	// value after the root multiplier ascent, plus any cost the root
	// re-reduction committed. It never exceeds the optimal cost, so the
	// corpus harness reports RootLB/Cost as bound tightness. 0 for greedy
	// solves and solves truncated before the root bound was computed. It
	// depends on ExactOptions.Bound (that is its point) but not on
	// Parallelism.
	RootLB int
}

// SolveGreedy runs Chvátal's greedy heuristic: repeatedly take the row
// covering the most uncovered columns. Ties break toward lower row index,
// making the result deterministic.
func (p *Problem) SolveGreedy() (Solution, error) {
	return p.solveGreedyImpl(nil)
}

// solveGreedyImpl is the greedy heuristic shared by SolveGreedy (weights
// nil: maximize gain) and SolveGreedyWeighted (minimize weight per newly
// covered column). Ratio comparisons use cross-multiplication so the
// outcome is exact. It also seeds the branch-and-bound incumbent.
func (p *Problem) solveGreedyImpl(weights []int) (Solution, error) {
	if bad := p.UncoverableColumns(); bad != nil {
		return Solution{}, fmt.Errorf("setcover: %d columns uncoverable (first: %d)", len(bad), bad[0])
	}
	uncovered := bitvec.NewSet(p.numCols)
	uncovered.Fill()
	var sol Solution
	if weights != nil {
		// Zero-weight rows with any gain are free: take them up front,
		// highest gain first (ties toward the lower index). Covering only
		// ever shrinks gains, so once no free row gains, none will again.
		for !uncovered.Empty() {
			best, bestGain := -1, 0
			for i, w := range weights {
				if w != 0 {
					continue
				}
				if gain := p.rows[i].IntersectionLen(uncovered); gain > bestGain {
					best, bestGain = i, gain
				}
			}
			if best < 0 {
				break
			}
			sol.Rows = append(sol.Rows, best)
			uncovered.AndNot(p.rows[best])
		}
	}
	for !uncovered.Empty() {
		best, bestGain, bestCost := -1, 0, 0
		for i, r := range p.rows {
			gain := r.IntersectionLen(uncovered)
			if gain == 0 {
				continue
			}
			cost := 1
			if weights != nil {
				cost = weights[i]
			}
			// cost/gain < bestCost/bestGain ⇔ cost*bestGain < bestCost*gain.
			if best < 0 || cost*bestGain < bestCost*gain {
				best, bestGain, bestCost = i, gain, cost
			}
		}
		if best < 0 {
			return Solution{}, fmt.Errorf("setcover: internal: no progress with %d columns uncovered", uncovered.Len())
		}
		sol.Rows = append(sol.Rows, best)
		uncovered.AndNot(p.rows[best])
	}
	sort.Ints(sol.Rows)
	sol.Cost = coverCost(weights, sol.Rows)
	return sol, nil
}

// coverCost is the total cost of a row selection: its summed weights, or
// its cardinality when weights is nil.
func coverCost(weights []int, rows []int) int {
	if weights == nil {
		return len(rows)
	}
	return totalWeight(weights, rows)
}
