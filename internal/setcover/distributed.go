package setcover

// The lease face of the branch-and-bound engine. A coordinator calls
// PlanExact once to compute the deterministic root of the search tree —
// the greedy seed, the root-forced rows, the root bound with its
// Lagrangian multipliers, and the canonical top-level branch list — and
// then farms the branches out as independent subtree leases (any process
// holding the same plan inputs computes the same plan, so a lease is fully
// described by its branch index). SolveSubtree executes one lease; Merge
// folds the completed results back into a Solution.
//
// This is the in-process solve's own path (engine.go): solveBB plans the
// same root, runs the same runBranch for every branch and calls the same
// Merge. A lease differs only in running its branch on a search of its
// own, whose node count starts at zero and which polls the external bound
// (SubtreeOptions.Bound) at the node cadence. That bound feeds the
// strictly-greater shared-cost prune only, which never cuts a subtree
// containing an optimal cover as long as the reported value is a real
// cover's cost (hence >= the global optimum). So a completed distributed
// solve returns Rows/Cost/Optimal bit-identical to the single-process
// solver at any Parallelism, no matter how leases were scheduled,
// retried, or duplicated.
//
// Truncated or missing subtrees degrade the merge to the anytime
// contract: the best cover known (at worst the greedy seed) with
// Optimal = false.

import (
	"context"
	"fmt"
	"sort"
)

// PlanExact computes the distributed plan of an exact solve: everything
// deterministic that precedes the top-level fan-out. Only the tree-shaping
// options — the bound mode and the ascent budget — are read; Parallelism,
// Context, TimeBudget, MaxNodes and the observers are ignored (subtree
// budgets are per-lease, see SubtreeOptions). Two processes calling
// PlanExact with equal problems, weights and options obtain equal plans —
// the property subtree leasing by branch index relies on.
func (p *Problem) PlanExact(weights []int, opts ExactOptions) (*ExactPlan, error) {
	if weights != nil {
		if err := p.validateWeights(weights); err != nil {
			return nil, err
		}
	}
	if bad := p.UncoverableColumns(); bad != nil {
		return nil, fmt.Errorf("setcover: %d columns uncoverable (first: %d)", len(bad), bad[0])
	}
	if p.numCols == 0 {
		return &ExactPlan{terminal: &Solution{Optimal: true}}, nil
	}
	greedy, err := p.solveGreedyImpl(weights)
	if err != nil {
		return nil, err
	}
	return p.plan(weights, greedy, opts, nil), nil
}

// NumBranches reports the number of independent subtree leases; 0 for a
// terminal plan.
func (pl *ExactPlan) NumBranches() int { return len(pl.branchRows) }

// Terminal returns the root-resolved solution, or nil when the plan has
// branches to solve.
func (pl *ExactPlan) Terminal() *Solution {
	if pl.terminal == nil {
		return nil
	}
	sol := *pl.terminal
	sol.Rows = append([]int(nil), pl.terminal.Rows...)
	return &sol
}

// Greedy returns the plan's greedy seed — the upper bound every subtree
// starts from, and the anytime fallback when every lease is lost.
func (pl *ExactPlan) Greedy() Solution {
	sol := pl.greedy
	sol.Rows = append([]int(nil), pl.greedy.Rows...)
	sol.RootLB = pl.rootLB
	return sol
}

// RootLB returns the root lower bound of the plan (Solution.RootLB of
// the eventual merge).
func (pl *ExactPlan) RootLB() int { return pl.rootLB }

// SubtreeOptions tunes one subtree lease.
type SubtreeOptions struct {
	// MaxNodes bounds this subtree's search; 0 means the engine default.
	// Exhaustion truncates (the result is flagged Truncated and the merge
	// loses its optimality proof).
	MaxNodes int64
	// Context, when non-nil, cancels the subtree (truncation, not error).
	Context context.Context
	// Bound, when non-nil, is polled at the search's node cadence for the
	// best cover cost known anywhere else — the coordinator's current
	// incumbent in a distributed solve. It must be the cost of a real
	// cover (hence never below the global optimum); non-positive values
	// mean "none known". It only accelerates pruning: completed subtree
	// results are bit-identical with or without it.
	Bound func() int
	// OnImprove observes every strict improvement this subtree finds, in
	// whole-solution terms (root-forced rows included). Calls are
	// serialized with non-increasing costs. It runs on the solver
	// goroutine under an internal lock: return quickly, don't call back.
	OnImprove func(Incumbent)
}

// SubtreeResult is the outcome of one subtree lease. Results are
// deterministic for completed (non-truncated) leases: re-running a lease
// anywhere reproduces it bit-identically.
type SubtreeResult struct {
	// Branch is the lease's top-level branch index.
	Branch int `json:"branch"`
	// Found reports that the subtree improved on the greedy seed; Rows
	// and Cost are meaningful only then.
	Found bool `json:"found"`
	// Rows is the improving cover (sorted, whole-solution: root-forced
	// rows included).
	Rows []int `json:"rows,omitempty"`
	// Cost is the improving cover's total cost.
	Cost int `json:"cost,omitempty"`
	// Nodes is the subtree's node count (effort; deterministic, since a
	// lease runs serially).
	Nodes int64 `json:"nodes"`
	// Truncated reports the subtree was cut off by a budget or
	// cancellation: its result is a best-so-far, and the merge cannot
	// prove optimality.
	Truncated bool `json:"truncated"`
}

// SolveSubtree executes one subtree lease serially. branch must be in
// [0, NumBranches); a terminal plan has none.
func (pl *ExactPlan) SolveSubtree(branch int, sub SubtreeOptions) (SubtreeResult, error) {
	if pl.terminal != nil {
		return SubtreeResult{}, fmt.Errorf("setcover: plan is terminal, no subtrees to solve")
	}
	if branch < 0 || branch >= len(pl.branchRows) {
		return SubtreeResult{}, fmt.Errorf("setcover: subtree branch %d out of range [0,%d)", branch, len(pl.branchRows))
	}
	// The lease's node count starts at zero: the root node is accounted
	// once by Merge, not once per lease.
	s := newSearch(pl.greedy.Cost, ExactOptions{MaxNodes: sub.MaxNodes, Context: sub.Context, OnIncumbent: sub.OnImprove})
	s.pl, s.bound = pl, sub.Bound
	return s.runBranch(branch), nil
}

// Merge folds subtree results into the final Solution with the engine's
// one answer-picking rule (better): lower cost wins, ties resolve toward
// the lower branch index, and the greedy seed stands when nothing
// improved on it. Duplicate results for one branch are tolerated
// (completed leases are deterministic, so duplicates agree; for a
// truncated duplicate the completed one is preferred). Optimal is
// proven only when every branch has a completed result. Nodes is the
// root node plus every distinct branch's maximal observed effort.
func (pl *ExactPlan) Merge(results []SubtreeResult) Solution {
	if pl.terminal != nil {
		return *pl.Terminal()
	}
	best := pl.Greedy()
	bestBranch := unsetBranch
	nodes := make(map[int]int64, len(results))
	completed := make(map[int]bool, len(results))
	for _, r := range results {
		if r.Branch < 0 || r.Branch >= len(pl.branchRows) {
			continue
		}
		if n := nodes[r.Branch]; r.Nodes > n {
			nodes[r.Branch] = r.Nodes
		}
		if !r.Truncated {
			completed[r.Branch] = true
		}
		if r.Found && better(r.Cost, r.Branch, best.Cost, bestBranch) {
			best.Cost = r.Cost
			best.Rows = append([]int(nil), r.Rows...)
			bestBranch = r.Branch
		}
	}
	best.Nodes = 1
	for _, n := range nodes {
		best.Nodes += n
	}
	best.Optimal = len(completed) == len(pl.branchRows)
	best.RootLB = pl.rootLB
	sort.Ints(best.Rows)
	return best
}
