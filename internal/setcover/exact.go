package setcover

import (
	"fmt"
	"sort"
)

// SolveExact finds a minimum-cardinality cover with the branch-and-bound
// engine, playing the role of the paper's LINGO run on the reduced
// Detection Matrix. It is the unit-weight instantiation of the unified
// covering core (see engine.go): the incumbent starts from the greedy
// cover, top-level branches fan out across ExactOptions.Parallelism
// workers, and the anytime budgets (MaxNodes, TimeBudget, Context) return
// the best cover found so far with Optimal = false when exceeded.
func (p *Problem) SolveExact(opts ExactOptions) (Solution, error) {
	return p.solveBB(nil, opts)
}

// SolveMinimal runs the full covering pipeline of the paper: reduction by
// essentiality and dominance, then an exact solve of the residual. The
// returned rows are indices into the original problem: the essential rows
// plus the residual cover. The second return value reports the reduction for
// analysis (Table 2 of the paper).
func (p *Problem) SolveMinimal(opts ExactOptions) (Solution, *Reduction, error) {
	return p.solveMinimal(nil, opts)
}

// solveMinimal is the reduce → residual pipeline behind SolveMinimal
// (weights nil) and SolveMinimalWeighted. Essential rows are in every
// cover, so their cost shifts the residual's incumbents, samples and root
// bound one-for-one: RootLB is the residual solve's plus the essentials'
// cost. Callers have validated weights.
func (p *Problem) solveMinimal(weights []int, opts ExactOptions) (Solution, *Reduction, error) {
	if bad := p.UncoverableColumns(); bad != nil {
		return Solution{}, nil, fmt.Errorf("setcover: %d columns uncoverable (first: %d)", len(bad), bad[0])
	}
	red := p.reduceImpl(weights)
	essCost := coverCost(weights, red.Essential)
	sol := Solution{Rows: append([]int(nil), red.Essential...), Optimal: true, RootLB: essCost}
	if !red.Empty() {
		var subWeights []int
		if weights != nil {
			subWeights = make([]int, len(red.RowMap))
			for i, r := range red.RowMap {
				subWeights[i] = weights[r]
			}
		}
		sub, err := red.Residual.solveBB(subWeights, opts.WithIncumbentOffset(essCost, len(red.Essential)))
		if err != nil {
			return Solution{}, nil, err
		}
		for _, r := range sub.Rows {
			sol.Rows = append(sol.Rows, red.RowMap[r])
		}
		sol.Optimal = sub.Optimal
		sol.Nodes = sub.Nodes
		sol.RootLB += sub.RootLB
	}
	sort.Ints(sol.Rows)
	sol.Cost = coverCost(weights, sol.Rows)
	return sol, red, nil
}
