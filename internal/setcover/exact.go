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

// SolveExact runs the rest of the paper's covering pipeline: it returns
// the essential rows plus an exact cover of the residual, under the
// weights the reduction honoured (unit costs after Reduce). Rows index the
// original problem, sorted ascending. Cost, RootLB and every
// OnIncumbent/OnSample snapshot are whole-problem totals: the essential
// rows are in every cover, so their cost shifts the residual solve's
// one-for-one. When reduction alone solved the instance, the essential
// rows are returned Optimal, with RootLB equal to their cost.
func (r *Reduction) SolveExact(opts ExactOptions) (Solution, error) {
	ess := coverCost(r.weights, r.Essential)
	opts = opts.withIncumbentOffset(ess, len(r.Essential))
	sol, err := r.solve(func(res *Problem, weights []int) (Solution, error) {
		return res.solveBB(weights, opts)
	})
	if err != nil {
		return Solution{}, err
	}
	sol.RootLB += ess
	return sol, nil
}

// SolveGreedy is SolveExact with the residual covered by the greedy
// heuristic (weighted when the reduction was) instead of searched: the
// ablation that prices the exact solve. It proves nothing the reduction
// did not: Optimal only when the residual is empty, RootLB and Nodes 0.
func (r *Reduction) SolveGreedy() (Solution, error) {
	return r.solve((*Problem).solveGreedyImpl)
}

// solve covers the residual with cover, under the residual's share of the
// reduction's weights, and lifts the result to the original problem: the
// essential rows plus the residual rows mapped through RowMap, sorted and
// costed. An empty residual needs no cover and is proven optimal. A column
// no row covers survives reduction (it implies every other column) and is
// reported here by its original index.
func (r *Reduction) solve(cover func(res *Problem, weights []int) (Solution, error)) (Solution, error) {
	sub := Solution{Optimal: true}
	if !r.Empty() {
		if bad := r.Residual.UncoverableColumns(); bad != nil {
			return Solution{}, fmt.Errorf("setcover: column %d uncoverable", r.ColMap[bad[0]])
		}
		var weights []int
		if r.weights != nil {
			weights = make([]int, len(r.RowMap))
			for i, row := range r.RowMap {
				weights[i] = r.weights[row]
			}
		}
		var err error
		if sub, err = cover(r.Residual, weights); err != nil {
			return Solution{}, err
		}
	}
	rows := append([]int(nil), r.Essential...)
	for _, i := range sub.Rows {
		rows = append(rows, r.RowMap[i])
	}
	sort.Ints(rows)
	return Solution{Rows: rows, Cost: coverCost(r.weights, rows), Optimal: sub.Optimal,
		Nodes: sub.Nodes, RootLB: sub.RootLB}, nil
}
