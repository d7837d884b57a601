package setcover

import "fmt"

// Weighted covering: choose rows minimizing total weight rather than
// cardinality. In the reseeding flow the weight of a candidate triplet is
// its trimmed test length, so the weighted solve minimizes global test time
// instead of ROM area — the other end of the trade-off the paper's Figure 2
// explores. The exact solve is the weights != nil instantiation of the
// unified branch-and-bound engine in engine.go.

// validateWeights checks one non-negative weight per row.
func (p *Problem) validateWeights(weights []int) error {
	if len(weights) != len(p.rows) {
		return fmt.Errorf("setcover: %d weights for %d rows", len(weights), len(p.rows))
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("setcover: negative weight %d for row %d", w, i)
		}
	}
	return nil
}

// SolveExactWeighted finds a minimum-total-weight cover with the
// branch-and-bound engine. The incumbent starts from the weighted greedy
// cover; the lower bound sums, over a greedily built set of pairwise
// row-disjoint uncovered columns, each column's cheapest available row. The
// parallel fan-out and the anytime budgets behave exactly as in SolveExact.
func (p *Problem) SolveExactWeighted(weights []int, opts ExactOptions) (Solution, error) {
	if err := p.validateWeights(weights); err != nil {
		return Solution{}, err
	}
	return p.solveBB(weights, opts)
}

// SolveGreedyWeighted covers the problem with the weighted greedy
// heuristic that SolveGreedy runs with unit costs: zero-weight rows with
// any gain first, then repeatedly the row of least weight per newly
// covered column, ties toward the lower row index.
func (p *Problem) SolveGreedyWeighted(weights []int) (Solution, error) {
	if err := p.validateWeights(weights); err != nil {
		return Solution{}, err
	}
	return p.solveGreedyImpl(weights)
}

func totalWeight(weights []int, rows []int) int {
	t := 0
	for _, r := range rows {
		t += weights[r]
	}
	return t
}

// ReduceWeighted is Reduce with weight-aware row dominance: a row may only
// be deleted in favour of a superset row that is not heavier, preserving
// weighted optimality. Essentiality and column dominance are weight
// independent. The Reduction keeps a copy of the weights, and its
// SolveExact and SolveGreedy minimize total weight.
func (p *Problem) ReduceWeighted(weights []int) (*Reduction, error) {
	if err := p.validateWeights(weights); err != nil {
		return nil, err
	}
	return p.reduceImpl(weights), nil
}
