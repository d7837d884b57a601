package setcover

// The Lagrangian dual lower bound of the branch-and-bound engine.
//
// Relaxing the covering constraints of
//
//	min Σ_r c_r x_r   s.t.  Σ_{r covers j} x_r >= 1 (for every column j)
//
// with one multiplier u_j >= 0 per column prices each row down by the
// multipliers of the columns it covers. For ANY non-negative u the
// Lagrangian value
//
//	L(u) = Σ_{j uncovered} u_j + Σ_{r available} min(0, c_r − Σ_{j∈r, uncovered} u_j)
//
// is a lower bound on the cheapest way to cover the uncovered columns with
// the available (non-banned) rows: every cover x satisfies
// Σ c_r x_r >= Σ c_r x_r + Σ_j u_j (1 − Σ_{r∋j} x_r) = Σ_j u_j +
// Σ_r (c_r − Σ_{j∈r} u_j) x_r >= L(u). Because validity does not depend on
// how u was obtained, the engine can compute multipliers once at the root by
// projected subgradient ascent (Held–Karp step sizes toward the greedy upper
// bound) and re-price any node's residual with them — plus a few cheap
// task-local refinement steps — without ever risking a wrong prune. Costs
// are integral, so ceil(L(u)) is also valid; dualRound subtracts a slack
// far above the accumulated float error before rounding up, so a float
// wobble can only weaken the bound, never overstate it.
//
// The ascent itself is deterministic: rows and columns are visited in
// ascending order, the root runs before the parallel fan-out, and per-node
// refinements start from the shared root multipliers and depend only on the
// node's (uncovered, banned) state and the task-local incumbent — never on
// another worker's timing.

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
)

// BoundMode selects the lower bound the branch-and-bound engine prunes
// with. Both modes return bit-identical Rows/Cost/Optimal for solves that
// complete — a valid lower bound only ever removes subtrees that contain no
// improvement — and differ only in Nodes and wall time.
type BoundMode int

const (
	// BoundAuto is the engine default: the Lagrangian dual bound.
	BoundAuto BoundMode = iota
	// BoundLagrangian prunes with max(dual value, counting bound) at every
	// node: per-column multipliers from a root subgradient ascent priced
	// into the residual's row costs, refined by a few task-local steps.
	BoundLagrangian
	// BoundCounting prunes with the combinatorial bound alone (greedily
	// accumulated pairwise row-disjoint columns). It is the pre-dual
	// engine's behaviour, kept for comparison runs and the corpus
	// harness's baseline column.
	BoundCounting
)

func (m BoundMode) String() string {
	switch m {
	case BoundAuto:
		return "auto"
	case BoundLagrangian:
		return "lagrangian"
	case BoundCounting:
		return "counting"
	default:
		return fmt.Sprintf("BoundMode(%d)", int(m))
	}
}

const (
	// defaultAscentIters is the root subgradient budget when
	// ExactOptions.AscentIters is zero.
	defaultAscentIters = 64
	// ascentPerNode is the number of task-local refinement steps applied
	// to the root multipliers at every branch node before its dual value
	// is read (Lagrangian modes only).
	ascentPerNode = 2
	// dualSlack is subtracted before rounding a float dual value up to an
	// integer bound. It is orders of magnitude above the accumulated
	// floating-point error of the summations, so rounding can only lose
	// tightness, never validity.
	dualSlack = 1e-6
)

// dualRound converts a float Lagrangian value into a valid integer lower
// bound (costs are integral, so the optimum is an integer >= L).
func dualRound(l float64) int {
	b := int(math.Ceil(l - dualSlack))
	if b < 0 {
		return 0
	}
	return b
}

// dualScratch is the reusable workspace of one dual evaluation site (the
// root ascent, or one bbTask): multipliers and subgradient, both sized to
// the column universe.
type dualScratch struct {
	u []float64 // per-column multipliers
	g []float64 // subgradient workspace
}

func newDualScratch(numCols int) *dualScratch {
	return &dualScratch{u: make([]float64, numCols), g: make([]float64, numCols)}
}

// dualEval computes the Lagrangian value of the residual (uncovered,
// banned) at multipliers u. When grad is non-nil it also fills the
// projected subgradient — g_j = 1 − (negative-reduced-cost rows covering j)
// for uncovered j — and returns its squared norm. Rows and columns are
// visited in ascending order, so the result is a pure deterministic
// function of its inputs.
func (pl *ExactPlan) dualEval(u []float64, uncovered, banned *bitvec.Set, grad []float64) (val, gnorm2 float64) {
	if grad != nil {
		uncovered.ForEach(func(j int) { grad[j] = 1 })
	}
	uncovered.ForEach(func(j int) { val += u[j] })
	for r, row := range pl.p.rows {
		if banned.Contains(r) {
			continue
		}
		rc := float64(pl.rowCost(r))
		row.ForEachIn(uncovered, func(j int) { rc -= u[j] })
		if rc < 0 {
			val += rc
			if grad != nil {
				row.ForEachIn(uncovered, func(j int) { grad[j]-- })
			}
		}
	}
	if grad != nil {
		uncovered.ForEach(func(j int) { gnorm2 += grad[j] * grad[j] })
	}
	return val, gnorm2
}

// dualInit seeds the multipliers: u_j = (cheapest available row covering j)
// / (that row's column count). The classical warm start — each column
// claims an equal share of its cheapest row — lands the ascent in the right
// region immediately, which matters when the per-node budget is tiny.
func (pl *ExactPlan) dualInit(u []float64, uncovered, banned *bitvec.Set) {
	uncovered.ForEach(func(j int) {
		best := math.Inf(1)
		for _, r := range pl.colRows[j] {
			if banned.Contains(r) {
				continue
			}
			if v := float64(pl.rowCost(r)) / float64(pl.p.rows[r].Len()); v < best {
				best = v
			}
		}
		u[j] = best
	})
}

// dualAscend runs projected subgradient ascent from the multipliers in
// s.u, mutating them in place, and returns the best Lagrangian value seen.
// target is the upper bound the Held–Karp step size aims at (the residual's
// incumbent cost); agility is the initial step scale, decayed by 5% per
// iteration. The ascent stops early when the subgradient vanishes (u is
// dual-optimal) or the value reaches target (the caller will prune on it
// anyway). s.u holds the multipliers of the best value when it returns.
func (pl *ExactPlan) dualAscend(s *dualScratch, uncovered, banned *bitvec.Set, target float64, iters int, agility float64) float64 {
	best := math.Inf(-1)
	var bestU []float64 // lazily cloned only when an iteration improves
	f := agility
	for it := 0; it <= iters; it++ {
		val, gnorm2 := pl.dualEval(s.u, uncovered, banned, s.g)
		if val > best {
			best = val
			if iters > 0 {
				bestU = append(bestU[:0], s.u...)
			}
		}
		if it == iters || gnorm2 == 0 || best >= target {
			break
		}
		step := f * (target - val) / gnorm2
		if step <= 0 {
			break
		}
		uncovered.ForEach(func(j int) {
			if u := s.u[j] + step*s.g[j]; u > 0 {
				s.u[j] = u
			} else {
				s.u[j] = 0
			}
		})
		f *= 0.95
	}
	if bestU != nil {
		copy(s.u, bestU)
	}
	return best
}

// DualBound computes a provable lower bound on the optimal cover cost by
// Lagrangian subgradient ascent — the root bound the engine's
// BoundLagrangian mode prunes with, exposed for corpus tightness reports
// and for tests asserting the bound never exceeds a known optimum. A nil
// weights slice means unit costs; iters <= 0 uses the engine default
// ascent budget. The bound is deterministic for a given problem.
func (p *Problem) DualBound(weights []int, iters int) (int, error) {
	if weights != nil {
		if err := p.validateWeights(weights); err != nil {
			return 0, err
		}
	}
	if bad := p.UncoverableColumns(); bad != nil {
		return 0, fmt.Errorf("setcover: %d columns uncoverable (first: %d)", len(bad), bad[0])
	}
	if p.numCols == 0 {
		return 0, nil
	}
	greedy, err := p.solveGreedyImpl(weights)
	if err != nil {
		return 0, err
	}
	if iters <= 0 {
		iters = defaultAscentIters
	}
	pl := newPlan(p, weights)
	uncovered := bitvec.NewSet(p.numCols)
	uncovered.Fill()
	banned := bitvec.NewSet(p.NumRows())
	s := newDualScratch(p.numCols)
	pl.dualInit(s.u, uncovered, banned)
	best := pl.dualAscend(s, uncovered, banned, float64(greedy.Cost), iters, rootAgility)
	b := dualRound(best)
	if b > greedy.Cost {
		// Cannot happen (the ascent stops at target), but never report a
		// "lower bound" above a known-feasible cost.
		b = greedy.Cost
	}
	return b, nil
}

// rootAgility and nodeAgility are the initial Held–Karp step scales of the
// root ascent (many iterations, decaying) and the per-node refinements (a
// couple of conservative steps from the root multipliers).
const (
	rootAgility = 1.5
	nodeAgility = 0.7
)
