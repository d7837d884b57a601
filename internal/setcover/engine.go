package setcover

// The branch-and-bound engine behind SolveExact and SolveExactWeighted.
// Cardinality covering is the weights == nil instantiation (every row costs
// 1); minimum-weight covering passes the per-row weight slice. One core
// means every bound, every pruning rule and every bugfix applies to both
// solvers at once.
//
// # Search shape
//
// Each node picks the uncovered column with the fewest still-available rows
// and branches on those rows, cheapest-per-newly-covered-column first.
// Branch i commits row r_i and bans rows r_0..r_{i-1} from its entire
// subtree: every cover contains some row of the column, so the bans
// partition the solution space and no cover is enumerated twice (the
// duplicate-sibling-subtree fix). Before branching, a node re-reduces its
// residual: a column with no available row kills the branch, a column with
// exactly one forces that row without spending a branch node — the
// classical essentiality rule re-applied under the current bans.
//
// # One fan-out: plan → per-branch search → merge
//
// Every exact solve takes one path. The exactPlan is the read-only half:
// the problem, its static column view, the root-forced rows, the root
// multipliers with the rows they price negative, and the canonical
// top-level branch list, computed once by the root node. A search is the
// per-run half: budgets, the stop flag, the shared incumbent cost and the
// observers. solveBB runs every top-level branch on the internal/parallel
// pool against one shared search (runBranch), and merge folds the
// branches' results into the Solution.
//
// # Determinism
//
// Solution.Rows is bit-identical for every Parallelism value, because of
// how the two bounds are combined:
//
//   - against the task-local bound (greedy seed cost, lowered only by the
//     branch's own finds) a node prunes when cost+lb >= bound — the
//     classical rule, so each branch reports the first optimum of its
//     subtree in DFS order, a value independent of the other workers;
//   - against the shared bound a node prunes only when cost+lb is STRICTLY
//     greater. The shared bound never drops below the global optimum C*, so
//     strict pruning can never cut a subtree containing a cost-C* cover: the
//     other branches' finds accelerate the search without changing any
//     branch's reported result.
//
// merge prefers lower cost, then the lower top-level branch index (better),
// so the answer is the first-discovered optimum of the lowest optimal
// branch — no matter how branches interleave. Only Solution.Nodes (an
// effort counter) depends on timing when Parallelism > 1, exactly as
// wall-clock time does.
//
// The guarantee covers solves that COMPLETE. A truncated solve (node
// budget, time budget or cancellation) returns whatever best-so-far the
// branches had found when the stop flag won the race, which is as
// timing-dependent as the budget itself; it is flagged Optimal = false.
//
// # Anytime contract
//
// A node budget (MaxNodes, shared across workers), a wall-clock budget
// (TimeBudget) and a cancellation Context all raise one stop flag; workers
// drain quickly and the best cover found so far — at worst the greedy seed,
// always a valid cover — is returned with Optimal = false and a nil error.

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// ExactOptions tunes the branch-and-bound engine shared by SolveExact,
// SolveExactWeighted and Reduction.SolveExact.
type ExactOptions struct {
	// MaxNodes bounds the search; 0 means 50 million nodes. The budget is
	// shared by all workers. If it is exhausted the best cover found so far
	// is returned with Optimal = false.
	MaxNodes int64
	// Parallelism bounds the worker pool exploring the top-level branches.
	// 1 forces the serial path; 0 (and any negative value) means one worker
	// per available processor. For solves that complete within their
	// budgets, Solution.Rows is bit-identical for every value
	// (Solution.Nodes is not; see its doc). Truncated solves return a
	// timing-dependent best-so-far, flagged Optimal = false.
	Parallelism int
	// TimeBudget, when positive, makes the solve anytime: the search stops
	// after roughly this much wall-clock time and the best cover found so
	// far is returned with Optimal = false.
	TimeBudget time.Duration
	// Context, when non-nil, is the other anytime trigger: cancellation
	// stops the search, returning the best cover found so far with
	// Optimal = false and a nil error.
	Context context.Context
	// OnIncumbent, when non-nil, observes the anytime progress of the
	// solve: it is invoked once for the greedy seed before the search
	// starts and again every time the shared incumbent is replaced — a
	// strictly better cost, or an equal-cost witness from a lower branch
	// (the deterministic merge). Calls are serialized (never concurrent),
	// costs are non-increasing across them, and the last snapshot always
	// describes the cover the solve returns. The callback runs on solver
	// goroutines while an internal lock is held: it must return quickly
	// and must not call back into the solver. Reduction.SolveExact
	// offsets snapshots by the essential rows chosen outside the residual
	// solve, so observers see whole-solution totals.
	OnIncumbent func(Incumbent)
	// OnSample, when non-nil, observes the search's progress at a coarse,
	// engine-chosen node cadence: each call carries the nodes expanded so
	// far, the best cover cost known so far, and the root lower bound —
	// the raw material of a bound-gap / nodes-per-second timeline. One
	// sample always fires right after the root node, so even tiny solves
	// produce a timeline point. Calls are serialized; the callback runs
	// on solver goroutines and must return quickly without calling back
	// into the solver. Samples are telemetry only: their values (like
	// Solution.Nodes) may vary run to run under Parallelism > 1, and
	// registering the callback never changes the returned Solution.
	// Reduction.SolveExact offsets samples like incumbents.
	OnSample func(Sample)

	// Bound selects the lower bound the search prunes with: BoundAuto (the
	// default) uses the Lagrangian dual bound — root subgradient
	// multipliers priced into every node's residual, combined with the
	// counting bound by max — while BoundCounting keeps the combinatorial
	// bound alone (the corpus tests' baseline). The mode
	// changes Nodes and wall time only: completed solves return
	// bit-identical Rows/Cost/Optimal in every mode.
	Bound BoundMode

	// noSiblingExclusion disables the duplicate-sibling-subtree fix so its
	// node-count reduction is assertable. Test hook only.
	noSiblingExclusion bool
}

// withIncumbentOffset returns options whose OnIncumbent and OnSample
// snapshots are shifted by the given cost and cardinality before
// reaching the original callbacks. Reduction.SolveExact uses it to
// account for the essential rows committed outside the residual solve,
// so observers see totals for the whole problem; options without
// callbacks pass through unchanged.
func (o ExactOptions) withIncumbentOffset(cost, rows int) ExactOptions {
	if (o.OnIncumbent == nil && o.OnSample == nil) || (cost == 0 && rows == 0) {
		return o
	}
	if inner := o.OnIncumbent; inner != nil {
		o.OnIncumbent = func(inc Incumbent) {
			inc.Cost += cost
			inc.Rows += rows
			inner(inc)
		}
	}
	if inner := o.OnSample; inner != nil {
		o.OnSample = func(s Sample) {
			s.Best += cost
			s.RootLB += cost
			inner(s)
		}
	}
	return o
}

// Sample is one periodic search-progress snapshot delivered to
// ExactOptions.OnSample. It deliberately carries no timestamp — the
// receiver stamps samples on arrival, so the solver core stays free of
// wall-clock reads.
type Sample struct {
	// Nodes is the number of branch-and-bound nodes expanded so far.
	Nodes int64
	// Best is the best cover cost known so far (the shared incumbent,
	// offset like OnIncumbent snapshots).
	Best int
	// RootLB is the root lower bound on the optimal cost (see
	// Solution.RootLB), offset like Best. Best-RootLB is the proven
	// optimality gap's upper bound at sample time.
	RootLB int
}

// Incumbent is one anytime progress snapshot of an exact covering solve:
// the best cover known so far. For unit-weight solves Cost equals Rows.
type Incumbent struct {
	// Cost is the incumbent cover's total cost (its cardinality for
	// unit-weight solves, its total weight for weighted ones).
	Cost int `json:"cost"`
	// Rows is the incumbent cover's cardinality.
	Rows int `json:"rows"`
	// Nodes is the number of branch-and-bound nodes expanded when the
	// incumbent was recorded; 0 identifies the greedy seed.
	Nodes int64 `json:"nodes"`
}

const defaultMaxNodes = 50_000_000

// unsetBranch orders the greedy seed after every real branch index, so a
// solver find at equal cost from any branch would win the merge — which
// cannot happen, since branches record strict improvements only.
const unsetBranch = int(^uint(0) >> 1)

// rootBranch is the branch index of a cover the root node resolves by
// itself; it orders before every top-level branch.
const rootBranch = -1

// better is the one answer-picking rule of an exact solve: a cover of cost
// found by branch replaces the incumbent (bestCost, bestBranch) when it is
// cheaper, or as cheap and from a lower top-level branch. merge picks the
// answer with it and the OnIncumbent path picks its snapshots with it, so
// the last snapshot describes the returned cover.
func better(cost, branch, bestCost, bestBranch int) bool {
	return cost < bestCost || (cost == bestCost && branch < bestBranch)
}

// exactPlan is the deterministic root state of an exact solve — the
// read-only half of the engine, ready to be fanned out branch by branch.
// Once plan returns, it is immutable and safe for the concurrent branch
// searches.
type exactPlan struct {
	p       *Problem
	weights []int     // nil ⇒ every row costs 1
	costs   []float64 // every row's cost as the dual prices it
	colRows [][]int   // static column view: colRows[j] = rows covering j
	colSets []*bitvec.Set
	// byCost is colRows with each list ordered by (weight, row), so a
	// column's cheapest available row is the first one not banned; nil for
	// unit weights.
	byCost  [][]int
	exclude bool // sibling-row exclusion enabled
	dual    bool // Lagrangian bound enabled

	greedy   Solution
	rootMult []float64 // root multipliers every node re-prices with
	// rootNeg lists, ascending, the rows of negative reduced cost in the
	// root residual at rootMult: the only rows that can price negative in
	// a node's first evaluation (see "The root filter" in dual.go). It is
	// non-nil when the bound is Lagrangian, even when empty.
	rootNeg []int
	rootLB  int // root cost + root lower bound: a global LB on the optimum

	// The root-forced rows (in every cover) and their total cost, the
	// residual columns, and the top-level branch rows in canonical order.
	forced     []int
	forcedCost int
	uncovered  *bitvec.Set
	branchRows []int
	// terminal is non-nil when the root resolved the solve by itself
	// (root-forced rows cover everything, the root bound proves the greedy
	// seed optimal, or the budget expired before the root): there is
	// nothing to fan out.
	terminal *Solution
}

// newPlan returns a plan holding only p's static column view; plan fills
// in the root.
func newPlan(p *Problem, weights []int) *exactPlan {
	pl := &exactPlan{p: p, weights: weights, colRows: make([][]int, p.numCols)}
	for i, r := range p.rows {
		r.ForEach(func(j int) { pl.colRows[j] = append(pl.colRows[j], i) })
	}
	pl.costs = make([]float64, len(p.rows))
	for r := range pl.costs {
		pl.costs[r] = float64(pl.rowCost(r))
	}
	pl.colSets = make([]*bitvec.Set, p.numCols)
	for j, rows := range pl.colRows {
		s := bitvec.NewSet(p.NumRows())
		for _, r := range rows {
			s.Add(r)
		}
		pl.colSets[j] = s
	}
	if weights != nil {
		pl.byCost = make([][]int, p.numCols)
		for j, rows := range pl.colRows {
			pl.byCost[j] = slices.Clone(rows)
			slices.SortStableFunc(pl.byCost[j], func(a, b int) int { return cmp.Compare(weights[a], weights[b]) })
		}
	}
	return pl
}

// plan runs the root node: re-reduction, the root lower bound with its
// optional multiplier ascent, and either a terminal solution or the
// top-level branch list. Only the tree-shaping options (Bound and the
// sibling-exclusion hook) are read. The root first checks the
// budgets of the solve's search s — an expired solve plans to the unproven
// greedy seed — and reports a cover the root resolves to s's observer.
// Callers have checked weights and coverability.
func (p *Problem) plan(weights []int, greedy Solution, opts ExactOptions, s *search) *exactPlan {
	if s.expired() {
		return &exactPlan{greedy: greedy, terminal: &Solution{Rows: greedy.Rows, Cost: greedy.Cost, Nodes: 1}}
	}
	pl := newPlan(p, weights)
	pl.greedy = greedy
	pl.exclude = !opts.noSiblingExclusion
	pl.dual = opts.Bound != BoundCounting
	uncovered := bitvec.NewSet(p.numCols)
	uncovered.Fill()
	banned := bitvec.NewSet(p.NumRows())
	var infos []colAvail
	chosen, cost, infeasible, branchCol := pl.propagate(nil, 0, uncovered, banned, &infos)
	if infeasible {
		// Cannot happen: every column is coverable and the root bans nothing.
		pl.terminal = &Solution{Rows: greedy.Rows, Cost: greedy.Cost, Optimal: true, Nodes: 1}
		return pl
	}
	if branchCol < 0 {
		// Essential rows alone cover everything; they are in every cover,
		// so this is the optimum. The greedy seed can only tie or lose.
		pl.rootLB = cost
		s.record(cost, len(chosen), rootBranch)
		sort.Ints(chosen)
		pl.terminal = &Solution{Rows: chosen, Cost: cost, Optimal: true, Nodes: 1, RootLB: cost}
		return pl
	}
	rootBound := pl.lowerBound(infos, banned, pl.newCountScratch())
	if pl.dual {
		// Root multiplier ascent: warm-start from the cheapest-row shares,
		// climb toward the greedy upper bound, and publish the multipliers
		// for every branch to re-price its residuals with, together with
		// the rows they price negative here.
		ds := pl.newDualScratch()
		pl.dualInit(ds.u, uncovered, banned)
		best, _ := pl.dualAscend(ds, uncovered, banned, nil, float64(greedy.Cost-cost), rootAscentSteps, rootAgility)
		pl.rootMult = ds.u
		pl.dualEval(ds, uncovered, banned, nil, nil)
		pl.rootNeg = ds.neg.Elements()
		if d := dualRound(best); d > rootBound {
			rootBound = d
		}
	}
	pl.rootLB = cost + rootBound
	if pl.rootLB >= greedy.Cost {
		// The greedy seed is proven optimal.
		pl.terminal = &Solution{Rows: greedy.Rows, Cost: greedy.Cost, Optimal: true, Nodes: 1, RootLB: pl.rootLB}
		return pl
	}
	pl.forced, pl.forcedCost, pl.uncovered = chosen, cost, uncovered
	pl.branchRows = pl.branchCandidates(branchCol, uncovered, banned)
	return pl
}

func (pl *exactPlan) rowCost(r int) int {
	if pl.weights == nil {
		return 1
	}
	return pl.weights[r]
}

// colAvail is one uncovered column of a node's stable residual with its
// available-row count, computed once by the final propagation scan and
// reused by the lower bound.
type colAvail struct{ col, avail int }

// scanColumns inspects every uncovered column under the current bans. It
// reports infeasible when some column has no available row left (a forced
// row cannot fix that: it would itself be an available row of the column);
// otherwise every single-available-row column, in ascending order, whose
// one row is in every cover of this subproblem; otherwise — on a clean
// scan — the branch column with the fewest available rows (ties toward the
// lower column index) with the per-column counts appended to *infos for
// the caller's lower bound. Availability is one word-level intersection
// per column, not a per-row probe.
func (pl *exactPlan) scanColumns(uncovered, banned *bitvec.Set, infos *[]colAvail) (infeasible bool, forcedCols []int, branchCol int) {
	branchCol = -1
	bestAvail := int(^uint(0) >> 1)
	*infos = (*infos)[:0]
	uncovered.ForEach(func(j int) {
		if infeasible {
			return
		}
		avail := len(pl.colRows[j]) - pl.colSets[j].IntersectionLen(banned)
		switch {
		case avail == 0:
			infeasible = true
		case avail == 1:
			forcedCols = append(forcedCols, j)
		default:
			*infos = append(*infos, colAvail{j, avail})
			if avail < bestAvail {
				bestAvail, branchCol = avail, j
			}
		}
	})
	return infeasible, forcedCols, branchCol
}

// propagate applies per-node re-reduction: it takes forced rows until the
// fixpoint, mutating chosen/cost/uncovered in place. It returns the new
// path state, infeasible when a column became uncoverable, and the branch
// column of the stable residual (-1 when uncovered emptied); infos then
// holds the residual's per-column availability for the lower bound.
//
// Availability depends only on banned, which propagate never mutates, so
// taking every collected forced column in one batch (skipping those a
// just-taken row already covered) reaches the fixpoint: the follow-up scan
// can force nothing new and only rebuilds infos/branchCol for the residual.
func (pl *exactPlan) propagate(chosen []int, cost int, uncovered, banned *bitvec.Set, infos *[]colAvail) (newChosen []int, newCost int, infeasible bool, branchCol int) {
	for {
		if uncovered.Empty() {
			return chosen, cost, false, -1
		}
		bad, forcedCols, col := pl.scanColumns(uncovered, banned, infos)
		if bad {
			return chosen, cost, true, -1
		}
		if forcedCols == nil {
			return chosen, cost, false, col
		}
		for _, j := range forcedCols {
			if !uncovered.Contains(j) {
				continue
			}
			r := pl.colSets[j].FirstNotIn(banned)
			chosen = append(chosen, r)
			cost += pl.rowCost(r)
			uncovered.AndNot(pl.p.rows[r])
		}
	}
}

// countScratch is the counting bound's reusable workspace, sized once to
// the plan: the rows of the picked columns, the counting sort's per-count
// offsets and its output.
type countScratch struct {
	usedRows *bitvec.Set
	next     []int      // next[a]: the next output slot of a column of availability a
	sorted   []colAvail // the residual's columns, rare columns first
}

func (pl *exactPlan) newCountScratch() *countScratch {
	return &countScratch{
		usedRows: bitvec.NewSet(pl.p.NumRows()),
		next:     make([]int, pl.p.NumRows()+2),
		sorted:   make([]colAvail, pl.p.numCols),
	}
}

// lowerBound greedily accumulates pairwise row-disjoint uncovered columns;
// each demands a distinct available row, so summing every picked column's
// cheapest available row bounds the remaining cost from below (with unit
// weights: the number of rows still required). Rare columns are visited
// first to maximize the disjoint set.
//
// lowerBound consumes the stable residual's availability counts computed
// by the final propagation scan (no recount), which lists the columns in
// ascending order. A stable counting sort by availability into cs's
// scratch therefore visits them in (availability, column) order, in time
// linear in the columns plus the largest availability. A picked column's
// cheapest available row is the first one of its byCost list not banned
// — and the constant 1 for unit weights. cs's contents are overwritten,
// and nothing is allocated.
func (pl *exactPlan) lowerBound(infos []colAvail, banned *bitvec.Set, cs *countScratch) int {
	maxAvail := 0
	for _, ci := range infos {
		maxAvail = max(maxAvail, ci.avail)
	}
	next := cs.next[:maxAvail+2]
	clear(next)
	for _, ci := range infos {
		next[ci.avail+1]++
	}
	for a := 1; a < len(next); a++ {
		next[a] += next[a-1]
	}
	sorted := cs.sorted[:len(infos)]
	for _, ci := range infos {
		sorted[next[ci.avail]] = ci
		next[ci.avail]++
	}
	// usedRows accumulates the available rows of picked columns, so it
	// never contains a banned row and one Intersects call per column is an
	// exact available-row disjointness test.
	usedRows := cs.usedRows
	usedRows.Clear()
	lb := 0
	for _, ci := range sorted {
		if usedRows.Intersects(pl.colSets[ci.col]) {
			continue
		}
		usedRows.Or(pl.colSets[ci.col])
		usedRows.AndNot(banned)
		if pl.weights == nil {
			lb++
			continue
		}
		for _, r := range pl.byCost[ci.col] {
			if !banned.Contains(r) {
				lb += pl.weights[r]
				break
			}
		}
	}
	return lb
}

// branchCandidates lists the available rows of the branch column ordered
// cheapest-per-newly-covered-column first (for unit weights: decreasing
// gain), ties toward the lower row index. Ratios compare by
// cross-multiplication, so the order is exact and platform independent.
func (pl *exactPlan) branchCandidates(col int, uncovered, banned *bitvec.Set) []int {
	type cand struct{ row, gain int }
	cands := make([]cand, 0, len(pl.colRows[col]))
	for _, r := range pl.colRows[col] {
		if !banned.Contains(r) {
			cands = append(cands, cand{r, pl.p.rows[r].IntersectionLen(uncovered)})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(pl.rowCost(a.row)*b.gain, pl.rowCost(b.row)*a.gain); c != 0 {
			return c
		}
		return cmp.Compare(a.row, b.row)
	})
	rows := make([]int, len(cands))
	for i, c := range cands {
		rows[i] = c.row
	}
	return rows
}

// search is the per-run half of an exact solve: budgets, the stop flag,
// the shared incumbent cost and the observers, over the plan pl.
type search struct {
	pl *exactPlan

	maxNodes int64
	deadline time.Time
	timed    bool
	ctx      context.Context

	nodes     atomic.Int64 // shared node budget and effort counter
	stop      atomic.Bool  // raised by budget, deadline or context
	truncated atomic.Bool  // some subtree was cut off: optimality unproven

	// sharedCost is the incumbent cost every branch prunes against at every
	// node. It only decreases; a stale read merely delays a prune.
	sharedCost atomic.Int64

	// bestCost and bestBranch describe the cover of the last OnIncumbent
	// snapshot; the answer itself comes from merge.
	mu          sync.Mutex
	bestCost    int             // guarded by mu
	bestBranch  int             // guarded by mu
	onIncumbent func(Incumbent) // set once at construction, fired under mu

	sampleMu sync.Mutex
	onSample func(Sample) // set once at construction, fired under sampleMu
}

// newSearch starts the per-run state of a solve whose incumbent is the
// greedy seed of cost greedyCost; the wall-clock budget starts now.
func newSearch(greedyCost int, opts ExactOptions) *search {
	s := &search{
		maxNodes:    opts.MaxNodes,
		ctx:         opts.Context,
		bestCost:    greedyCost,
		bestBranch:  unsetBranch,
		onIncumbent: opts.OnIncumbent,
		onSample:    opts.OnSample,
	}
	if s.maxNodes == 0 {
		s.maxNodes = defaultMaxNodes
	}
	if opts.TimeBudget > 0 {
		//reseedvet:ignore detsource -- TimeBudget deadline is timing-only: expiry truncates the search and is recorded in Solution.Optimal; the rows selected stay deterministic
		s.deadline = time.Now().Add(opts.TimeBudget)
		s.timed = true
	}
	s.sharedCost.Store(int64(greedyCost))
	return s
}

// expired reports whether the wall-clock budget or the context has run out.
func (s *search) expired() bool {
	//reseedvet:ignore detsource -- wall-clock budget check is timing-only: it can only stop the search early, and truncation is recorded in Solution.Optimal
	if s.timed && !time.Now().Before(s.deadline) {
		return true
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			return true
		default:
		}
	}
	return false
}

// halt raises the stop flag; every worker drains at its next node.
func (s *search) halt() {
	s.truncated.Store(true)
	s.stop.Store(true)
}

// record publishes a cover found by branch: it lowers the shared incumbent
// cost and, when the cover replaces the incumbent under better, fires
// OnIncumbent. Firing on every replacement — an equal-cost witness from a
// lower branch included — under s.mu keeps snapshots serialized and makes
// the last one describe the cover merge returns.
func (s *search) record(cost, rows, branch int) {
	if s.onIncumbent != nil {
		s.mu.Lock()
		if better(cost, branch, s.bestCost, s.bestBranch) {
			s.bestCost, s.bestBranch = cost, branch
			s.onIncumbent(Incumbent{Cost: cost, Rows: rows, Nodes: s.nodes.Load()})
		}
		s.mu.Unlock()
	}
	lowerCost(&s.sharedCost, int64(cost))
}

// sample delivers one OnSample snapshot; sampleMu serializes the callback.
func (s *search) sample(n int64) {
	if s.onSample == nil {
		return
	}
	smp := Sample{Nodes: n, Best: int(s.sharedCost.Load()), RootLB: s.pl.rootLB}
	s.sampleMu.Lock()
	s.onSample(smp)
	s.sampleMu.Unlock()
}

// lowerCost CASes v down to x when x is an improvement.
func lowerCost(v *atomic.Int64, x int64) {
	for {
		cur := v.Load()
		if x >= cur || v.CompareAndSwap(cur, x) {
			return
		}
	}
}

// branchResult is the outcome of one top-level branch, for merge.
type branchResult struct {
	// found reports that the branch improved on the greedy seed; rows and
	// cost are meaningful only then.
	found bool
	// rows is the improving cover, sorted and whole-solution: root-forced
	// rows included.
	rows []int
	// cost is the improving cover's total cost.
	cost int
	// nodes is the branch's share of the search's nodes.
	nodes int64
	// truncated reports that a budget or cancellation stopped the search
	// before the branch completed: its result is a best-so-far, and the
	// merge cannot prove optimality.
	truncated bool
}

// runBranch explores top-level branch i serially on s, pruning against the
// greedy cost as its task-local bound, and reports the branch's first
// optimum in DFS order with the branch's search counters.
func (s *search) runBranch(i int) (branchResult, bbCounts) {
	pl := s.pl
	t := &bbTask{s: s, branch: i, localBound: pl.greedy.Cost, cs: pl.newCountScratch()}
	banned := bitvec.NewSet(pl.p.NumRows())
	if pl.exclude {
		for _, row := range pl.branchRows[:i] {
			banned.Add(row)
		}
	}
	r := pl.branchRows[i]
	next := pl.uncovered.Clone()
	next.AndNot(pl.p.rows[r])
	chosen := make([]int, len(pl.forced), len(pl.forced)+8)
	copy(chosen, pl.forced)
	t.search(append(chosen, r), pl.forcedCost+pl.rowCost(r), next, banned)

	res := branchResult{nodes: t.nodes, truncated: s.truncated.Load()}
	if t.rows != nil {
		res.found, res.cost, res.rows = true, t.localBound, t.rows
		sort.Ints(res.rows)
	}
	return res, t.counts
}

// merge folds the branches' results, results[i] being top-level branch
// i's, into the Solution with the engine's one answer-picking rule
// (better): lower cost wins, ties resolve toward the lower branch, and the
// greedy seed stands when nothing improved on it. Each claimed cover is
// checked apart from the search that found it (accepts); a branch whose
// claim fails is dropped and left unproven. Optimal holds only when every
// branch completed and passed. Nodes is the root node plus every branch's
// nodes.
func (pl *exactPlan) merge(results []branchResult) Solution {
	best := Solution{Rows: pl.greedy.Rows, Cost: pl.greedy.Cost, Optimal: true, Nodes: 1, RootLB: pl.rootLB}
	bestBranch := unsetBranch
	for i, r := range results {
		best.Nodes += r.nodes
		valid := pl.accepts(r)
		if !valid || r.truncated {
			best.Optimal = false
		}
		if valid && r.found && better(r.cost, i, best.Cost, bestBranch) {
			best.Rows, best.Cost, bestBranch = r.rows, r.cost, i
		}
	}
	return best
}

// accepts reports whether a branch's claimed cover is real: its rows are
// ascending, distinct and in range, cover every column (Problem.Verify),
// and cost exactly the claimed cost under the plan's weights. A branch
// that found nothing claims nothing. The check is independent of the
// search, so a search fault surfaces as an unproven answer, never as a
// wrong "optimum".
func (pl *exactPlan) accepts(r branchResult) bool {
	if !r.found {
		return true
	}
	for i := 1; i < len(r.rows); i++ {
		if r.rows[i] <= r.rows[i-1] {
			return false
		}
	}
	return pl.p.Verify(r.rows) && coverCost(pl.weights, r.rows) == r.cost
}

// bbCounts are the counters that explain a search's time, summed over its
// branches into the bb span: the Lagrangian evaluations made at its nodes
// and the matrix cells they priced, the nodes the counting bound pruned,
// and the nodes the dual bound pruned after counting did not. Like nodes,
// they repeat exactly at Parallelism 1 and depend on pruning races above
// it.
type bbCounts struct {
	dualEvals, pricedCells, prunedCounting, prunedDual int64
}

// bbTask is one top-level branch explored serially by one worker.
type bbTask struct {
	s      *search
	branch int // merge tie-breaker
	// localBound is the task-local incumbent cost: recording is strict
	// improvement against it, which pins the branch's reported witness to
	// the first optimum in its own DFS order regardless of the other
	// workers. rows is that witness (nil until the branch finds a cover).
	localBound int
	rows       []int
	nodes      int64    // this branch's share of s.nodes
	counts     bbCounts // this branch's search counters
	// infos is the column-scan scratch, reused across the task's DFS: a
	// node is done with it before its children run.
	infos []colAvail
	// cs is the counting bound's scratch.
	cs *countScratch
	// ds is the task's dual workspace (Lagrangian modes only, allocated on
	// first use): a private multiplier copy refined per node.
	ds *dualScratch
}

// dualBound re-prices the node's residual with the shared root multipliers,
// over the root's negative rows only, refines a task-private copy with a
// few conservative ascent steps, and returns the rounded dual value. It
// depends only on the node's state and the task-local incumbent, so serial
// node counts are deterministic.
func (t *bbTask) dualBound(cost int, uncovered, banned *bitvec.Set) int {
	pl := t.s.pl
	if t.ds == nil {
		t.ds = pl.newDualScratch()
	}
	copy(t.ds.u, pl.rootMult)
	cells := t.ds.cells
	best, evals := pl.dualAscend(t.ds, uncovered, banned, pl.rootNeg, float64(t.localBound-cost), ascentPerNode, nodeAgility)
	t.counts.dualEvals += int64(evals)
	t.counts.pricedCells += t.ds.cells - cells
	return dualRound(best)
}

// search explores a subtree. chosen/cost describe the committed path,
// uncovered the remaining columns (owned by this call), banned the rows
// excluded by earlier sibling branches (owned by the caller, read-only
// here; descendants receive a clone before it is extended).
func (t *bbTask) search(chosen []int, cost int, uncovered, banned *bitvec.Set) {
	s, pl := t.s, t.s.pl
	if s.stop.Load() {
		return
	}
	t.nodes++
	n := s.nodes.Add(1)
	if n > s.maxNodes {
		s.halt()
		return
	}
	if n&127 == 0 && s.expired() {
		s.halt()
		return
	}
	// Telemetry sampling at a much coarser cadence than the budget
	// checks: cheap enough to leave always-on, frequent enough for a
	// useful nodes/sec trajectory.
	if n&4095 == 0 {
		s.sample(n)
	}

	chosen, cost, infeasible, branchCol := pl.propagate(chosen, cost, uncovered, banned, &t.infos)
	if infeasible {
		return
	}
	if branchCol < 0 { // covered
		if cost < t.localBound {
			t.localBound = cost
			t.rows = append(t.rows[:0], chosen...)
			s.record(cost, len(chosen), t.branch)
		}
		return
	}
	// The counting bound is cheap; the dual bound is evaluated only when
	// counting fails to prune, and the stronger of the two rules the node.
	lb := pl.lowerBound(t.infos, banned, t.cs)
	if cost+lb >= t.localBound || int64(cost+lb) > s.sharedCost.Load() {
		t.counts.prunedCounting++
		return
	}
	if pl.dual {
		if dlb := t.dualBound(cost, uncovered, banned); dlb > lb {
			lb = dlb
			if cost+lb >= t.localBound || int64(cost+lb) > s.sharedCost.Load() {
				t.counts.prunedDual++
				return
			}
		}
	}

	rows := pl.branchCandidates(branchCol, uncovered, banned)
	branchBanned := banned
	if pl.exclude {
		branchBanned = banned.Clone()
	}
	for _, r := range rows {
		if s.stop.Load() {
			return
		}
		next := uncovered.Clone()
		next.AndNot(pl.p.rows[r])
		t.search(append(chosen, r), cost+pl.rowCost(r), next, branchBanned)
		if pl.exclude {
			branchBanned.Add(r)
		}
	}
}

// solveBB is the shared entry point of SolveExact (weights == nil) and
// SolveExactWeighted: plan the root, run every top-level branch on the
// worker pool against one shared search, merge. Callers have validated
// weights already.
func (p *Problem) solveBB(weights []int, opts ExactOptions) (Solution, error) {
	if bad := p.UncoverableColumns(); bad != nil {
		return Solution{}, fmt.Errorf("setcover: %d columns uncoverable (first: %d)", len(bad), bad[0])
	}
	if p.numCols == 0 {
		return Solution{Optimal: true}, nil
	}
	greedy, err := p.solveGreedyImpl(weights)
	if err != nil {
		return Solution{}, err
	}
	s := newSearch(greedy.Cost, opts)
	s.nodes.Store(1) // the root is node 1 of the shared budget
	if s.onIncumbent != nil {
		s.onIncumbent(Incumbent{Cost: greedy.Cost, Rows: len(greedy.Rows)})
	}

	_, asp := obs.StartSpan(opts.Context, "ascent")
	s.pl = p.plan(weights, greedy, opts, s)
	asp.SetInt("root_lb", int64(s.pl.rootLB))
	asp.SetInt("greedy_cost", int64(greedy.Cost))
	asp.End()
	// One sample right after the root, so even a solve the root resolves
	// produces a timeline point.
	s.sample(1)
	if s.pl.terminal != nil {
		return *s.pl.terminal, nil
	}
	_, bsp := obs.StartSpan(opts.Context, "bb")
	results := make([]branchResult, len(s.pl.branchRows))
	counts := make([]bbCounts, len(results))
	bsp.SetInt("branches", int64(len(results)))
	_ = parallel.ForEach(parallel.Degree(opts.Parallelism), len(results), func(_, i int) error { // infallible: the worker fn below always returns nil
		results[i], counts[i] = s.runBranch(i)
		return nil
	})
	sol := s.pl.merge(results)
	var total bbCounts
	for _, c := range counts {
		total.dualEvals += c.dualEvals
		total.pricedCells += c.pricedCells
		total.prunedCounting += c.prunedCounting
		total.prunedDual += c.prunedDual
	}
	bsp.SetInt("nodes", sol.Nodes)
	bsp.SetInt("dual_evals", total.dualEvals)
	bsp.SetInt("priced_cells", total.pricedCells)
	bsp.SetInt("pruned_counting", total.prunedCounting)
	bsp.SetInt("pruned_dual", total.prunedDual)
	bsp.SetInt("cost", int64(sol.Cost))
	bsp.SetInt("optimal", b2i(sol.Optimal))
	bsp.End()
	return sol, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
