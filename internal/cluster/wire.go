package cluster

// The distributed-solve wire protocol. A covering problem travels as hex
// row bitmaps (the repository's stable bit-vector encoding), options
// travel normalized, and a subtree lease is fully described by (problem,
// options, branch index) — any replica reconstructs the coordinator's
// exact plan from the first two and replays the lease bit-identically.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// ProblemWire is a setcover.Problem in transit: row bitmaps as
// most-significant-first hex over the column universe, plus optional
// per-row weights (nil means cardinality covering).
type ProblemWire struct {
	Cols    int      `json:"cols"`
	Rows    []string `json:"rows"`
	Weights []int    `json:"weights,omitempty"`
}

// EncodeProblem renders a problem (and optional weights) for the wire.
func EncodeProblem(p *setcover.Problem, weights []int) ProblemWire {
	w := ProblemWire{Cols: p.NumCols(), Rows: make([]string, p.NumRows())}
	for i := range w.Rows {
		w.Rows[i] = p.Row(i).Hex()
	}
	if weights != nil {
		w.Weights = append([]int(nil), weights...)
	}
	return w
}

// Decode rebuilds the problem. Weight-count mismatches and malformed
// bitmaps are errors. Every row must be exactly ⌈cols/4⌉ hex digits —
// what EncodeProblem writes — and a problem with columns must have rows.
// Both are checked before anything is allocated, so the column count is
// bounded by the size of the body that carried it.
func (w ProblemWire) Decode() (*setcover.Problem, []int, error) {
	if w.Cols < 0 {
		return nil, nil, fmt.Errorf("cluster: problem with %d columns", w.Cols)
	}
	if w.Cols > 0 && len(w.Rows) == 0 {
		return nil, nil, fmt.Errorf("cluster: problem with %d columns and no rows", w.Cols)
	}
	digits := (w.Cols + 3) / 4
	for i, h := range w.Rows {
		if len(h) != digits {
			return nil, nil, fmt.Errorf("cluster: row %d has %d hex digits, want %d for %d columns", i, len(h), digits, w.Cols)
		}
	}
	if w.Weights != nil && len(w.Weights) != len(w.Rows) {
		return nil, nil, fmt.Errorf("cluster: %d weights for %d rows", len(w.Weights), len(w.Rows))
	}
	p := setcover.NewProblem(w.Cols)
	for i, h := range w.Rows {
		row, err := bitvec.SetFromHex(w.Cols, h)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: row %d: %w", i, err)
		}
		p.AddRow(row)
	}
	var weights []int
	if w.Weights != nil {
		weights = append([]int(nil), w.Weights...)
	}
	return p, weights, nil
}

// Fingerprint is a content hash of the wire problem — the deterministic
// component of a solve id.
func (w ProblemWire) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "cols=%d\n", w.Cols)
	for _, r := range w.Rows {
		fmt.Fprintln(h, r)
	}
	for _, wt := range w.Weights {
		fmt.Fprintf(h, "w%d\n", wt)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// SolveOptionsWire is the tree-shaping subset of setcover.ExactOptions —
// the options that must agree between coordinator and workers for their
// plans to be equal. Budgets and parallelism are deliberately absent:
// they are per-lease and never change completed results.
type SolveOptionsWire struct {
	// Bound is "", "auto", "lagrangian" or "counting" ("" = auto).
	Bound string `json:"bound,omitempty"`
	// AscentIters follows setcover.ExactOptions semantics (0 = default,
	// negative = disabled).
	AscentIters int `json:"ascent_iters,omitempty"`
}

// EncodeOptions extracts the wire subset of opts.
func EncodeOptions(opts setcover.ExactOptions) SolveOptionsWire {
	w := SolveOptionsWire{AscentIters: opts.AscentIters}
	switch opts.Bound {
	case setcover.BoundCounting:
		w.Bound = "counting"
	case setcover.BoundLagrangian:
		w.Bound = "lagrangian"
	}
	return w
}

// Decode rebuilds the options.
func (w SolveOptionsWire) Decode() (setcover.ExactOptions, error) {
	opts := setcover.ExactOptions{AscentIters: w.AscentIters}
	switch w.Bound {
	case "", "auto":
		opts.Bound = setcover.BoundAuto
	case "lagrangian":
		opts.Bound = setcover.BoundLagrangian
	case "counting":
		opts.Bound = setcover.BoundCounting
	default:
		return opts, fmt.Errorf("cluster: unknown bound mode %q", w.Bound)
	}
	return opts, nil
}

// DistSolveRequest asks a replica to coordinate one distributed exact
// solve (POST /v1/dist/solve).
type DistSolveRequest struct {
	Problem ProblemWire      `json:"problem"`
	Opts    SolveOptionsWire `json:"opts"`
}

// SolutionWire is a setcover.Solution on the wire.
type SolutionWire struct {
	Rows    []int `json:"rows"`
	Cost    int   `json:"cost"`
	Optimal bool  `json:"optimal"`
	Nodes   int64 `json:"nodes"`
	RootLB  int   `json:"root_lb"`
}

// EncodeSolution renders a solution for the wire.
func EncodeSolution(s setcover.Solution) SolutionWire {
	return SolutionWire{Rows: s.Rows, Cost: s.Cost, Optimal: s.Optimal, Nodes: s.Nodes, RootLB: s.RootLB}
}

// Decode rebuilds the solution.
func (w SolutionWire) Decode() setcover.Solution {
	return setcover.Solution{Rows: w.Rows, Cost: w.Cost, Optimal: w.Optimal, Nodes: w.Nodes, RootLB: w.RootLB}
}

// SubtreeRequest is one subtree lease on the wire (POST /v1/dist/subtree).
type SubtreeRequest struct {
	// SolveID names the solve for incumbent exchange; the coordinator
	// generates it.
	SolveID string `json:"solve_id"`
	// Problem and Opts reconstruct the coordinator's plan.
	Problem ProblemWire      `json:"problem"`
	Opts    SolveOptionsWire `json:"opts"`
	// Branch is the top-level branch index of the lease.
	Branch int `json:"branch"`
	// Incumbent is the coordinator's best known cover cost at dispatch —
	// the worker's initial external bound (0 = none beyond the greedy
	// seed the worker computes itself).
	Incumbent int `json:"incumbent,omitempty"`
	// Coordinator, when non-empty, is the base URL the worker exchanges
	// incumbents with (POST {coordinator}/v1/dist/incumbent) while the
	// lease runs.
	Coordinator string `json:"coordinator,omitempty"`
	// Traceparent, when non-empty, is the coordinator's W3C trace
	// position for this lease (its per-branch lease span): the worker's
	// subtree span parents to it, so the shipped-back spans stitch into
	// the coordinator's trace. Telemetry only — it never affects the
	// search.
	Traceparent string `json:"traceparent,omitempty"`
}

// SubtreeResponse answers a lease.
type SubtreeResponse struct {
	SolveID string                 `json:"solve_id"`
	Result  setcover.SubtreeResult `json:"result"`
	// Spans are the worker-side trace spans of this lease (present only
	// when the lease carried a Traceparent); the coordinator folds them
	// into its own trace.
	Spans []obs.SpanData `json:"spans,omitempty"`
}

// IncumbentMsg is one incumbent exchange (POST /v1/dist/incumbent): the
// sender reports its best known cover cost for the solve (0 = none) and
// the reply carries the receiver's — after folding the report in, so the
// exchange is a commutative min.
type IncumbentMsg struct {
	SolveID string `json:"solve_id"`
	Cost    int    `json:"cost"`
}

// Board is the incumbent blackboard of in-flight distributed solves: the
// coordinator opens an entry per solve, every exchange folds a reported
// cover cost in by min, and readers prune against the entry. Costs are
// real cover costs (hence never below the optimum), so sharing them can
// only accelerate — never change — completed results. Safe for
// concurrent use.
type Board struct {
	mu   sync.Mutex
	best map[string]int
}

// NewBoard returns an empty board.
func NewBoard() *Board {
	return &Board{best: make(map[string]int)}
}

// Open registers a solve with its initial incumbent (the greedy seed
// cost). The returned func closes the entry; exchanges after close are
// answered but no longer stored, so the board cannot grow without bound
// on stale traffic.
func (b *Board) Open(id string, seed int) func() {
	b.mu.Lock()
	if cur, ok := b.best[id]; !ok || (seed > 0 && seed < cur) {
		b.best[id] = seed
	}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		delete(b.best, id)
		b.mu.Unlock()
	}
}

// Exchange folds a reported cost into the solve's entry (0 reports
// nothing) and returns the best cost known after the fold — 0 when the
// solve is unknown (finished, or never opened here).
func (b *Board) Exchange(id string, cost int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur, ok := b.best[id]
	if !ok {
		return 0
	}
	if cost > 0 && cost < cur {
		b.best[id] = cost
		return cost
	}
	return cur
}

// Best returns the solve's current incumbent (0 when unknown).
func (b *Board) Best(id string) int {
	return b.Exchange(id, 0)
}
