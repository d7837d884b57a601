package main

// Output checks. Every answer is verified outside the timed window,
// against data the solver did not produce: circuit covers against their
// unreduced Detection Matrix, corpus covers against their instance and
// the committed golden costs.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// tapStore is an engine.ArtifactStore that never hits: loads always miss,
// so the Engine computes every artifact as it would with no store, and
// saves only keep a reference, in order. It lets the benchmark check an
// Engine's answer against the exact matrix the Engine solved.
type tapStore struct {
	mu       sync.Mutex
	flows    []*core.Flow      // guarded by mu
	matrices []*dmatrix.Matrix // guarded by mu
}

func (t *tapStore) LoadFlow(string) (*core.Flow, error)        { return nil, nil }
func (t *tapStore) LoadMatrix(string) (*dmatrix.Matrix, error) { return nil, nil }

func (t *tapStore) SaveFlow(_ string, f *core.Flow) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flows = append(t.flows, f)
	return nil
}

func (t *tapStore) SaveMatrix(_ string, m *dmatrix.Matrix) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.matrices = append(t.matrices, m)
	return nil
}

// saved returns the artifacts saved so far.
func (t *tapStore) saved() ([]*core.Flow, []*dmatrix.Matrix) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*core.Flow(nil), t.flows...), append([]*dmatrix.Matrix(nil), t.matrices...)
}

// problemOf is the unreduced covering problem of a Detection Matrix.
func problemOf(m *dmatrix.Matrix) *setcover.Problem {
	p := setcover.NewProblem(m.NumFaults)
	for _, row := range m.Rows {
		p.AddRow(row)
	}
	return p
}

// coverRows maps a solution's triplets back to rows of m.
func coverRows(m *dmatrix.Matrix, sol *core.Solution) ([]int, error) {
	used := make([]bool, len(m.Triplets))
	rows := make([]int, 0, len(sol.Triplets))
next:
	for _, st := range sol.Triplets {
		for i, t := range m.Triplets {
			if !used[i] && t.Cycles == st.Cycles && t.Delta.Equal(st.Delta) && t.Theta.Equal(st.Theta) {
				used[i] = true
				rows = append(rows, i)
				continue next
			}
		}
		return nil, fmt.Errorf("triplet %s is not a row of the Detection Matrix", st.Triplet)
	}
	return rows, nil
}

// checkCircuitCover verifies a reseeding solution against its unreduced
// Detection Matrix: the triplets cover every target fault, and a
// proven-optimal cover has no redundant triplet.
func checkCircuitCover(m *dmatrix.Matrix, sol *core.Solution) error {
	if sol == nil {
		return fmt.Errorf("no solution")
	}
	rows, err := coverRows(m, sol)
	if err != nil {
		return err
	}
	p := problemOf(m)
	if !p.Verify(rows) {
		return fmt.Errorf("%d triplets do not cover the %d target faults", len(rows), m.NumFaults)
	}
	if sol.Optimal && !p.Minimal(rows) {
		return fmt.Errorf("proven-optimal cover of %d triplets is redundant", len(rows))
	}
	if sol.NumNecessary+sol.NumFromSolver != len(rows) {
		return fmt.Errorf("necessary %d + solver %d != %d triplets", sol.NumNecessary, sol.NumFromSolver, len(rows))
	}
	return nil
}

// solveCorpus solves one corpus instance the way the cover workload does:
// default (Lagrangian) bound, serial, the open tier under its node budget.
func solveCorpus(ci coverInstance, bound setcover.BoundMode) (setcover.Solution, error) {
	opts := setcover.ExactOptions{Parallelism: 1, MaxNodes: ci.budget, Bound: bound}
	if w := ci.inst.Weights(); w != nil {
		return ci.inst.Problem.SolveExactWeighted(w, opts)
	}
	return ci.inst.Problem.SolveExact(opts)
}

// checkCorpusCover verifies a corpus answer against its instance. A
// proven-optimal cost must equal the committed golden cost, or, for a
// regenerated instance, the cost the counting bound proves (an
// independent search over the same instance).
func checkCorpusCover(ci coverInstance, sol setcover.Solution, golden map[string]corpus.Golden) error {
	p := ci.inst.Problem
	if !p.Verify(sol.Rows) {
		return fmt.Errorf("rows %v do not cover the instance", sol.Rows)
	}
	cost := 0
	for _, r := range sol.Rows {
		cost += ci.inst.Costs[r]
	}
	if cost != sol.Cost {
		return fmt.Errorf("reported cost %d, rows cost %d", sol.Cost, cost)
	}
	if sol.RootLB > cost {
		return fmt.Errorf("root bound %d above cover cost %d", sol.RootLB, cost)
	}
	if !sol.Optimal {
		if ci.budget == 0 {
			return fmt.Errorf("not proven optimal without a node budget")
		}
		return nil
	}
	if !p.Minimal(sol.Rows) {
		return fmt.Errorf("proven-optimal cover %v is redundant", sol.Rows)
	}
	want := -1
	if ci.committed {
		if g, ok := golden[ci.spec.Name]; ok && g.Optimal != nil {
			want = *g.Optimal
		}
	} else {
		ref, err := solveCorpus(ci, setcover.BoundCounting)
		if err != nil {
			return fmt.Errorf("counting-bound reference: %w", err)
		}
		if ref.Optimal {
			want = ref.Cost
		}
	}
	if want >= 0 && cost != want {
		return fmt.Errorf("proven-optimal cost %d, reference %d", cost, want)
	}
	return nil
}
