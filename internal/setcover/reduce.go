package setcover

import (
	"slices"
	"sort"

	"repro/internal/bitvec"
)

// Reduction records the effect of iterated essentiality and dominance on a
// covering problem, and carries the residual subproblem left for an exact
// solver. Row/column indices in the report refer to the original problem.
// SolveExact and SolveGreedy finish the pipeline on it.
type Reduction struct {
	// Essential rows must appear in every irredundant cover (each uniquely
	// covers some column). They are part of the final solution.
	Essential []int
	// DominatedRows were deleted because another row covers a superset of
	// their remaining columns.
	DominatedRows []int
	// ImpliedCols counts columns deleted because covering some other column
	// implies covering them (column dominance, including duplicates).
	ImpliedCols int
	// Iterations is the number of reduction sweeps until the fixpoint.
	Iterations int

	// Residual is the reduced problem (possibly empty), with RowMap/ColMap
	// translating residual indices back to original ones.
	Residual *Problem
	RowMap   []int
	ColMap   []int

	// weights are the row weights the reduction honoured, nil for unit
	// costs; the residual is solved under them.
	weights []int
}

// Empty reports whether reduction alone solved the instance (the residual
// matrix has no columns left): the cover is exactly the essential rows.
func (r *Reduction) Empty() bool {
	return r.Residual == nil || r.Residual.NumCols() == 0
}

// Reduce applies essentiality, row dominance and column dominance until none
// of them changes the table, in the style of classical covering-table
// minimization. The input problem is not modified. A column no row covers
// stays in the residual, and solving the Reduction reports it.
func (p *Problem) Reduce() *Reduction { return p.reduceImpl(nil) }

// reduceImpl is the shared reduction engine. With non-nil weights, row
// dominance only deletes a row in favour of a dominator that is not
// heavier, preserving weighted optimality.
func (p *Problem) reduceImpl(weights []int) *Reduction {
	red := &Reduction{weights: slices.Clone(weights)}
	nRows, nCols := len(p.rows), p.numCols

	activeRow := make([]bool, nRows)
	for i := range activeRow {
		activeRow[i] = true
	}
	activeCol := bitvec.NewSet(nCols)
	activeCol.Fill()

	// Column view: colRows[j] = set of rows covering column j.
	colRows := make([]*bitvec.Set, nCols)
	for j := range colRows {
		colRows[j] = bitvec.NewSet(nRows)
	}
	for i, r := range p.rows {
		r.ForEach(func(j int) { colRows[j].Add(i) })
	}

	// masked returns row i's coverage restricted to active columns.
	scratch := bitvec.NewSet(nCols)
	masked := func(i int) *bitvec.Set {
		scratch.Clear()
		scratch.Or(p.rows[i])
		scratch.And(activeCol)
		return scratch
	}

	deactivateRow := func(i int) {
		activeRow[i] = false
		p.rows[i].ForEach(func(j int) { colRows[j].Remove(i) })
	}

	for changed := true; changed; {
		changed = false
		red.Iterations++

		// Essentiality: a column covered by exactly one active row forces
		// that row into the solution; all columns it covers disappear.
		for _, j := range activeCol.Elements() {
			if !activeCol.Contains(j) {
				continue // removed by an earlier essential this sweep
			}
			cr := colRows[j]
			if cr.Len() != 1 {
				continue // 0 would mean an uncoverable column; left for the solver to report
			}
			r := cr.First()
			red.Essential = append(red.Essential, r)
			activeCol.AndNot(p.rows[r])
			deactivateRow(r)
			changed = true
		}
		if activeCol.Empty() {
			break
		}

		// Row dominance: drop any active row whose active coverage is a
		// subset of another active row's. Group by hash first so identical
		// rows collapse cheaply; ties keep the lower index.
		type rowInfo struct {
			idx  int
			set  *bitvec.Set
			size int
		}
		var infos []rowInfo
		for i := range p.rows {
			if !activeRow[i] {
				continue
			}
			m := masked(i).Clone()
			infos = append(infos, rowInfo{idx: i, set: m, size: m.Len()})
		}
		// A row with empty active coverage is useless.
		for _, ri := range infos {
			if ri.size == 0 {
				deactivateRow(ri.idx)
				red.DominatedRows = append(red.DominatedRows, ri.idx)
				changed = true
			}
		}
		sort.Slice(infos, func(a, b int) bool {
			if infos[a].size != infos[b].size {
				return infos[a].size < infos[b].size
			}
			return infos[a].idx > infos[b].idx
		})
		for a := 0; a < len(infos); a++ {
			ra := infos[a]
			if !activeRow[ra.idx] || ra.size == 0 {
				continue
			}
			for b := len(infos) - 1; b > a; b-- {
				rb := infos[b]
				if !activeRow[rb.idx] || rb.size < ra.size {
					continue
				}
				if rb.idx == ra.idx {
					continue
				}
				if ra.set.SubsetOf(rb.set) {
					victim := dominanceVictim(ra.idx, rb.idx, ra.size == rb.size, weights)
					if victim < 0 {
						continue // dominator is heavier: deletion unsafe
					}
					deactivateRow(victim)
					red.DominatedRows = append(red.DominatedRows, victim)
					changed = true
					if victim == ra.idx {
						break
					}
				}
			}
		}

		// Column dominance: if every row covering column l also covers
		// column j (l's row set ⊆ j's), then any cover of l covers j, so j
		// is implied and removed. Duplicate columns collapse to one.
		// Group columns by row-set hash to keep this near-linear: matrices
		// from fault simulation contain large plateaus of identical columns.
		groups := make(map[uint64][]int)
		for _, j := range activeCol.Elements() {
			groups[colRows[j].Hash()] = append(groups[colRows[j].Hash()], j)
		}
		var uniq []int
		for _, g := range groups {
			// Collapse duplicates within the hash group.
			for len(g) > 0 {
				rep := g[0]
				rest := g[:0]
				for _, j := range g[1:] {
					if colRows[j].Equal(colRows[rep]) {
						activeCol.Remove(j)
						red.ImpliedCols++
						changed = true
					} else {
						rest = append(rest, j)
					}
				}
				uniq = append(uniq, rep)
				g = rest
			}
		}
		sort.Ints(uniq)
		for a := 0; a < len(uniq); a++ {
			ja := uniq[a]
			if !activeCol.Contains(ja) {
				continue
			}
			for b := 0; b < len(uniq); b++ {
				jb := uniq[b]
				if a == b || !activeCol.Contains(jb) || !activeCol.Contains(ja) {
					continue
				}
				// ja implied by jb: rows(jb) ⊆ rows(ja) and not equal.
				if colRows[jb].Len() < colRows[ja].Len() && colRows[jb].SubsetOf(colRows[ja]) {
					activeCol.Remove(ja)
					red.ImpliedCols++
					changed = true
					break
				}
			}
		}
	}

	// Assemble the residual problem.
	red.ColMap = assembleColMap(activeCol)
	colIndex := make(map[int]int, len(red.ColMap))
	for k, j := range red.ColMap {
		colIndex[j] = k
	}
	red.Residual = NewProblem(len(red.ColMap))
	for i := range p.rows {
		if !activeRow[i] {
			continue
		}
		s := bitvec.NewSet(len(red.ColMap))
		p.rows[i].ForEach(func(j int) {
			if k, ok := colIndex[j]; ok {
				s.Add(k)
			}
		})
		if s.Empty() {
			continue
		}
		red.RowMap = append(red.RowMap, i)
		red.Residual.AddRow(s)
	}
	sort.Ints(red.Essential)
	sort.Ints(red.DominatedRows)
	return red
}

func assembleColMap(activeCol *bitvec.Set) []int { return activeCol.Elements() }

// dominanceVictim decides which of two rows (a ⊆ b as column sets) may be
// deleted. equal reports set equality. It returns -1 when no deletion is
// safe under the weights.
func dominanceVictim(a, b int, equal bool, weights []int) int {
	if weights == nil {
		if equal && a < b {
			return b
		}
		return a
	}
	wa, wb := weights[a], weights[b]
	if equal {
		// Identical coverage: drop the heavier row (ties: higher index).
		if wa < wb || (wa == wb && a < b) {
			return b
		}
		return a
	}
	if wb <= wa {
		return a // strictly larger coverage at no extra weight
	}
	return -1
}
