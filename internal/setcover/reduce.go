package setcover

import (
	"cmp"
	"math/bits"
	"slices"

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
//
// It works a word at a time. The table is transposed once into a column
// view, one ⌈rows/64⌉-word row set per column in a flat slab, and the
// active rows and columns are bit masks: deactivating a row clears one
// bit, and a column's active rows are its slab words ANDed with the row
// mask. Each sweep writes the active rows restricted to the active
// columns, and the active columns restricted to the active rows, into
// two arenas allocated once per call.
func (p *Problem) reduceImpl(weights []int) *Reduction {
	red := &Reduction{weights: slices.Clone(weights)}
	nRows, nCols := len(p.rows), p.numCols
	rw, cw := wordsFor(nRows), wordsFor(nCols)

	cols := p.columnView()
	col := func(j int) []uint64 { return cols[j*rw:][:rw] }
	activeRow, activeCol := fullMask(nRows), fullMask(nCols)
	rowArena, colArena := make([]uint64, nRows*cw), make([]uint64, nCols*rw)
	maskedRow := func(i int) []uint64 { return rowArena[i*cw:][:cw] }
	maskedCol := func(j int) []uint64 { return colArena[j*rw:][:rw] }
	masked := make([]sized, 0, max(nRows, nCols))
	kept := make([]sized, 0, nCols)

	for changed := true; changed; {
		changed = false
		red.Iterations++

		// Essentiality: a column covered by exactly one active row forces
		// that row into the solution; all columns it covers disappear.
		for k := range activeCol {
			for w := activeCol[k]; w != 0; w &= w - 1 {
				b := bits.TrailingZeros64(w)
				if activeCol[k]>>b&1 == 0 {
					continue // removed by an earlier essential this sweep
				}
				r := soleRow(col(k*64+b), activeRow)
				if r < 0 {
					continue // 0 rows would mean an uncoverable column; left for the solver to report
				}
				red.Essential = append(red.Essential, r)
				andNot(activeCol, p.rows[r].Words())
				clearBit(activeRow, r)
				changed = true
			}
		}
		if isEmpty(activeCol) {
			break
		}

		// Row dominance: drop any active row whose active coverage is a
		// subset of another active row's; ties keep the lower index.
		masked = masked[:0]
		forEach(activeRow, func(i int) {
			masked = append(masked, sized{i, andInto(maskedRow(i), p.rows[i].Words(), activeCol)})
		})
		// A row with empty active coverage is useless.
		for _, ri := range masked {
			if ri.size == 0 {
				clearBit(activeRow, ri.idx)
				red.DominatedRows = append(red.DominatedRows, ri.idx)
				changed = true
			}
		}
		slices.SortFunc(masked, func(a, b sized) int {
			if a.size != b.size {
				return cmp.Compare(a.size, b.size)
			}
			return cmp.Compare(b.idx, a.idx)
		})
		for a := 0; a < len(masked); a++ {
			ra := masked[a]
			if !has(activeRow, ra.idx) || ra.size == 0 {
				continue
			}
			for b := len(masked) - 1; b > a; b-- {
				rb := masked[b]
				if !has(activeRow, rb.idx) || !subsetOf(maskedRow(ra.idx), maskedRow(rb.idx)) {
					continue
				}
				victim := dominanceVictim(ra.idx, rb.idx, ra.size == rb.size, weights)
				if victim < 0 {
					continue // dominator is heavier: deletion unsafe
				}
				clearBit(activeRow, victim)
				red.DominatedRows = append(red.DominatedRows, victim)
				changed = true
				if victim == ra.idx {
					break
				}
			}
		}

		// Column dominance: if every row covering column l also covers
		// column j (l's row set ⊆ j's), then any cover of l covers j, so j
		// is implied and removed. Exactly the duplicates and the
		// non-minimal row sets go, whatever the order they are examined
		// in. Sorted by size, then row set, then index, equal columns are
		// adjacent behind the lowest index, which survives unless a
		// smaller row set kept before it is a subset of its own.
		masked = masked[:0]
		forEach(activeCol, func(j int) {
			masked = append(masked, sized{j, andInto(maskedCol(j), col(j), activeRow)})
		})
		slices.SortFunc(masked, func(a, b sized) int {
			if a.size != b.size {
				return cmp.Compare(a.size, b.size)
			}
			if c := slices.Compare(maskedCol(a.idx), maskedCol(b.idx)); c != 0 {
				return c
			}
			return cmp.Compare(a.idx, b.idx)
		})
		kept = kept[:0]
		for x, c := range masked {
			set := maskedCol(c.idx)
			implied := x > 0 && c.size == masked[x-1].size && slices.Equal(set, maskedCol(masked[x-1].idx))
			for _, l := range kept {
				if implied || l.size >= c.size {
					break
				}
				implied = subsetOf(maskedCol(l.idx), set)
			}
			if implied {
				clearBit(activeCol, c.idx)
				red.ImpliedCols++
				changed = true
			} else {
				kept = append(kept, c)
			}
		}
	}

	// Assemble the residual problem from the surviving columns' active rows.
	red.ColMap = make([]int, 0, count(activeCol))
	forEach(activeCol, func(j int) { red.ColMap = append(red.ColMap, j) })
	resRows := make([]*bitvec.Set, nRows)
	for k, j := range red.ColMap {
		andInto(maskedCol(j), col(j), activeRow)
		forEach(maskedCol(j), func(i int) {
			if resRows[i] == nil {
				resRows[i] = bitvec.NewSet(len(red.ColMap))
			}
			resRows[i].Add(k)
		})
	}
	red.Residual = NewProblem(len(red.ColMap))
	for i, s := range resRows {
		if s != nil {
			red.RowMap = append(red.RowMap, i)
			red.Residual.rows = append(red.Residual.rows, s)
		}
	}
	slices.Sort(red.Essential)
	slices.Sort(red.DominatedRows)
	return red
}

// columnView transposes the table into one flat slab of ⌈rows/64⌉ words
// per column, column j's row set at [j*⌈rows/64⌉, (j+1)*⌈rows/64⌉). It
// moves 64×64-bit blocks: 64 rows' k-th words in, 64 columns' words out.
func (p *Problem) columnView() []uint64 {
	rw := wordsFor(len(p.rows))
	cols := make([]uint64, p.numCols*rw)
	var block [64]uint64
	for rb := range rw {
		rows := p.rows[rb*64 : min(len(p.rows), (rb+1)*64)]
		for k := range wordsFor(p.numCols) {
			var or uint64
			for r, row := range rows {
				block[r] = row.Words()[k]
				or |= block[r]
			}
			if or == 0 {
				continue
			}
			clear(block[len(rows):])
			transpose64(&block)
			for c, w := range block[:min(64, p.numCols-k*64)] {
				cols[(k*64+c)*rw+rb] = w
			}
		}
	}
	return cols
}

// transpose64 transposes a 64×64 bit matrix in place, bit c of word r
// trading places with bit r of word c: it swaps the off-diagonal halves
// of every 2j×2j block, for j = 32 down to 1.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF) // the low j bits of every 2j
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << j
		}
		m ^= m << (j >> 1)
	}
}

// sized is a row or column of a sweep and the size of its masked set.
type sized struct{ idx, size int }

func wordsFor(n int) int { return (n + 63) / 64 }

// fullMask returns a mask of n bits, all set.
func fullMask(n int) []uint64 {
	m := make([]uint64, wordsFor(n))
	for k := range m {
		m[k] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		m[len(m)-1] = 1<<r - 1
	}
	return m
}

func has(m []uint64, i int) bool { return m[i/64]>>(i%64)&1 == 1 }

func clearBit(m []uint64, i int) { m[i/64] &^= 1 << (i % 64) }

// forEach calls fn for every set bit of m in ascending order.
func forEach(m []uint64, fn func(i int)) {
	for k, w := range m {
		for ; w != 0; w &= w - 1 {
			fn(k*64 + bits.TrailingZeros64(w))
		}
	}
}

func count(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

func isEmpty(m []uint64) bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// andInto stores a AND b into dst and returns its size.
func andInto(dst, a, b []uint64) int {
	n := 0
	for k := range dst {
		dst[k] = a[k] & b[k]
		n += bits.OnesCount64(dst[k])
	}
	return n
}

func andNot(dst, src []uint64) {
	for k := range dst {
		dst[k] &^= src[k]
	}
}

func subsetOf(a, b []uint64) bool {
	for k, w := range a {
		if w&^b[k] != 0 {
			return false
		}
	}
	return true
}

// soleRow returns the one active row of a column, or -1 when the column
// has none or several.
func soleRow(col, activeRow []uint64) int {
	r := -1
	for k, w := range col {
		if w &= activeRow[k]; w != 0 {
			if r >= 0 || w&(w-1) != 0 {
				return -1
			}
			r = k*64 + bits.TrailingZeros64(w)
		}
	}
	return r
}

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
