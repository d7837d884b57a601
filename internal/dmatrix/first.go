package dmatrix

import (
	"math/bits"

	"repro/internal/bitvec"
)

// FirstTable is a Detection Matrix's first-detection table, one row-major
// cell per (triplet, fault). A cell holds one plus the index of the
// earliest pattern of the triplet's test set that detects the fault, and 0
// where the triplet does not detect it. A cell is as wide as the longest
// evolution length T needs: one byte for T ≤ 255, two up to 65 535, four
// beyond.
//
// At and Set read and write one cell. The loops that walk many cells —
// Grade's fill, EffectiveLength, RowLength and FirstDetectors — choose
// the width once per row or per pass, not once per cell.
type FirstTable struct {
	cols  int
	cells any // []uint8, []uint16 or []int32
}

// cell is the type of a FirstTable cell.
type cell interface{ uint8 | uint16 | int32 }

// NewFirstTable returns an all-zero table of rows × cols cells wide enough
// for first detections of evolution lengths up to cycles.
func NewFirstTable(rows, cols, cycles int) FirstTable {
	n := rows * cols
	switch {
	case cycles <= 1<<8-1:
		return FirstTable{cols: cols, cells: make([]uint8, n)}
	case cycles <= 1<<16-1:
		return FirstTable{cols: cols, cells: make([]uint16, n)}
	default:
		return FirstTable{cols: cols, cells: make([]int32, n)}
	}
}

// CellBytes returns the width of one cell in bytes: 1, 2 or 4.
func (t FirstTable) CellBytes() int {
	switch t.cells.(type) {
	case []uint8:
		return 1
	case []uint16:
		return 2
	default:
		return 4
	}
}

// At returns the earliest pattern index at which triplet i detects fault
// j, or -1 when it does not.
func (t FirstTable) At(i, j int) int {
	k := i*t.cols + j
	switch c := t.cells.(type) {
	case []uint8:
		return int(c[k]) - 1
	case []uint16:
		return int(c[k]) - 1
	default:
		return int(c.([]int32)[k]) - 1
	}
}

// Set records that triplet i first detects fault j at pattern index at,
// or, with at = -1, that it does not detect it. at must be below the
// cycles the table was made for.
func (t FirstTable) Set(i, j, at int) {
	k := i*t.cols + j
	switch c := t.cells.(type) {
	case []uint8:
		c[k] = uint8(at + 1)
	case []uint16:
		c[k] = uint16(at + 1)
	default:
		c.([]int32)[k] = int32(at + 1)
	}
}

// latest returns one past the latest first detection by triplet i among
// faults, or 0 when it detects none of them.
func (t FirstTable) latest(i int, faults []int) int {
	switch c := t.cells.(type) {
	case []uint8:
		return latestIn(c[i*t.cols:][:t.cols], faults)
	case []uint16:
		return latestIn(c[i*t.cols:][:t.cols], faults)
	default:
		return latestIn(c.([]int32)[i*t.cols:][:t.cols], faults)
	}
}

func latestIn[E cell](row []E, faults []int) int {
	var last E
	for _, fi := range faults {
		last = max(last, row[fi])
	}
	return int(last)
}

// rowLatest is latest over every fault: a cell is 0 where triplet i does
// not detect the fault, so it needs no fault list.
func (t FirstTable) rowLatest(i int) int {
	switch c := t.cells.(type) {
	case []uint8:
		return rowMax(c[i*t.cols:][:t.cols])
	case []uint16:
		return rowMax(c[i*t.cols:][:t.cols])
	default:
		return rowMax(c.([]int32)[i*t.cols:][:t.cols])
	}
}

func rowMax[E cell](row []E) int {
	var last E
	for _, v := range row {
		last = max(last, v)
	}
	return int(last)
}

// FirstDetectors assigns every fault to the row of rows (triplet indices)
// that detects it earliest, ties to the earlier position in rows. It
// returns, per fault, that position, or -1 where no row of rows detects
// the fault. Each row's detections are walked once.
func (m *Matrix) FirstDetectors(rows []int) []int {
	owner := make([]int, m.NumFaults)
	for fi := range owner {
		owner[fi] = -1
	}
	at := make([]int32, m.NumFaults) // the owner's cell
	t := m.FirstDetection
	for pos, i := range rows {
		switch c := t.cells.(type) {
		case []uint8:
			claim(c[i*t.cols:][:t.cols], m.Rows[i], pos, owner, at)
		case []uint16:
			claim(c[i*t.cols:][:t.cols], m.Rows[i], pos, owner, at)
		default:
			claim(c.([]int32)[i*t.cols:][:t.cols], m.Rows[i], pos, owner, at)
		}
	}
	return owner
}

// claim hands the row at position pos each fault it detects (the set
// bits of detected) that has no owner yet or whose owner detects it
// later.
func claim[E cell](row []E, detected *bitvec.Set, pos int, owner []int, at []int32) {
	for k, w := range detected.Words() {
		for ; w != 0; w &= w - 1 {
			fi := k*64 + bits.TrailingZeros64(w)
			if v := int32(row[fi]); owner[fi] < 0 || v < at[fi] {
				owner[fi], at[fi] = pos, v
			}
		}
	}
}
