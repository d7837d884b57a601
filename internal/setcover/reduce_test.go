package setcover

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/dmatrix"
	"repro/internal/fault"
	"repro/internal/tpg"
)

// reduceReference is the reduction reduceImpl replaced, kept as the
// reference it must match field for field: a column view of one Set per
// column, updated one Remove per column of every deactivated row, masked
// rows cloned every sweep, duplicate columns grouped through a hash map,
// and the residual assembled through a column-index map.
func (p *Problem) reduceReference(weights []int) *Reduction {
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
	red.ColMap = activeCol.Elements()
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

// sameReduction reports the first field in which got differs from want:
// nil and empty slices count as different, and the residuals must agree
// row by row.
func sameReduction(got, want *Reduction) error {
	fields := []struct {
		name      string
		got, want any
	}{
		{"Essential", got.Essential, want.Essential},
		{"DominatedRows", got.DominatedRows, want.DominatedRows},
		{"ImpliedCols", got.ImpliedCols, want.ImpliedCols},
		{"Iterations", got.Iterations, want.Iterations},
		{"RowMap", got.RowMap, want.RowMap},
		{"ColMap", got.ColMap, want.ColMap},
		{"weights", got.weights, want.weights},
		{"Residual.NumCols", got.Residual.NumCols(), want.Residual.NumCols()},
		{"Residual.NumRows", got.Residual.NumRows(), want.Residual.NumRows()},
	}
	for _, f := range fields {
		if !reflect.DeepEqual(f.got, f.want) {
			return fmt.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	for i := range want.Residual.NumRows() {
		if g, w := got.Residual.Row(i), want.Residual.Row(i); !g.Equal(w) {
			return fmt.Errorf("residual row %d = %v, want %v", i, g, w)
		}
	}
	return nil
}

// checkReduceMatchesReference reduces p under unit costs and under
// weights, and compares each Reduction with the reference's. The input
// must come out of both reductions unchanged.
func checkReduceMatchesReference(t *testing.T, name string, p *Problem, weights []int) {
	t.Helper()
	before := make([]*bitvec.Set, p.NumRows())
	for i := range before {
		before[i] = p.Row(i).Clone()
	}
	if err := sameReduction(p.Reduce(), p.reduceReference(nil)); err != nil {
		t.Fatalf("%s: Reduce: %v", name, err)
	}
	got, err := p.ReduceWeighted(weights)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sameReduction(got, p.reduceReference(weights)); err != nil {
		t.Fatalf("%s: ReduceWeighted: %v", name, err)
	}
	for i, r := range before {
		if !p.Row(i).Equal(r) {
			t.Fatalf("%s: reduction changed input row %d", name, i)
		}
	}
}

// randomReduceCase draws a problem and row weights from rng: 0 to 150
// rows, so row sets cross the 64-bit word boundary, 0 to 200 columns, a
// density from 0 to 1, some rows duplicated, and sometimes a column no row
// covers. The weights are unit about a third of the time.
func randomReduceCase(rng *rand.Rand) (*Problem, []int) {
	nRows, nCols := rng.Intn(151), rng.Intn(201)
	if rng.Intn(8) == 0 {
		nRows = 0
	}
	if rng.Intn(8) == 0 {
		nCols = 0
	}
	density := rng.Float64()
	uncoverable := -1
	if nCols > 0 && rng.Intn(4) == 0 {
		uncoverable = rng.Intn(nCols)
	}
	p := NewProblem(nCols)
	for i := 0; i < nRows; i++ {
		if i > 0 && rng.Intn(6) == 0 {
			p.AddRow(p.Row(rng.Intn(i)))
			continue
		}
		s := bitvec.NewSet(nCols)
		for j := 0; j < nCols; j++ {
			if j != uncoverable && rng.Float64() < density {
				s.Add(j)
			}
		}
		p.AddRow(s)
	}
	weights := make([]int, nRows)
	unit := rng.Intn(3) == 0
	for i := range weights {
		weights[i] = 1
		if !unit {
			weights[i] = rng.Intn(6)
		}
	}
	return p, weights
}

// serveMatrices builds the Detection Matrices of the serve benchmark's
// keys: six circuits × {adder, lfsr}, T = 32, ATPG seed 1, θ seeds 1 to
// 12, each with its test-length weights.
func serveMatrices(t testing.TB) (names []string, problems []*Problem, weights [][]int) {
	t.Helper()
	theta := int64(0)
	for _, circuit := range []string{"c432", "c499", "s420", "s641", "s820", "s953"} {
		c, err := bench.ScanView(circuit)
		if err != nil {
			t.Fatal(err)
		}
		all, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := atpg.Run(c, all, atpg.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var faults []fault.Fault
		for _, fi := range res.DetectedFaults() {
			faults = append(faults, all[fi])
		}
		for _, kind := range []string{"adder", "lfsr"} {
			theta++
			gen, err := tpg.ByName(kind, len(c.Inputs))
			if err != nil {
				t.Fatal(err)
			}
			m, err := dmatrix.Build(context.Background(), c, faults, res.Patterns, gen,
				dmatrix.Options{Cycles: 32, Seed: theta})
			if err != nil {
				t.Fatal(err)
			}
			p := NewProblem(m.NumFaults)
			w := make([]int, m.NumTriplets())
			for i, row := range m.Rows {
				p.AddRow(row)
				w[i] = m.EffectiveLength(i, row.Elements())
			}
			names = append(names, fmt.Sprintf("%s/%s/theta=%d", circuit, kind, theta))
			problems = append(problems, p)
			weights = append(weights, w)
		}
	}
	return names, problems, weights
}

// TestReduceMatchesReference checks that the word-at-a-time reduction
// returns exactly what the reference returns, every field and residual
// row, with unit costs and with weights: on random problems and on the
// serve benchmark's twelve Detection Matrices.
func TestReduceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := range 400 {
		p, w := randomReduceCase(rng)
		checkReduceMatchesReference(t, fmt.Sprintf("trial %d (%d×%d)", trial, p.NumRows(), p.NumCols()), p, w)
	}
	names, problems, weights := serveMatrices(t)
	for k, p := range problems {
		checkReduceMatchesReference(t, names[k], p, weights[k])
	}
}

func FuzzReduceMatchesReference(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(25))
	f.Add(int64(-7))
	f.Fuzz(func(t *testing.T, seed int64) {
		p, w := randomReduceCase(rand.New(rand.NewSource(seed)))
		checkReduceMatchesReference(t, fmt.Sprintf("seed %d", seed), p, w)
	})
}

// BenchmarkReduceServeMatrices reduces the serve benchmark's twelve
// Detection Matrices once with unit costs and once with their test-length
// weights per operation: the reduction serve's 24 keys ask for.
func BenchmarkReduceServeMatrices(b *testing.B) {
	_, problems, weights := serveMatrices(b)
	b.ResetTimer()
	for range b.N {
		for k, p := range problems {
			p.Reduce()
			if _, err := p.ReduceWeighted(weights[k]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
