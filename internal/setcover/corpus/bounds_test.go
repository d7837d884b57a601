package corpus

import (
	"context"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
)

// boundCounts is the deterministic outcome of one serial solve: its nodes,
// cost, optimality and root lower bound, then the bb span's dual_evals,
// pruned_counting, pruned_dual and priced_cells (all zero when the root
// resolves the solve and records no bb span).
type boundCounts struct {
	nodes                                              int64
	cost                                               int
	optimal                                            bool
	rootLB                                             int
	dualEvals, prunedCounting, prunedDual, pricedCells int64
}

// bounds are the two lower bounds every corpus instance is solved under.
var bounds = [2]struct {
	name string
	mode setcover.BoundMode
}{{"counting", setcover.BoundCounting}, {"lagrangian", setcover.BoundAuto}}

// pinnedBounds is every corpus instance solved at Parallelism 1 under each
// of bounds, the open tier under DefaultOpenNodeBudget. Summed over the
// hard tier that is 25 937 nodes against 1 768; over all tiers 137 735
// against 103 531. The bb span's counters pin the search more finely than
// its node count: an ascent that stops one evaluation early moves
// dual_evals before it moves a node. A change that moves the search tree
// updates this table and says why.
var pinnedBounds = map[string][2]boundCounts{
	"easy-1":   {{1, 5, true, 5, 0, 0, 0, 0}, {1, 5, true, 5, 0, 0, 0, 0}},
	"easy-2":   {{107, 5, true, 3, 0, 85, 0, 0}, {9, 5, true, 4, 9, 2, 5, 477}},
	"easy-3":   {{98, 28, true, 14, 0, 79, 0, 0}, {14, 28, true, 26, 11, 8, 3, 647}},
	"easy-4":   {{57, 33, true, 5, 0, 50, 0, 0}, {24, 33, true, 28, 15, 18, 3, 1650}},
	"medium-1": {{6579, 5, true, 2, 0, 5892, 0, 0}, {823, 5, true, 4, 1025, 195, 480, 117405}},
	"medium-2": {{1731, 4, true, 1, 0, 1587, 0, 0}, {134, 4, true, 3, 175, 12, 111, 26052}},
	"medium-3": {{1125, 31, true, 3, 0, 1049, 0, 0}, {279, 31, true, 28, 99, 225, 35, 19779}},
	"medium-4": {{2098, 48, true, 10, 0, 1984, 0, 0}, {477, 48, true, 40, 181, 401, 52, 43976}},
	"hard-1":   {{22525, 3, true, 1, 0, 21568, 0, 0}, {1412, 3, true, 2, 2023, 455, 908, 843548}},
	"hard-2":   {{1415, 3, true, 1, 0, 1375, 0, 0}, {40, 3, true, 2, 79, 0, 39, 67263}},
	"hard-3":   {{477, 17, true, 2, 0, 456, 0, 0}, {273, 17, true, 15, 27, 254, 4, 16079}},
	"hard-4":   {{1520, 3, true, 1, 0, 1477, 0, 0}, {43, 3, true, 2, 98, 0, 42, 113667}},
	"open-1":   {{50001, 7, false, 1, 0, 49082, 0, 0}, {50001, 7, false, 3, 101244, 0, 49024, 79765458}},
	"open-2":   {{50001, 38, false, 2, 0, 49270, 0, 0}, {50001, 38, false, 26, 7533, 46168, 3100, 7954782}},
}

// boundOptions are the options of one serial solve under one bound, the
// open tier under DefaultOpenNodeBudget.
func boundOptions(tier Tier, bound setcover.BoundMode) setcover.ExactOptions {
	opts := setcover.ExactOptions{Bound: bound, Parallelism: 1}
	if tier == TierOpen {
		opts.MaxNodes = DefaultOpenNodeBudget
	}
	return opts
}

// solveBounds solves one corpus instance serially under both bounds and
// requires what holds for every instance: each solve's nodes, cost,
// optimality, root lower bound and bb span counters, read through an obs
// trace, equal its pinnedBounds row, a proven
// cost is the golden.json optimum, and where both bounds complete they
// return the same rows (the bound only prunes).
func solveBounds(t *testing.T, spec Spec, golden map[string]Golden) [2]setcover.Solution {
	t.Helper()
	want, ok := pinnedBounds[spec.Name]
	if !ok {
		t.Fatalf("%s: not in the pinned table", spec.Name)
	}
	inst, err := Load(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	var sols [2]setcover.Solution
	for k, bound := range bounds {
		tr := obs.NewTrace("test")
		opts := boundOptions(spec.Tier, bound.mode)
		opts.Context = obs.ContextWithTrace(context.Background(), tr)
		sol := solveInstance(t, inst, opts)
		bb := bbCounters(tr)
		got := boundCounts{sol.Nodes, sol.Cost, sol.Optimal, sol.RootLB, bb["dual_evals"], bb["pruned_counting"], bb["pruned_dual"], bb["priced_cells"]}
		if got != want[k] {
			t.Errorf("%s %s: got %+v, pinned %+v", spec.Name, bound.name, got, want[k])
		}
		if g := golden[spec.Name].Optimal; g != nil && sol.Optimal && sol.Cost != *g {
			t.Errorf("%s %s: proven cost %d, golden optimum %d", spec.Name, bound.name, sol.Cost, *g)
		}
		sols[k] = sol
	}
	c, l := sols[0], sols[1]
	if c.Optimal && l.Optimal && (c.Cost != l.Cost || !slices.Equal(c.Rows, l.Rows)) {
		t.Errorf("%s: bounds disagree: counting %v (cost %d), lagrangian %v (cost %d)", spec.Name, c.Rows, c.Cost, l.Rows, l.Cost)
	}
	return sols
}

// bbCounters returns the integer attributes of tr's bb span, empty when
// the trace holds none.
func bbCounters(tr *obs.Trace) map[string]int64 {
	got := make(map[string]int64)
	for _, sd := range tr.Snapshot() {
		if sd.Name == "bb" {
			for _, a := range sd.Attrs {
				got[a.Key] = a.Int
			}
		}
	}
	return got
}

// goldenManifest is GoldenManifest for a test.
func goldenManifest(t *testing.T) map[string]Golden {
	t.Helper()
	golden, err := GoldenManifest()
	if err != nil {
		t.Fatal(err)
	}
	return golden
}

// TestCommittedBenchCurrent: pinnedBounds holds one row per corpus
// instance, each with a node count under both bounds, and its hard tier
// already shows the 5x node reduction.
func TestCommittedBenchCurrent(t *testing.T) {
	var hardCounting, hardLagrangian int64
	for _, spec := range Specs() {
		row, ok := pinnedBounds[spec.Name]
		if !ok {
			t.Errorf("%s: not in the pinned table", spec.Name)
			continue
		}
		if row[0].nodes <= 0 || row[1].nodes <= 0 {
			t.Errorf("%s: pinned row has no node count: %+v", spec.Name, row)
		}
		if spec.Tier == TierHard {
			hardCounting += row[0].nodes
			hardLagrangian += row[1].nodes
		}
	}
	if len(pinnedBounds) != len(Specs()) {
		t.Errorf("pinned table has %d rows for %d specs", len(pinnedBounds), len(Specs()))
	}
	if hardLagrangian == 0 || hardCounting < 5*hardLagrangian {
		t.Errorf("pinned hard tier: counting %d nodes, lagrangian %d: reduction below the 5x floor", hardCounting, hardLagrangian)
	}
}

// TestCorpusMatchesCommittedBench solves every corpus instance serially
// under both bounds and requires each solve to match its pinnedBounds row,
// the golden optimum and the other bound's rows (solveBounds). A change
// that moves the search tree fails here.
func TestCorpusMatchesCommittedBench(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus double solve skipped in -short")
	}
	golden := goldenManifest(t)
	for _, spec := range Specs() {
		t.Run(spec.Name, func(t *testing.T) {
			solveBounds(t, spec, golden)
		})
	}
}

// TestLagrangianNodeReduction: summed over the hard tier's fresh serial
// solves, the Lagrangian bound must search at least 5x fewer nodes than
// the counting bound.
func TestLagrangianNodeReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("hard-tier double solve skipped in -short")
	}
	golden := goldenManifest(t)
	var hardCounting, hardLagrangian int64
	for _, spec := range Specs() {
		if spec.Tier != TierHard {
			continue
		}
		sols := solveBounds(t, spec, golden)
		hardCounting += sols[0].Nodes
		hardLagrangian += sols[1].Nodes
	}
	if hardLagrangian == 0 || hardCounting < 5*hardLagrangian {
		t.Errorf("hard tier: counting %d nodes, lagrangian %d: reduction below the 5x floor", hardCounting, hardLagrangian)
	}
}

// TestRunBoundsSubset runs both bounds on the easy tier, so -short still
// solves part of the corpus: each instance must be proven optimal under
// both, with a root lower bound in (0, cost].
func TestRunBoundsSubset(t *testing.T) {
	golden := goldenManifest(t)
	var n int
	for _, spec := range Specs() {
		if spec.Tier != TierEasy {
			continue
		}
		n++
		for k, sol := range solveBounds(t, spec, golden) {
			if !sol.Optimal {
				t.Errorf("%s %s: easy instance not solved to optimality", spec.Name, bounds[k].name)
			}
			if sol.RootLB <= 0 || sol.RootLB > sol.Cost {
				t.Errorf("%s %s: root lower bound %d outside (0, %d]", spec.Name, bounds[k].name, sol.RootLB, sol.Cost)
			}
		}
	}
	if n != 4 {
		t.Fatalf("easy tier has %d instances, want 4", n)
	}
}

// BenchmarkCorpusBounds times each corpus instance's serial solve under
// each bound, the open tier under DefaultOpenNodeBudget, and reports the
// solve's node count. Comparing an instance's lagrangian and counting
// ns/op is how the bound's wall-clock cost is read.
func BenchmarkCorpusBounds(b *testing.B) {
	for _, spec := range Specs() {
		inst, err := Load(spec.Name)
		if err != nil {
			b.Fatal(err)
		}
		for _, bound := range bounds {
			b.Run(spec.Name+"/"+bound.name, func(b *testing.B) {
				opts := boundOptions(spec.Tier, bound.mode)
				var nodes int64
				for b.Loop() {
					sol, err := solve(inst, opts)
					if err != nil {
						b.Fatal(err)
					}
					nodes = sol.Nodes
				}
				b.ReportMetric(float64(nodes), "nodes")
			})
		}
	}
}
