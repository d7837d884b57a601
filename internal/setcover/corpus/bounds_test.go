package corpus

import (
	"slices"
	"testing"

	"repro/internal/setcover"
)

// boundCounts is the deterministic outcome of one serial solve.
type boundCounts struct {
	nodes   int64
	cost    int
	optimal bool
	rootLB  int
}

// bounds are the two lower bounds every corpus instance is solved under.
var bounds = [2]struct {
	name string
	mode setcover.BoundMode
}{{"counting", setcover.BoundCounting}, {"lagrangian", setcover.BoundAuto}}

// pinnedBounds is every corpus instance solved at Parallelism 1 under each
// of bounds, the open tier under DefaultOpenNodeBudget. Summed over the
// hard tier that is 25 937 nodes against 1 768; over all tiers 137 735
// against 103 531. A change that moves the search tree updates this table
// and says why.
var pinnedBounds = map[string][2]boundCounts{
	"easy-1":   {{1, 5, true, 5}, {1, 5, true, 5}},
	"easy-2":   {{107, 5, true, 3}, {9, 5, true, 4}},
	"easy-3":   {{98, 28, true, 14}, {14, 28, true, 26}},
	"easy-4":   {{57, 33, true, 5}, {24, 33, true, 28}},
	"medium-1": {{6579, 5, true, 2}, {823, 5, true, 4}},
	"medium-2": {{1731, 4, true, 1}, {134, 4, true, 3}},
	"medium-3": {{1125, 31, true, 3}, {279, 31, true, 28}},
	"medium-4": {{2098, 48, true, 10}, {477, 48, true, 40}},
	"hard-1":   {{22525, 3, true, 1}, {1412, 3, true, 2}},
	"hard-2":   {{1415, 3, true, 1}, {40, 3, true, 2}},
	"hard-3":   {{477, 17, true, 2}, {273, 17, true, 15}},
	"hard-4":   {{1520, 3, true, 1}, {43, 3, true, 2}},
	"open-1":   {{50001, 7, false, 1}, {50001, 7, false, 3}},
	"open-2":   {{50001, 38, false, 2}, {50001, 38, false, 26}},
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
// optimality and root lower bound equal its pinnedBounds row, a proven
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
		sol := solveInstance(t, inst, boundOptions(spec.Tier, bound.mode))
		if got := (boundCounts{sol.Nodes, sol.Cost, sol.Optimal, sol.RootLB}); got != want[k] {
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
