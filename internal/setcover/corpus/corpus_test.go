package corpus

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/setcover"
)

// TestSpecsWellFormed pins the corpus definition itself: unique names,
// known tiers, valid params, and at least one instance per tier.
func TestSpecsWellFormed(t *testing.T) {
	seen := make(map[string]bool)
	seeds := make(map[int64]bool)
	perTier := make(map[Tier]int)
	for _, s := range Specs() {
		if seen[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if seeds[s.Params.Seed] {
			t.Errorf("%s: duplicate seed %d", s.Name, s.Params.Seed)
		}
		seeds[s.Params.Seed] = true
		if err := s.Params.validate(); err != nil {
			t.Errorf("%s: invalid params: %v", s.Name, err)
		}
		if !strings.HasPrefix(s.Name, string(s.Tier)+"-") {
			t.Errorf("%s: name does not carry its tier %q", s.Name, s.Tier)
		}
		perTier[s.Tier]++
	}
	for _, tier := range Tiers() {
		if perTier[tier] == 0 {
			t.Errorf("tier %q has no instances", tier)
		}
	}
}

// TestCommittedCorpusMatchesGenerator regenerates every instance from its
// spec and requires byte-identity with the committed .scp file — the
// committed corpus IS the generator output, nothing hand-edited.
func TestCommittedCorpusMatchesGenerator(t *testing.T) {
	for _, spec := range Specs() {
		inst, err := Generate(spec.Name, spec.Params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RawInstance(spec.Name)
		if err != nil {
			t.Fatalf("%s: missing committed instance (run benchgen -cover-corpus): %v", spec.Name, err)
		}
		if got := FormatString(inst); !bytes.Equal([]byte(got), want) {
			t.Errorf("%s: committed bytes differ from generator output — regenerate with benchgen -cover-corpus", spec.Name)
		}
	}
}

// TestGenerateDeterminism: the same params must produce byte-identical
// output across repeated calls and across GenerateAll parallelism values.
func TestGenerateDeterminism(t *testing.T) {
	params := Params{Rows: 50, Cols: 35, Density: 0.3, Costs: CostUniform, MaxCost: 9, Seed: 777}
	a, err := Generate("det", params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("det", params)
	if err != nil {
		t.Fatal(err)
	}
	if FormatString(a) != FormatString(b) {
		t.Fatal("same params produced different bytes across calls")
	}

	var baseline []string
	for _, par := range []int{1, 2, 0} {
		instances, err := GenerateAll(par)
		if err != nil {
			t.Fatal(err)
		}
		rendered := make([]string, len(instances))
		for i, inst := range instances {
			rendered[i] = FormatString(inst)
		}
		if baseline == nil {
			baseline = rendered
			continue
		}
		for i := range rendered {
			if rendered[i] != baseline[i] {
				t.Fatalf("parallelism %d: instance %s bytes differ from serial generation", par, instances[i].Name)
			}
		}
	}
}

// checkWellFormed asserts the Balas–Ho instance guarantees.
func checkWellFormed(t *testing.T, inst *Instance) {
	t.Helper()
	p := inst.Problem
	if len(inst.Costs) != p.NumRows() {
		t.Fatalf("%s: %d costs for %d rows", inst.Name, len(inst.Costs), p.NumRows())
	}
	for i, c := range inst.Costs {
		if c < 1 {
			t.Fatalf("%s: row %d has non-positive cost %d", inst.Name, i, c)
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		if p.Row(i).Len() == 0 {
			t.Fatalf("%s: row %d covers nothing", inst.Name, i)
		}
	}
	cover := make([]int, p.NumCols())
	for i := 0; i < p.NumRows(); i++ {
		p.Row(i).ForEach(func(j int) { cover[j]++ })
	}
	for j, n := range cover {
		if n < 2 {
			t.Fatalf("%s: column %d covered by %d rows, Balas–Ho guarantees 2", inst.Name, j, n)
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	for _, spec := range Specs() {
		inst, err := Generate(spec.Name, spec.Params)
		if err != nil {
			t.Fatal(err)
		}
		checkWellFormed(t, inst)
	}
}

// FuzzBalasHo explores the parameter space: every accepted parameter set
// must yield a well-formed instance whose canonical form round-trips
// byte-identically through Parse.
func FuzzBalasHo(f *testing.F) {
	f.Add(10, 8, 0.3, false, 0, int64(1))
	f.Add(2, 1, 1.0, true, 1, int64(-5))
	f.Add(40, 30, 0.05, true, 200, int64(12345))
	f.Fuzz(func(t *testing.T, rows, cols int, density float64, uniform bool, maxCost int, seed int64) {
		if rows > 200 || cols > 200 {
			t.Skip("keep fuzz instances small")
		}
		costs := CostUnit
		if uniform {
			costs = CostUniform
		}
		params := Params{Rows: rows, Cols: cols, Density: density, Costs: costs, MaxCost: maxCost, Seed: seed}
		inst, err := Generate("fuzz", params)
		if err != nil {
			return // invalid params are rejected, not generated badly
		}
		checkWellFormed(t, inst)
		text := FormatString(inst)
		parsed, err := Parse("fuzz", strings.NewReader(text))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, text)
		}
		if FormatString(parsed) != text {
			t.Fatal("Parse ∘ Format is not the identity on canonical bytes")
		}
		// Format records the effective cost ceiling, so MaxCost comes back
		// normalized (0 → 100); everything else round-trips verbatim.
		want := params
		want.MaxCost = params.maxCost()
		if parsed.Params != want {
			t.Fatalf("params did not round-trip: %+v vs %+v", parsed.Params, want)
		}
	})
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no problem line":    "w 1\nr 0\n",
		"row before problem": "r 0\np scp 1 1\nw 1\n",
		"bad dimensions":     "p scp -1 2\n",
		"duplicate problem":  "p scp 1 1\np scp 1 1\nw 1\nr 0\n",
		"wrong weight count": "p scp 2 1\nw 1\nr 0\nr 0\n",
		"zero cost":          "p scp 1 1\nw 0\nr 0\n",
		"column overflow":    "p scp 1 2\nw 1\nr 0 2\n",
		"descending columns": "p scp 1 3\nw 1\nr 1 0\n",
		"too many rows":      "p scp 1 1\nw 1\nr 0\nr 0\n",
		"missing rows":       "p scp 2 1\nw 1 1\nr 0\n",
		"unknown line kind":  "p scp 1 1\nw 1\nr 0\nx 1\n",
		"no weights":         "p scp 1 1\nr 0\n",
	}
	for name, text := range cases {
		if _, err := Parse(name, strings.NewReader(text)); err == nil {
			t.Errorf("%s: Parse accepted %q", name, text)
		}
	}
}

// TestGoldenManifestComplete: every spec has a golden entry of its tier;
// non-open tiers carry a proven optimum, open tiers only a best-known.
func TestGoldenManifestComplete(t *testing.T) {
	golden, err := GoldenManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Specs() {
		g, ok := golden[spec.Name]
		if !ok {
			t.Errorf("%s: no golden entry", spec.Name)
			continue
		}
		if g.Tier != spec.Tier {
			t.Errorf("%s: golden tier %q, spec tier %q", spec.Name, g.Tier, spec.Tier)
		}
		if spec.Tier == TierOpen {
			if g.Optimal != nil {
				t.Errorf("%s: open-tier instance claims a proven optimum %d", spec.Name, *g.Optimal)
			}
			if g.BestKnown < 1 {
				t.Errorf("%s: open-tier instance has no best-known cost", spec.Name)
			}
		} else {
			if g.Optimal == nil {
				t.Errorf("%s: %s-tier instance lacks a proven optimum", spec.Name, spec.Tier)
			} else if g.BestKnown != *g.Optimal {
				t.Errorf("%s: best_known %d != optimal %d", spec.Name, g.BestKnown, *g.Optimal)
			}
		}
	}
	if len(golden) != len(Specs()) {
		t.Errorf("golden manifest has %d entries for %d specs", len(golden), len(Specs()))
	}
}

// solve runs the exact solver on one instance, weighted when the instance
// has costs.
func solve(inst *Instance, opts setcover.ExactOptions) (setcover.Solution, error) {
	if w := inst.Weights(); w != nil {
		return inst.Problem.SolveExactWeighted(w, opts)
	}
	return inst.Problem.SolveExact(opts)
}

// solveInstance runs one committed instance under the given options and
// checks the returned cover.
func solveInstance(t *testing.T, inst *Instance, opts setcover.ExactOptions) setcover.Solution {
	t.Helper()
	sol, err := solve(inst, opts)
	if err != nil {
		t.Fatalf("%s: %v", inst.Name, err)
	}
	if !inst.Problem.Verify(sol.Rows) {
		t.Fatalf("%s: solver returned an invalid cover %v", inst.Name, sol.Rows)
	}
	return sol
}

// TestCorpusGolden is the corpus acceptance test. Easy and medium tiers
// are solved to proven optimality on every run; the hard tier joins them
// outside -short; the open tier always runs under a node budget and must
// honour the anytime contract (valid best-so-far cover, Optimal=false,
// cost no worse than the committed best-known).
func TestCorpusGolden(t *testing.T) {
	golden, err := GoldenManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if spec.Tier == TierHard && testing.Short() {
				t.Skip("hard tier full solve skipped in -short")
			}
			inst, err := Load(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			g := golden[spec.Name]
			if spec.Tier == TierOpen {
				sol := solveInstance(t, inst, setcover.ExactOptions{MaxNodes: 2000})
				if sol.Optimal {
					t.Fatalf("open instance proved optimal within a 2000-node budget — it is not open, retier it")
				}
				if g.BestKnown > 0 && sol.Cost < g.BestKnown {
					t.Errorf("anytime solve beat best_known (%d < %d) — update golden.json", sol.Cost, g.BestKnown)
				}
				return
			}
			if g.Optimal == nil {
				t.Fatalf("no golden optimum for %s", spec.Name)
			}
			sol := solveInstance(t, inst, setcover.ExactOptions{})
			if !sol.Optimal {
				t.Fatalf("did not prove optimality (%d nodes)", sol.Nodes)
			}
			if sol.Cost != *g.Optimal {
				t.Fatalf("optimal cost %d, golden %d", sol.Cost, *g.Optimal)
			}
			if sol.RootLB > sol.Cost {
				t.Fatalf("RootLB %d exceeds optimal cost %d", sol.RootLB, sol.Cost)
			}
		})
	}
}

// TestDualBoundNeverExceedsGolden: the public DualBound is a true lower
// bound on every instance with a proven optimum.
func TestDualBoundNeverExceedsGolden(t *testing.T) {
	golden, err := GoldenManifest()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range Specs() {
		g := golden[spec.Name]
		if g.Optimal == nil {
			continue
		}
		inst, err := Load(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := inst.Problem.DualBound(inst.Weights(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if lb > *g.Optimal {
			t.Errorf("%s: DualBound %d exceeds golden optimum %d", spec.Name, lb, *g.Optimal)
		}
	}
}

// TestLoadAll parses every committed instance and checks well-formedness.
func TestLoadAll(t *testing.T) {
	instances, err := LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(instances) != len(Specs()) {
		t.Fatalf("LoadAll returned %d instances for %d specs", len(instances), len(Specs()))
	}
	for _, inst := range instances {
		checkWellFormed(t, inst)
	}
}

// TestGenerateRejectsBadParams nails the validation boundary.
func TestGenerateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{Rows: 1, Cols: 5, Density: 0.5},
		{Rows: 5, Cols: 0, Density: 0.5},
		{Rows: 5, Cols: 5, Density: 0},
		{Rows: 5, Cols: 5, Density: 1.1},
		{Rows: 5, Cols: 5, Density: 0.5, Costs: CostClass(9)},
		{Rows: 5, Cols: 5, Density: 0.5, MaxCost: -1},
	}
	for _, params := range bad {
		if _, err := Generate("bad", params); err == nil {
			t.Errorf("Generate accepted %+v", params)
		}
	}
}

// TestWeights pins the nil-for-unit convention the solvers rely on.
func TestWeights(t *testing.T) {
	unit := &Instance{Costs: []int{1, 1, 1}}
	if unit.Weights() != nil {
		t.Error("unit-cost instance should have nil Weights")
	}
	weighted := &Instance{Costs: []int{1, 2, 1}}
	if got := weighted.Weights(); len(got) != 3 {
		t.Errorf("weighted instance Weights = %v", got)
	}
}
