package corpus

// The committed graded corpus: tier specs, the embedded canonical .scp
// files they generate, and the golden-cost manifest. The files under
// instances/ and golden.json are committed artifacts — regenerate them
// with `benchgen -cover-corpus` after changing Specs, and let
// TestCorpusGolden/TestCommittedCorpusMatchesGenerator tell you if they
// drift.

import (
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/parallel"
)

// Tier grades the corpus by hardness for the exact solver.
type Tier string

const (
	// TierEasy instances are solved in microseconds by either bound;
	// they pin correctness, not performance.
	TierEasy Tier = "easy"
	// TierMedium instances take the counting bound thousands of nodes —
	// enough tree for pruning differences to show, still instant.
	TierMedium Tier = "medium"
	// TierHard instances are dense, where the counting bound collapses
	// (nearly all columns pairwise intersect) and the Lagrangian bound
	// carries the search. The ≥5x node-reduction acceptance target is
	// summed over this tier.
	TierHard Tier = "hard"
	// TierOpen instances are not solved to proven optimality by the
	// current solver within corpus budgets: golden records the best known
	// cost, and budgeted solves exercise the anytime contract.
	TierOpen Tier = "open"
)

// DefaultOpenNodeBudget bounds each open-tier solve: enough tree to make
// the anytime best-so-far meaningful, small enough to keep a serial pass
// over the corpus seconds-fast.
const DefaultOpenNodeBudget = 50_000

// Tiers lists the tiers in grading order.
func Tiers() []Tier { return []Tier{TierEasy, TierMedium, TierHard, TierOpen} }

// Spec names one corpus instance and the parameters that generate it.
type Spec struct {
	Name   string
	Tier   Tier
	Params Params
}

// Specs returns the corpus definition in canonical order (the order of
// instances/ and of every corpus test and benchmark). Dense hard-tier
// instances are where the counting bound degenerates; the open tier is
// sized beyond the corpus node budgets on purpose.
func Specs() []Spec {
	return []Spec{
		{"easy-1", TierEasy, Params{Rows: 25, Cols: 20, Density: 0.2, Costs: CostUnit, Seed: 101}},
		{"easy-2", TierEasy, Params{Rows: 30, Cols: 25, Density: 0.25, Costs: CostUnit, Seed: 102}},
		{"easy-3", TierEasy, Params{Rows: 30, Cols: 25, Density: 0.25, Costs: CostUniform, MaxCost: 20, Seed: 103}},
		{"easy-4", TierEasy, Params{Rows: 40, Cols: 30, Density: 0.3, Costs: CostUniform, Seed: 104}},
		{"medium-1", TierMedium, Params{Rows: 60, Cols: 40, Density: 0.3, Costs: CostUnit, Seed: 201}},
		{"medium-2", TierMedium, Params{Rows: 60, Cols: 45, Density: 0.35, Costs: CostUnit, Seed: 202}},
		{"medium-3", TierMedium, Params{Rows: 70, Cols: 50, Density: 0.3, Costs: CostUniform, MaxCost: 50, Seed: 203}},
		{"medium-4", TierMedium, Params{Rows: 80, Cols: 50, Density: 0.35, Costs: CostUniform, Seed: 204}},
		{"hard-1", TierHard, Params{Rows: 100, Cols: 60, Density: 0.45, Costs: CostUnit, Seed: 301}},
		{"hard-2", TierHard, Params{Rows: 110, Cols: 65, Density: 0.5, Costs: CostUnit, Seed: 302}},
		{"hard-3", TierHard, Params{Rows: 110, Cols: 70, Density: 0.4, Costs: CostUniform, Seed: 303}},
		{"hard-4", TierHard, Params{Rows: 120, Cols: 70, Density: 0.5, Costs: CostUnit, Seed: 304}},
		{"open-1", TierOpen, Params{Rows: 260, Cols: 180, Density: 0.3, Costs: CostUnit, Seed: 401}},
		{"open-2", TierOpen, Params{Rows: 340, Cols: 240, Density: 0.25, Costs: CostUniform, Seed: 402}},
	}
}

// GenerateAll generates every spec'd instance, fanning out across the
// internal/parallel pool. Each instance is produced from its own seeded
// generator, so the result — and its Format bytes — is identical for
// every parallelism value (1 forces serial, 0 one worker per processor).
func GenerateAll(parallelism int) ([]*Instance, error) {
	specs := Specs()
	out := make([]*Instance, len(specs))
	err := parallel.ForEach(parallel.Degree(parallelism), len(specs), func(_, i int) error {
		inst, err := Generate(specs[i].Name, specs[i].Params)
		if err != nil {
			return fmt.Errorf("corpus: generating %s: %w", specs[i].Name, err)
		}
		out[i] = inst
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

//go:embed instances/*.scp golden.json
var corpusFS embed.FS

// Load parses the committed corpus instance with the given name.
func Load(name string) (*Instance, error) {
	f, err := corpusFS.Open("instances/" + name + ".scp")
	if err != nil {
		return nil, fmt.Errorf("corpus: unknown instance %q: %w", name, err)
	}
	defer f.Close()
	return Parse(name, f)
}

// RawInstance returns the committed canonical bytes of an instance, for
// byte-identity checks against the generator.
func RawInstance(name string) ([]byte, error) {
	return corpusFS.ReadFile("instances/" + name + ".scp")
}

// LoadAll parses every committed instance, in Specs order.
func LoadAll() ([]*Instance, error) {
	out := make([]*Instance, 0, len(Specs()))
	for _, s := range Specs() {
		inst, err := Load(s.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, inst)
	}
	return out, nil
}

// Golden is one instance's committed reference entry.
type Golden struct {
	// Tier echoes the instance's tier, so consumers of golden.json alone
	// can grade without importing the specs.
	Tier Tier `json:"tier"`
	// Optimal is the proven optimal cover cost, or nil for open-tier
	// instances, where BestKnown records the best cost any run has found.
	Optimal *int `json:"optimal"`
	// BestKnown is the best cover cost ever recorded (equal to *Optimal
	// when Optimal is set). An open instance solved better than this is a
	// result worth committing.
	BestKnown int `json:"best_known"`
}

// GoldenManifest parses the committed golden.json: instance name →
// reference costs.
func GoldenManifest() (map[string]Golden, error) {
	raw, err := corpusFS.ReadFile("golden.json")
	if err != nil {
		return nil, fmt.Errorf("corpus: golden manifest: %w", err)
	}
	var m map[string]Golden
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("corpus: golden manifest: %w", err)
	}
	return m, nil
}

// FormatGolden renders a golden manifest in its canonical committed form
// (sorted keys, two-space indent, trailing newline).
func FormatGolden(m map[string]Golden) ([]byte, error) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("{\n")
	for i, name := range names {
		entry, err := json.Marshal(m[name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&sb, "  %q: %s", name, entry)
		if i < len(names)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	return []byte(sb.String()), nil
}
