package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/gatsby"
)

// A small-circuit sweep keeps the test fast while exercising the full
// Table 1 / Table 2 pipeline including the GATSBY baseline.
func smallConfig() Config {
	return Config{
		Circuits:   []string{"s420", "s820"},
		Cycles:     64,
		Seed:       1,
		WithGatsby: true,
		Gatsby: gatsby.Config{
			Population:  8,
			Generations: 6,
		},
	}
}

func TestRunSmallSuite(t *testing.T) {
	results, err := Run(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results", len(results))
	}
	for _, cr := range results {
		if cr.Faults == 0 || cr.Patterns == 0 {
			t.Errorf("%s: empty flow artifacts: %+v", cr.Circuit, cr)
		}
		for _, kind := range TPGKinds {
			tr := cr.ByTPG[kind]
			if tr == nil || tr.Solution == nil {
				t.Errorf("%s/%s: missing solution", cr.Circuit, kind)
				continue
			}
			s := tr.Solution
			if s.NumTriplets() == 0 || s.NumTriplets() > s.MatrixRows {
				t.Errorf("%s/%s: %d triplets of %d candidates",
					cr.Circuit, kind, s.NumTriplets(), s.MatrixRows)
			}
			// The headline claim: covering needs (far) fewer triplets than
			// the candidate set, and reduction prunes the matrix hard.
			if s.ResidualCols > s.MatrixCols/2 {
				t.Errorf("%s/%s: weak reduction %d -> %d cols",
					cr.Circuit, kind, s.MatrixCols, s.ResidualCols)
			}
			if tr.TooLarge {
				t.Errorf("%s/%s: small circuit rejected as too large", cr.Circuit, kind)
			}
			if tr.Gatsby == nil {
				t.Errorf("%s/%s: baseline missing", cr.Circuit, kind)
			}
		}
	}
}

// The paper's headline comparison: the covering solution never needs more
// triplets than the GA baseline needs for the same covered faults.
func TestCoveringBeatsOrMatchesGatsby(t *testing.T) {
	results, err := Run(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	wins, losses := 0, 0
	for _, cr := range results {
		for _, kind := range TPGKinds {
			tr := cr.ByTPG[kind]
			if tr.Gatsby == nil {
				continue
			}
			if tr.Solution.NumTriplets() < len(tr.Gatsby.Triplets) {
				wins++
			}
			if tr.Solution.NumTriplets() > len(tr.Gatsby.Triplets) {
				losses++
				t.Logf("%s/%s: covering %d vs GATSBY %d (coverage %.3f)",
					cr.Circuit, kind, tr.Solution.NumTriplets(),
					len(tr.Gatsby.Triplets), tr.Gatsby.Coverage)
			}
		}
	}
	// The paper reports one exception (s838) across its whole table; allow
	// a similar minority here but demand covering wins overall.
	if losses > wins {
		t.Errorf("covering lost more often than it won: %d wins, %d losses", wins, losses)
	}
}

// A cancelled ctx stops Run before its first circuit completes: no
// circuits, and an error wrapping the context's.
func TestRunCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := Run(ctx, smallConfig())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if len(results) != 0 {
		t.Errorf("cancelled run returned %d circuits, want none", len(results))
	}
}

func TestFeasibilityGateMirrorsPaper(t *testing.T) {
	// With a small budget the baseline must refuse, producing the paper's
	// "-" entries, while the covering flow still succeeds.
	cfg := smallConfig()
	cfg.Circuits = []string{"s420"}
	cfg.Gatsby.MaxFaults = 10
	results, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := results[0].ByTPG["adder"]
	if !tr.TooLarge {
		t.Error("expected the baseline to be gated off")
	}
	if tr.Solution == nil || tr.Solution.NumTriplets() == 0 {
		t.Error("covering flow must still run")
	}
}

func TestWriteTables(t *testing.T) {
	results, err := Run(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTable1(&b, results, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "s420") || !strings.Contains(b.String(), "GATSBY") {
		t.Errorf("Table 1 incomplete:\n%s", b.String())
	}
	b.Reset()
	if err := WriteTable2(&b, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x") {
		t.Errorf("Table 2 missing matrix sizes:\n%s", b.String())
	}
}

func TestTradeoffCurveShape(t *testing.T) {
	cfg := Config{Seed: 1, Cycles: 32}
	points, err := Tradeoff(context.Background(), "s420", "adder", []int{1, 8, 64, 256}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("%d points", len(points))
	}
	// Figure 2 shape: more test length, fewer (or equal) reseedings; the
	// extremes must differ for the curve to be meaningful.
	for i := 1; i < len(points); i++ {
		if points[i].Triplets > points[i-1].Triplets {
			t.Errorf("curve not monotone: %+v", points)
		}
	}
	if points[0].Triplets == points[len(points)-1].Triplets {
		t.Error("curve is flat; sweep range too narrow to show the trade-off")
	}
	var b strings.Builder
	if err := WriteFigure2(&b, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Test Length") {
		t.Errorf("figure rendering incomplete:\n%s", b.String())
	}
}

func TestTable1CircuitList(t *testing.T) {
	list := Table1Circuits()
	if len(list) != 16 {
		t.Errorf("Table 1 has %d circuits, want 16", len(list))
	}
	seen := map[string]bool{}
	for _, c := range list {
		if seen[c] {
			t.Errorf("duplicate circuit %s", c)
		}
		seen[c] = true
	}
	for _, want := range []string{"s1238", "s13207", "s15850", "c7552"} {
		if !seen[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestUnknownCircuitError(t *testing.T) {
	cfg := Config{Circuits: []string{"nope"}, Seed: 1}
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("expected error for unknown circuit")
	}
}
