package engine

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/tpg"
)

// Tracing is write-only telemetry: solving the same request with and
// without an obs trace on the context must produce bit-identical
// solutions, and the trace must never leak into the response beyond the
// Timing field. CI runs this under -race. Pinned by the observability
// acceptance criteria; do not weaken to a field-subset comparison.
func TestSolutionBitIdenticalTracingOnOff(t *testing.T) {
	for _, req := range []Request{s420Req(), s820Req()} {
		req := req
		t.Run(req.Circuit, func(t *testing.T) {
			t.Parallel()
			// Fresh engines per side so neither run warms the other's caches.
			plain, err := New(Options{}).Solve(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
			traced, err := New(Options{}).Solve(ctx, req)
			if err != nil {
				t.Fatal(err)
			}

			if plain.Timing != nil {
				t.Error("untraced solve has non-nil Response.Timing")
			}
			if traced.Timing == nil {
				t.Fatal("traced solve has nil Response.Timing")
			}

			a, err := json.Marshal(normalized(plain.Solution))
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(normalized(traced.Solution))
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("solution differs with tracing on:\noff: %s\non:  %s", a, b)
			}
		})
	}
}

// The traced solve's span tree must carry the documented phase spans
// with their parent links intact.
func TestTraceSpanTreeShape(t *testing.T) {
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
	resp, err := New(Options{}).Solve(ctx, s820Req())
	if err != nil {
		t.Fatal(err)
	}
	td := resp.Timing
	if td == nil {
		t.Fatal("nil Timing")
	}
	byName := make(map[string]obs.SpanData)
	byID := make(map[string]obs.SpanData)
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
		byID[sp.SpanID] = sp
	}
	for _, name := range []string{"solve", "prepare", "atpg", "matrix", "fsim", "covering", "reduce", "ascent", "bb"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("span %q missing from trace (have %d spans)", name, len(td.Spans))
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	for child, parent := range map[string]string{
		"prepare":  "solve",
		"matrix":   "solve",
		"covering": "solve",
		"atpg":     "prepare",
		"reduce":   "covering",
		"bb":       "covering",
	} {
		if got := byID[byName[child].Parent].Name; got != parent {
			t.Errorf("span %q parent = %q, want %q", child, got, parent)
		}
	}
	for _, sp := range td.Spans {
		if sp.Duration < 0 {
			t.Errorf("span %q has negative duration %d", sp.Name, sp.Duration)
		}
	}
}

// The atpg span explains its duration with PODEM's and the prover's
// effort: the searches, backtracks, proofs, conflicts and region miters
// behind the outcomes the run used are the same at every Parallelism, and
// no search is wasted when there are no workers to run ahead.
func TestATPGSpanCountsPodemEffort(t *testing.T) {
	for _, circuit := range []string{"s838", "s1238"} {
		req := Request{Circuit: circuit, TPG: "adder", Cycles: 32, Seed: 1}
		serial := spanAttrs(t, req, 1, "atpg")
		if w := serial["podem_wasted"]; w != 0 {
			t.Errorf("%s: podem_wasted = %d at Parallelism 1, want 0", circuit, w)
		}
		for _, j := range []int{2, 4, 0} {
			fanned := spanAttrs(t, req, j, "atpg")
			for _, key := range []string{"podem_searches", "podem_backtracks", "prover_untestable", "prover_conflicts", "prover_regions"} {
				if serial[key] == 0 || serial[key] != fanned[key] {
					t.Errorf("%s: %s = %d at Parallelism 1, %d at %d; want equal and non-zero", circuit, key, serial[key], fanned[key], j)
				}
			}
		}
	}
}

// The fsim span explains the matrix build's duration with the stem
// kernel's effort: region-root propagations, 64-pattern blocks and gate
// evaluations are the same at every Parallelism, and at T = 8 eight
// triplets share each block.
func TestFsimSpanCountsStems(t *testing.T) {
	req := Request{Circuit: "s838", TPG: "adder", Cycles: 8, Seed: 1}
	serial, fanned := spanAttrs(t, req, 1, "fsim"), spanAttrs(t, req, 4, "fsim")
	for _, key := range []string{"rows", "stems", "blocks", "gate_evals", "patterns_applied"} {
		if serial[key] == 0 || serial[key] != fanned[key] {
			t.Errorf("%s = %d at Parallelism 1, %d at 4; want equal and non-zero", key, serial[key], fanned[key])
		}
	}
	if rows, blocks := serial["rows"], serial["blocks"]; blocks != (rows+7)/8 {
		t.Errorf("%d blocks for %d rows at T = 8, want %d", blocks, rows, (rows+7)/8)
	}
}

// The reduce span explains its duration: the cells of the table it
// reduced, the sweeps to the fixpoint and what each technique removed,
// the same figures the solution reports.
func TestReduceSpanCountsTheReduction(t *testing.T) {
	req := Request{Circuit: "s820", TPG: "adder", Cycles: 32, Seed: 1, Parallelism: 1}
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
	resp, err := New(Options{}).Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	attrs := map[string]int64{}
	for _, sp := range resp.Timing.Spans {
		if sp.Name == "reduce" {
			for _, a := range sp.Attrs {
				attrs[a.Key] = a.Int
			}
		}
	}
	sol := resp.Solution
	want := map[string]int{
		"cells":          sol.MatrixRows * sol.MatrixCols,
		"iterations":     sol.ReductionIters,
		"essential":      sol.NumNecessary,
		"dominated_rows": sol.DominatedRows,
		"implied_cols":   sol.ImpliedCols,
		"residual_rows":  sol.ResidualRows,
		"residual_cols":  sol.ResidualCols,
	}
	for key, w := range want {
		if got, ok := attrs[key]; !ok || got != int64(w) {
			t.Errorf("reduce span %s = %d (recorded %v), want %d", key, got, ok, w)
		}
	}
	if attrs["cells"] == 0 || attrs["iterations"] == 0 || attrs["dominated_rows"] == 0 || attrs["implied_cols"] == 0 {
		t.Errorf("reduce span %v: want a reduction that deletes rows and columns", attrs)
	}
}

// spanAttrs solves req at Parallelism j on a fresh Engine with tracing on
// and returns the integer attributes of its span called name.
func spanAttrs(t *testing.T, req Request, j int, name string) map[string]int64 {
	t.Helper()
	req.Parallelism = j
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
	resp, err := New(Options{}).Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range resp.Timing.Spans {
		if sp.Name == name {
			m := make(map[string]int64)
			for _, a := range sp.Attrs {
				m[a.Key] = a.Int
			}
			return m
		}
	}
	t.Fatalf("no %s span", name)
	return nil
}

// A testlength solve takes the same reduce → residual path as a triplets
// solve: its trace records the reduce span, and its RootLB is the
// residual solve's root bound (the ascent span's root_lb) plus the weight
// of the essential rows, recomputed here from the Detection Matrix.
func TestTestLengthTraceHasReduceAndRootLB(t *testing.T) {
	eng := New(Options{})
	req := Request{Circuit: "c499", TPG: "adder", Cycles: 8, Seed: 1, Objective: "testlength", Parallelism: 1}
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTrace("test"))
	resp, err := eng.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	rootLB := int64(-1)
	reduced := false
	for _, sp := range resp.Timing.Spans {
		switch sp.Name {
		case "reduce":
			reduced = true
		case "ascent":
			for _, a := range sp.Attrs {
				if a.Key == "root_lb" {
					rootLB = a.Int
				}
			}
		}
	}
	if !reduced || rootLB < 0 {
		t.Fatalf("testlength trace lacks reduce (%v) or the ascent root_lb (%d)", reduced, rootLB)
	}

	flow, _, err := eng.Prepare(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tpg.ByName(req.TPG, len(flow.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := req.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	m, err := flow.BuildMatrix(gen, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := setcover.NewProblem(m.NumFaults)
	weights := make([]int, len(m.Rows))
	for i, row := range m.Rows {
		p.AddRow(row)
		weights[i] = m.EffectiveLength(i, row.Elements())
	}
	red, err := p.ReduceWeighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	essential := 0
	for _, r := range red.Essential {
		essential += weights[r]
	}
	if essential == 0 {
		t.Fatal("no essential weight: the test needs an instance whose reduction forces rows")
	}
	if want := int(rootLB) + essential; resp.Solution.RootLB != want {
		t.Errorf("RootLB = %d, want ascent root_lb %d + essential weight %d = %d",
			resp.Solution.RootLB, rootLB, essential, want)
	}
}
