package setcover_test

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// TestBBSpanCounters pins the bb span's search counters on corpus hard-1:
// two serial solves record the same dual_evals, priced_cells,
// pruned_counting and pruned_dual, each positive, no more nodes are pruned
// than were expanded, and no node runs more Lagrangian evaluations than
// its ascent budget allows.
func TestBBSpanCounters(t *testing.T) {
	inst, err := corpus.Load("hard-1")
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"nodes", "dual_evals", "priced_cells", "pruned_counting", "pruned_dual"}
	var first map[string]int64
	for run := 0; run < 2; run++ {
		tr := obs.NewTrace("test")
		opts := setcover.ExactOptions{Parallelism: 1, Context: obs.ContextWithTrace(context.Background(), tr)}
		if _, err := inst.Problem.SolveExactWeighted(inst.Costs, opts); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int64)
		for _, sd := range tr.Snapshot() {
			if sd.Name == "bb" {
				for _, a := range sd.Attrs {
					got[a.Key] = a.Int
				}
			}
		}
		for _, k := range keys {
			if _, ok := got[k]; !ok {
				t.Fatalf("bb span has no %s: %v", k, got)
			}
		}
		nodes := got["nodes"]
		if p := got["pruned_counting"] + got["pruned_dual"]; p > nodes {
			t.Errorf("%d nodes pruned of %d expanded", p, nodes)
		}
		if e := got["dual_evals"]; e > (setcover.AscentPerNode+1)*nodes {
			t.Errorf("%d dual evaluations over %d nodes, more than %d per node", e, nodes, setcover.AscentPerNode+1)
		}
		for _, k := range keys {
			if got[k] <= 0 {
				t.Errorf("%s reads %d on hard-1: %v", k, got[k], got)
			}
		}
		if first == nil {
			first = got
			continue
		}
		for _, k := range keys {
			if got[k] != first[k] {
				t.Errorf("%s: %d then %d across two serial solves", k, first[k], got[k])
			}
		}
	}
	t.Logf("hard-1 bb span: %v", first)
}
