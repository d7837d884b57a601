package cluster_test

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// FuzzDecodeLease feeds arbitrary bytes to the lease decoder a replica
// runs on every POST /v1/dist/subtree body: a decode either errors or
// returns a problem and options that survive a re-encode unchanged. The
// seeds are the cluster-smoke problem, a medium-1 corpus lease and the
// 2^40-column body that used to exhaust memory before any row was read.
func FuzzDecodeLease(f *testing.F) {
	f.Add([]byte(`{"solve_id":"smoke","problem":{"cols":4,"rows":["c","6","3","9","8"]},"opts":{},"branch":0}`))
	inst, err := corpus.Load("medium-1")
	if err != nil {
		f.Fatal(err)
	}
	lease, err := json.Marshal(cluster.SubtreeRequest{
		SolveID: "medium-1",
		Problem: cluster.EncodeProblem(inst.Problem, inst.Weights()),
		Opts:    cluster.EncodeOptions(setcover.ExactOptions{Bound: setcover.BoundCounting, AscentIters: 8}),
		Branch:  1,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(lease)
	f.Add([]byte(`{"solve_id":"crash","problem":{"cols":1099511627776,"rows":["1"]},"opts":{},"branch":0}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req cluster.SubtreeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		if p, w, err := req.Problem.Decode(); err == nil {
			p2, w2, err := cluster.EncodeProblem(p, w).Decode()
			if err != nil {
				t.Fatalf("re-encoded problem does not decode: %v", err)
			}
			if !sameProblem(p, p2) || (w == nil) != (w2 == nil) || !slices.Equal(w, w2) {
				t.Fatalf("problem changed across a re-encode: %d×%d %v → %d×%d %v",
					p.NumRows(), p.NumCols(), w, p2.NumRows(), p2.NumCols(), w2)
			}
		}
		if opts, err := req.Opts.Decode(); err == nil {
			opts2, err := cluster.EncodeOptions(opts).Decode()
			if err != nil {
				t.Fatalf("re-encoded options do not decode: %v", err)
			}
			if opts2.Bound != opts.Bound || opts2.AscentIters != opts.AscentIters {
				t.Fatalf("options changed across a re-encode: %+v → %+v", opts, opts2)
			}
		}
	})
}

func sameProblem(a, b *setcover.Problem) bool {
	if a.NumCols() != b.NumCols() || a.NumRows() != b.NumRows() {
		return false
	}
	for i := 0; i < a.NumRows(); i++ {
		if !a.Row(i).Equal(b.Row(i)) {
			return false
		}
	}
	return true
}

// The wire's bound names decode to the solver's two modes: "", "auto" and
// "lagrangian" all name the Lagrangian bound, so peers that still send
// "lagrangian" keep working.
func TestDecodeBoundNames(t *testing.T) {
	for name, want := range map[string]setcover.BoundMode{
		"": setcover.BoundAuto, "auto": setcover.BoundAuto,
		"lagrangian": setcover.BoundAuto, "counting": setcover.BoundCounting,
	} {
		opts, err := cluster.SolveOptionsWire{Bound: name}.Decode()
		if err != nil || opts.Bound != want {
			t.Errorf("bound %q decoded to %v, %v; want %v", name, opts.Bound, err, want)
		}
	}
	if _, err := (cluster.SolveOptionsWire{Bound: "simplex"}).Decode(); err == nil {
		t.Error("unknown bound name accepted")
	}
}
