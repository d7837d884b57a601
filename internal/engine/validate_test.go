package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/setcover"
)

// Validate is the one set of request rules shared by cmd/reseed and the
// HTTP server's 400 mapping: every rejection must be a typed *RequestError
// naming the offending field, every default-shaped request must pass.
func TestValidateTable(t *testing.T) {
	cases := []struct {
		name string
		req  Request
		// fields are the RequestError.Field values expected, in order; nil
		// means the request is valid.
		fields []string
	}{
		{"minimal named", Request{Circuit: "s420", TPG: "adder"}, nil},
		{"minimal inline", Request{Bench: "INPUT(a)\nOUTPUT(b)\nb = NOT(a)\n", TPG: "lfsr"}, nil},
		{"all knobs", Request{
			Circuit: "s820", TPG: "multiplier", Cycles: 64, Seed: 2, ATPGSeed: 3,
			Solver: "greedy-noreduce", Objective: "testlength", NoTrim: true,
			Parallelism: 4, MaxNodes: 100, SolveBudget: time.Second,
		}, nil},
		{"zero knobs mean defaults", Request{Circuit: "s420", TPG: "adder", Cycles: 0, MaxNodes: 0}, nil},

		{"no source", Request{TPG: "adder"}, []string{"request"}},
		{"both sources", Request{Circuit: "s420", Bench: "INPUT(a)", TPG: "adder"}, []string{"request"}},
		{"unknown benchmark", Request{Circuit: "sNaN", TPG: "adder"}, []string{"circuit"}},
		{"no tpg", Request{Circuit: "s420"}, []string{"tpg"}},
		{"unknown tpg", Request{Circuit: "s420", TPG: "quantum"}, []string{"tpg"}},
		{"unknown solver", Request{Circuit: "s420", TPG: "adder", Solver: "simplex"}, []string{"solver"}},
		{"unknown objective", Request{Circuit: "s420", TPG: "adder", Objective: "latency"}, []string{"objective"}},
		{"known bounds", Request{Circuit: "s420", TPG: "adder", Bound: "counting"}, nil},
		{"unknown bound", Request{Circuit: "s420", TPG: "adder", Bound: "simplex"}, []string{"bound"}},
		{"negative cycles", Request{Circuit: "s420", TPG: "adder", Cycles: -1}, []string{"cycles"}},
		{"negative max nodes", Request{Circuit: "s420", TPG: "adder", MaxNodes: -1}, []string{"max_nodes"}},
		{"negative budget", Request{Circuit: "s420", TPG: "adder", SolveBudget: -time.Second}, []string{"solve_budget"}},
		{"several violations at once", Request{TPG: "quantum", Cycles: -1, Solver: "simplex"},
			[]string{"request", "tpg", "solver", "cycles"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.req.Validate()
			if tc.fields == nil {
				if err != nil {
					t.Fatalf("valid request rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("invalid request accepted")
			}
			var reqErr *RequestError
			if !errors.As(err, &reqErr) {
				t.Fatalf("rejection is not a *RequestError: %v", err)
			}
			// Every expected field appears in the joined message (the
			// individual errors include their field names).
			for _, f := range tc.fields {
				if !strings.Contains(err.Error(), f+":") {
					t.Errorf("error does not mention field %q: %v", f, err)
				}
			}
			// errors.As surfaces the first violation.
			if reqErr.Field != tc.fields[0] {
				t.Errorf("first field = %q, want %q", reqErr.Field, tc.fields[0])
			}
		})
	}
}

// The Engine enforces Validate on the Solve path, and an unparseable
// inline source is also a typed client error even though it only surfaces
// inside the preparation.
func TestSolveRejectsWithTypedErrors(t *testing.T) {
	eng := New(Options{})
	_, err := eng.Solve(context.Background(), Request{Circuit: "s420", TPG: "quantum"})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || reqErr.Field != "tpg" {
		t.Errorf("Solve rejection not typed: %v", err)
	}
	if st := eng.Stats(); st.PrepareBuilds != 0 {
		t.Errorf("invalid request started work: %+v", st)
	}

	_, err = eng.Solve(context.Background(), Request{Bench: "this is not a netlist", TPG: "adder"})
	if !errors.As(err, &reqErr) || reqErr.Field != "bench" {
		t.Errorf("unparseable inline source not typed: %v", err)
	}

	// Prepare shares the circuit subset of the rules.
	_, _, err = eng.Prepare(context.Background(), Request{Circuit: "sNaN"})
	if !errors.As(err, &reqErr) || reqErr.Field != "circuit" {
		t.Errorf("Prepare rejection not typed: %v", err)
	}
}

// A request's bound names map to the solver's two modes: "", "auto" and
// "lagrangian" all name the Lagrangian bound.
func TestRequestBoundNames(t *testing.T) {
	for name, want := range map[string]setcover.BoundMode{
		"": setcover.BoundAuto, "auto": setcover.BoundAuto,
		"lagrangian": setcover.BoundAuto, "counting": setcover.BoundCounting,
	} {
		opts, err := Request{Bound: name}.coreOptions()
		if err != nil || opts.Exact.Bound != want {
			t.Errorf("bound %q mapped to %v, %v; want %v", name, opts.Exact.Bound, err, want)
		}
	}
}
