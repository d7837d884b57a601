package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/tpg"
)

// RequestError reports one way a Request is invalid. It is the typed form
// behind every rejection of a malformed request, shared by the CLI clients
// and the HTTP server's 400 mapping: callers unwrap it with errors.As to
// distinguish "the request is wrong" (a client error) from "the solve
// failed" (a server error).
type RequestError struct {
	// Field is the JSON name of the offending Request field ("tpg",
	// "cycles", ...); "request" when the problem spans fields.
	Field string
	// Msg says what is wrong with it.
	Msg string
}

func (e *RequestError) Error() string {
	return fmt.Sprintf("engine: invalid request: %s: %s", e.Field, e.Msg)
}

func badField(field, format string, args ...any) *RequestError {
	return &RequestError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate checks every rule the Engine enforces on a Request before it
// solves: exactly one circuit source, a known benchmark name, a known TPG
// kind, solver, objective and bound, and non-negative numeric knobs (zero
// always means "use the default"). It returns nil or an error joining one
// *RequestError per violation. Engine.Solve calls it before any work
// starts, so callers only need it themselves to fail fast or to map errors
// without solving. Engine.Prepare checks only the circuit source, the one
// rule on the fields it reads (the circuit, ATPGSeed and Parallelism), so
// a request Prepare accepts may still fail Validate.
func (req Request) Validate() error {
	errs := req.validateCircuit()
	switch {
	case req.TPG == "":
		errs = append(errs, badField("tpg",
			"no TPG kind given (known: %s)", strings.Join(tpg.Kinds(), ", ")))
	case !slices.Contains(tpg.Kinds(), req.TPG):
		errs = append(errs, badField("tpg",
			"unknown TPG kind %q (known: %s)", req.TPG, strings.Join(tpg.Kinds(), ", ")))
	}
	if _, err := req.coreOptions(); err != nil {
		errs = append(errs, err)
	}
	if req.Cycles < 0 {
		errs = append(errs, badField("cycles", "negative evolution length %d", req.Cycles))
	}
	if req.MaxNodes < 0 {
		errs = append(errs, badField("max_nodes", "negative node budget %d", req.MaxNodes))
	}
	if req.SolveBudget < 0 {
		errs = append(errs, badField("solve_budget", "negative solve budget %v", req.SolveBudget))
	}
	return errors.Join(errs...)
}

// validateCircuit checks the circuit-identity subset of the rules — all
// that Engine.Prepare, which warms artifacts without solving, needs.
func (req Request) validateCircuit() []error {
	var errs []error
	switch {
	case req.Circuit == "" && req.Bench == "":
		errs = append(errs, badField("request",
			"neither a benchmark circuit name nor an inline bench source given"))
	case req.Circuit != "" && req.Bench != "":
		errs = append(errs, badField("request",
			"both a benchmark circuit (%q) and an inline bench source given; they are mutually exclusive", req.Circuit))
	case req.Circuit != "" && !slices.Contains(bench.List(), req.Circuit):
		errs = append(errs, badField("circuit",
			"unknown benchmark %q (known: %s)", req.Circuit, strings.Join(bench.List(), ", ")))
	}
	return errs
}
