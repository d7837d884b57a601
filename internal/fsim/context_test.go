package fsim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// A cancelled context must abort the run with the context's error before
// any further pattern block is simulated.
func TestRunCancelledContext(t *testing.T) {
	c := mustParse(t, "c17", c17Bench)
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	patterns := make([]bitvec.Vector, 8)
	for i := range patterns {
		patterns[i] = bitvec.Random(len(c.Inputs), rng)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = sim.Run(ctx, faults, patterns)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// A live context runs to completion.
	res, err := sim.Run(context.Background(), faults, patterns)
	if err != nil {
		t.Fatal(err)
	}
	if res.PatternsApplied == 0 {
		t.Error("live-context run simulated nothing")
	}
}
