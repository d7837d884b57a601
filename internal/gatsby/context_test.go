package gatsby

import (
	"context"
	"errors"
	"testing"

	"repro/internal/tpg"
)

// A cancelled context must abort the search before the first generation
// is graded (the GA has no meaningful partial result to keep).
func TestRunCancelledContext(t *testing.T) {
	c, faults := target(t)
	gen, _ := tpg.NewAdder(len(c.Inputs))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, c, faults, gen, Config{Seed: 1, Cycles: 64})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}
