package atpg

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/fault"
)

// failAfter is a context whose Err starts reporting cancellation after
// its first n calls, from whichever goroutine makes them.
type failAfter struct {
	context.Context
	n, calls atomic.Int64
}

func (c *failAfter) Err() error {
	if c.calls.Add(1) > c.n.Load() {
		return context.Canceled
	}
	return nil
}

// TestCancelMidPodem cancels a four-worker run while PODEM searches are in
// flight: Run must return the wrapped context error, no result, and leave
// none of its goroutines behind. On s1238 the random phase and compaction
// check the context a few dozen times, the PODEM phase (consumer and
// workers) several hundred, so half of a full run's checks lands inside
// PODEM.
func TestCancelMidPodem(t *testing.T) {
	c, err := bench.ScanView("s1238")
	if err != nil {
		t.Fatal(err)
	}
	faults, _, err := fault.List(c)
	if err != nil {
		t.Fatal(err)
	}
	count := &failAfter{Context: context.Background()}
	count.n.Store(math.MaxInt64)
	if _, err := Run(c, faults, Options{Seed: 1, Parallelism: 4, Context: count}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx := &failAfter{Context: context.Background()}
	ctx.n.Store(count.calls.Load() / 2)
	res, err := Run(c, faults, Options{Seed: 1, Parallelism: 4, Context: ctx})
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled Run = %v, %v; want no result and an error wrapping context.Canceled", res, err)
	}
	// A worker has signalled its WaitGroup before Run returns, but may
	// still be a live goroutine for a moment after.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running after the cancelled Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
