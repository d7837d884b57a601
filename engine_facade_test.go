package reseeding

// Facade-level coverage of the Engine surface: PrepareCircuit's
// cancellation and content-addressed sharing, and the fault facade's
// collapsing statistics.

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// A cancelled context aborts PrepareCircuit instead of running the ATPG
// to completion.
func TestPrepareCircuitHonorsContext(t *testing.T) {
	scan, err := ScanView("s953")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = NewEngine(EngineOptions{}).PrepareCircuit(ctx, scan, ATPGOptions{Seed: 42})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PrepareCircuit returned %v, want context.Canceled", err)
	}
}

// FaultsWithStats must return the same list as Faults plus the collapsing
// statistics the plain helper discards.
func TestFaultsWithStats(t *testing.T) {
	src := `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
n1 = AND(a, b)
n2 = NOT(n1)
z = OR(n2, c)
`
	circ, err := ParseBench("tiny", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Faults(circ)
	if err != nil {
		t.Fatal(err)
	}
	list, stats, err := FaultsWithStats(circ)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(plain) {
		t.Errorf("list lengths differ: %d vs %d", len(list), len(plain))
	}
	if stats.Collapsed != len(list) {
		t.Errorf("stats.Collapsed = %d, list has %d", stats.Collapsed, len(list))
	}
	if stats.Total <= stats.Collapsed {
		t.Errorf("collapsing had no effect: total %d, collapsed %d", stats.Total, stats.Collapsed)
	}
	if stats.Classes != stats.Collapsed {
		t.Errorf("classes %d != collapsed %d", stats.Classes, stats.Collapsed)
	}
	if stats.MaxClass < 2 {
		t.Errorf("largest class %d, want >= 2", stats.MaxClass)
	}
}

// PrepareCircuit is content-addressed: two calls with content-equal
// circuits and equal options share one cached Flow (pointer identity),
// different options do not.
func TestPrepareCircuitSharesFlows(t *testing.T) {
	scanA, err := ScanView("s820")
	if err != nil {
		t.Fatal(err)
	}
	scanB, err := ScanView("s820") // distinct object, equal content
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(EngineOptions{})
	ctx := context.Background()
	f1, _, err := eng.PrepareCircuit(ctx, scanA, ATPGOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	f2, _, err := eng.PrepareCircuit(ctx, scanB, ATPGOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("equal circuits + options did not share the cached Flow")
	}
	f3, _, err := eng.PrepareCircuit(ctx, scanA, ATPGOptions{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if f3 == f1 {
		t.Error("different ATPG seed shared a cached Flow")
	}
}
