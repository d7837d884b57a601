package reseeding

// End-to-end determinism of the parallel solve pipeline: the whole flow —
// ATPG fault grading, Detection Matrix construction, reduction and exact
// covering — must compute the same solution for every Parallelism value.
// The per-layer guarantees live in internal/fsim, internal/dmatrix and
// internal/setcover; this test pins them down at the public API. Each
// Parallelism value prepares its own Flow with core.Prepare, so ATPG runs
// at every value: an Engine would serve every value but the first from
// its flow cache, whose key leaves Parallelism out.
//
// SolverNodes is zeroed before comparison: with a parallel covering solve
// the node count depends on pruning races against the shared incumbent, the
// one field the bit-identical guarantee explicitly excludes (it is an
// effort counter, like wall-clock time).

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
)

func TestSolveBitIdenticalAcrossParallelism(t *testing.T) {
	for _, circuit := range []string{"s420", "s820"} {
		scan, err := ScanView(circuit)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := NewTPG("adder", len(scan.Inputs))
		if err != nil {
			t.Fatal(err)
		}
		var reference *Solution
		for _, j := range []int{1, 2, runtime.GOMAXPROCS(0), 0} {
			flow, err := core.Prepare(scan, ATPGOptions{Seed: 1, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			sol, err := flow.Solve(gen, Options{Cycles: 32, Seed: 2, Parallelism: j})
			if err != nil {
				t.Fatal(err)
			}
			sol.SolverNodes = 0
			if reference == nil {
				reference = sol
				continue
			}
			if !reflect.DeepEqual(reference, sol) {
				t.Errorf("%s: solution at Parallelism %d differs from serial: %d triplets / length %d vs %d / %d",
					circuit, j, sol.NumTriplets(), sol.TestLength,
					reference.NumTriplets(), reference.TestLength)
			}
		}
	}
}
