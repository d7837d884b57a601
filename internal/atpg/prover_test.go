package atpg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/bitvec"
	"repro/internal/fault"
	"repro/internal/fsim"
)

// model returns the primary-input pattern of the prover's satisfying
// assignment; an input outside the miter's good copy reads 0.
func model(pr *prover) bitvec.Vector {
	inMiter := make([]bool, len(pr.v.Nodes))
	for _, l := range pr.support {
		inMiter[l] = true
	}
	out := bitvec.New(len(pr.v.Inputs))
	for i, l := range pr.v.Inputs {
		if inMiter[l] && pr.s.val[pr.good[l]] == 1 {
			out.SetBit(i, true)
		}
	}
	return out
}

// TestProverAgreesWithPodem checks the prover against PODEM and the fault
// simulator on every fault the random phase leaves: a fault PODEM proves
// untestable must be UNSAT, and a fault PODEM detects must be SAT with a
// model that detects it. Faults PODEM aborts may go either way.
func TestProverAgreesWithPodem(t *testing.T) {
	for _, name := range []string{"c432", "s420", "s838", "s1238"} {
		t.Run(name, func(t *testing.T) {
			c, err := bench.ScanView(name)
			if err != nil {
				t.Fatal(err)
			}
			faults, _, err := fault.List(c)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Seed: 1, Parallelism: 1, Context: context.Background()}.WithDefaults()
			v := newView(c)
			sim := fsim.NewForView(&v.View)
			res := &Result{Detected: make([]bool, len(faults))}
			_, left, err := randomPhase(sim, len(c.Inputs), faults, opts, rand.New(rand.NewSource(opts.Seed)), res)
			if err != nil {
				t.Fatal(err)
			}
			gen := newPodem(v, opts.BacktrackLimit)
			var detected, untestable, aborted, abortedProved int
			for _, fi := range left {
				f := faults[fi]
				gen.setFault(f)
				status := gen.search().status
				vd, _ := gen.pr.prove(gen.site, gen.pin, gen.stuck, proverBudget)
				switch status {
				case statusUntestable:
					untestable++
					if vd != unsatisfiable {
						t.Errorf("PODEM proves %s untestable; prover verdict %d", f.String(c), vd)
					}
				case statusDetected:
					detected++
					if vd != satisfiable {
						t.Errorf("PODEM detects %s; prover verdict %d", f.String(c), vd)
						continue
					}
					fres, err := sim.Run(context.Background(), []fault.Fault{f}, []bitvec.Vector{model(gen.pr)})
					if err != nil {
						t.Fatal(err)
					}
					if !fres.Detected[0] {
						t.Errorf("the prover's model does not detect %s", f.String(c))
					}
				case statusAborted:
					aborted++
					if vd == unsatisfiable {
						abortedProved++
					}
				}
			}
			if detected == 0 || untestable == 0 {
				t.Errorf("%d detected, %d untestable: the check needs both", detected, untestable)
			}
			t.Logf("%d faults after the random phase: PODEM detects %d, proves %d untestable, aborts %d (%d of them UNSAT)",
				len(left), detected, untestable, aborted, abortedProved)
		})
	}
}
