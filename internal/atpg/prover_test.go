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

// proveReference decides one fault on a miter of its own, the reference
// the region miters are checked against: a good copy of the input support
// of the observable outputs of the fault site's fanout cone, a faulty copy
// of that cone with the stuck value injected at the site, the activation
// literal as a clause, and the active-path clauses from the site. It
// resets the solver, so the verdict depends only on the view, the fault
// and the budget.
func proveReference(pr *prover, site int32, pin int, stuck byte, budget int) (verdict, int) {
	pr.epoch++
	pr.s.reset()
	if !pr.markCone(site) {
		return unsatisfiable, 0 // no output to observe the fault at
	}
	pr.markSupport()
	pr.encodeGood()
	v := pr.v
	stuckLit := pr.tru.flip(stuck == v0)
	fs, act := stuckLit, site
	if pin >= 0 {
		act = v.FaninOf(site)[pin]
		pr.ins = pr.ins[:0]
		for _, f := range v.FaninOf(site) {
			pr.ins = append(pr.ins, pr.good[f])
		}
		pr.ins[pin] = stuckLit
		fs = pr.gate(v.Nodes[site].Type, pr.ins)
	}
	pr.encodeFaulty(site, fs)
	pr.s.addClause(pr.good[act].flip(stuck == v1))
	pr.encodeActive(site)
	vd := pr.s.solve(nil, budget)
	return vd, pr.s.conflicts
}

// model returns the primary-input pattern of the prover's satisfying
// assignment; an input outside the miter's good copy reads 0. It must be
// read before the solver's next solve.
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

// afterRandomPhase runs Run's random phase on the named circuit at seed 1
// and returns the outcome pool over the faults it leaves, grouped by region
// as Run groups them, and the simulator.
func afterRandomPhase(t *testing.T, name string) (*outcomes, []int, *fsim.Simulator) {
	t.Helper()
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
	return newOutcomes(v, faults, left, opts), left, sim
}

// TestProverAgreesWithPodem checks the prover against PODEM and the fault
// simulator on every fault the random phase leaves, each decided on its
// region's miter in the order Run decides it: a fault PODEM proves
// untestable must be UNSAT, and a fault PODEM detects must be SAT with a
// model that detects it. Faults PODEM aborts may go either way.
func TestProverAgreesWithPodem(t *testing.T) {
	for _, name := range []string{"c432", "s420", "s838", "s1238"} {
		t.Run(name, func(t *testing.T) {
			o, left, sim := afterRandomPhase(t, name)
			c, gen := o.gens[0].v.Circuit, o.gens[0]
			var detected, untestable, aborted, abortedProved int
			for k := range o.regions {
				rg := &o.regions[k]
				encoded := gen.pr.encodeRegion(rg.root)
				for _, fi := range rg.faults {
					f := o.faults[fi]
					vd := unsatisfiable
					var pattern bitvec.Vector
					if encoded {
						vd, _ = gen.pr.prove(rg.root, f, proverBudget)
						if vd == satisfiable {
							pattern = model(gen.pr)
						}
					}
					switch gen.generate(f, proof{}).status {
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
						fres, err := sim.Run(context.Background(), []fault.Fault{f}, []bitvec.Vector{pattern})
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
			}
			if detected == 0 || untestable == 0 {
				t.Errorf("%d detected, %d untestable: the check needs both", detected, untestable)
			}
			t.Logf("%d faults after the random phase in %d regions: PODEM detects %d, proves %d untestable, aborts %d (%d of them UNSAT)",
				len(left), len(o.regions), detected, untestable, aborted, abortedProved)
		})
	}
}

// decideAll decides every region of o as Run's workers do, on one prover.
func decideAll(o *outcomes) {
	for k := range o.regions {
		rg := &o.regions[k]
		rg.encoded = o.gens[0].pr.decide(rg.root, o.faults, rg.faults, o.proofs)
	}
}

// checkAgainstReference compares the region prover's verdict on each
// fault of list with proveReference's, and returns the largest conflict
// count of each.
func checkAgainstReference(t *testing.T, o *outcomes, list []int) (regionMax, refMax int) {
	t.Helper()
	decideAll(o)
	ref := newProver(o.gens[0].v)
	c := o.gens[0].v.Circuit
	for _, fi := range list {
		site, pin, stuck := ref.v.site(o.faults[fi])
		want, n := proveReference(ref, site, pin, stuck, proverBudget)
		got := o.proofs[fi]
		if got.verdict != want {
			t.Errorf("%s: region prover verdict %d, per-fault miter %d", o.faults[fi].String(c), got.verdict, want)
		}
		regionMax, refMax = max(regionMax, got.conflicts), max(refMax, n)
	}
	return regionMax, refMax
}

// TestRegionProverMatchesReference checks the region miters against the
// per-fault miter on every fault the random phase leaves: both must reach
// the same verdict on each.
func TestRegionProverMatchesReference(t *testing.T) {
	for _, name := range []string{"c432", "s420", "s838", "s1238", "s5378"} {
		t.Run(name, func(t *testing.T) {
			o, left, _ := afterRandomPhase(t, name)
			regionMax, refMax := checkAgainstReference(t, o, left)
			t.Logf("%d faults in %d regions; largest conflict count %d on the regions' solvers, %d on per-fault miters",
				len(left), len(o.regions), regionMax, refMax)
		})
	}
}

// FuzzRegionProverMatchesReference checks the region miters against the
// per-fault miter on every collapsed fault of small generated full-scan
// circuits.
func FuzzRegionProverMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(1), uint8(20), uint8(1))
	f.Add(int64(2), uint8(6), uint8(3), uint8(2), uint8(30), uint8(0))
	f.Add(int64(3), uint8(4), uint8(1), uint8(4), uint8(12), uint8(1))
	f.Add(int64(4), uint8(7), uint8(3), uint8(0), uint8(47), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, inputs, outputs, ffs, gates, hardCones uint8) {
		p := bench.Profile{
			Name:      "fuzz",
			Inputs:    1 + int(inputs%8),
			Outputs:   1 + int(outputs%4),
			FFs:       int(ffs % 5),
			Gates:     1 + int(gates%48),
			HardCones: int(hardCones % 2),
			Seed:      seed,
		}
		seq, err := bench.Generate(p)
		if err != nil {
			t.Skip(err)
		}
		c, err := seq.FullScan()
		if err != nil {
			t.Fatal(err)
		}
		faults, _, err := fault.List(c)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]int, len(faults))
		for i := range all {
			all[i] = i
		}
		checkAgainstReference(t, newOutcomes(newView(c), faults, all, Options{Parallelism: 1}.WithDefaults()), all)
	})
}
