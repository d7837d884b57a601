package main

// The cover workload: the exact covering solver alone, on the graded
// Balas–Ho corpus (internal/setcover/corpus), one client, serial solves at
// the default (Lagrangian) bound. No circuit request expands more than a
// few hundred branch-and-bound nodes, so this is the only workload where
// the root ascent and the search do the work; the open tier runs under
// corpus.DefaultOpenNodeBudget and dominates a pass.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/setcover"
	"repro/internal/setcover/corpus"
)

// sameCorpusAnswer reports whether two solves of one instance agree on
// everything, node count included: serial solves repeat exactly, truncated
// ones too.
func sameCorpusAnswer(a, b setcover.Solution) bool {
	return slices.Equal(a.Rows, b.Rows) && a.Cost == b.Cost && a.Optimal == b.Optimal &&
		a.Nodes == b.Nodes && a.RootLB == b.RootLB
}

// coverSetup loads the instance set coverSetups times (parse or
// generate) and returns it with every set-up time.
func coverSetup(seed int64) ([]coverInstance, []float64, error) {
	var (
		insts  []coverInstance
		setups []float64
	)
	for range coverSetups {
		start := time.Now()
		var err error
		if insts, err = loadCover(seed); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Untimed warm-up: the cheapest instance, once.
	if _, err := solveCorpus(insts[slices.IndexFunc(insts, func(ci coverInstance) bool {
		return ci.spec.Tier == corpus.TierEasy
	})], setcover.BoundAuto); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	return insts, setups, nil
}

// coverPass solves every instance once; it returns the answers and the
// summed solve time, and with a recorder one span per solve.
func coverPass(rec *recorder, insts []coverInstance, reqBase int) ([]setcover.Solution, time.Duration, []error) {
	sols := make([]setcover.Solution, len(insts))
	errs := make([]error, len(insts))
	var busy time.Duration
	for i, ci := range insts {
		s := rec.begin("setcover.exact", 0, reqBase+i+1)
		rec.tag(s, "instance", ci.spec.Name)
		rec.tag(s, "tier", string(ci.spec.Tier))
		start := time.Now()
		sols[i], errs[i] = solveCorpus(ci, setcover.BoundAuto)
		busy += time.Since(start)
		rec.end(s, exactCounts(sols[i]))
	}
	return sols, busy, errs
}

// coverRun is one run's instance set, set-up times, first-pass answers
// and pass times (ms), untraced and traced.
type coverRun struct {
	insts             []coverInstance
	setups            []float64
	first             []setcover.Solution
	plainMS, tracedMS []float64
}

// coverPasses loads the instance set and solves it pass after pass until
// the duration is spent. With a recorder every other pass is traced (at
// least one of each), so drift on a shared machine hits both alike. The
// first pass is verified against the instances and golden.json; every
// later pass must repeat it exactly, node counts included.
func coverPasses(r *report, cfg config, rec *recorder) (coverRun, bool) {
	golden, err := corpus.GoldenManifest()
	if err != nil {
		r.fail("%v", err)
		return coverRun{}, false
	}
	var c coverRun
	if c.insts, c.setups, err = coverSetup(cfg.seed); err != nil {
		r.fail("set-up: %v", err)
		return coverRun{}, false
	}
	minPasses := 1
	if rec != nil {
		minPasses = 2
	}
	var busy time.Duration
	for p := 0; continuePasses(busy, p, minPasses, cfg.seconds); p++ {
		r.attempted += len(c.insts)
		passRec, times := (*recorder)(nil), &c.plainMS
		if rec != nil && p%2 == 1 {
			passRec, times = rec, &c.tracedMS
		}
		sols, d, errs := coverPass(passRec, c.insts, len(c.tracedMS)*len(c.insts))
		*times = append(*times, float64(d)/1e6)
		busy += d
		c.check(r, sols, errs, golden)
	}
	return c, true
}

// check verifies the first pass against the instances and compares every
// later pass with it.
func (c *coverRun) check(r *report, sols []setcover.Solution, errs []error, golden map[string]corpus.Golden) {
	first := c.first == nil
	if first {
		c.first = sols
	}
	for i, ci := range c.insts {
		err := errs[i]
		switch {
		case err != nil:
		case first:
			err = checkCorpusCover(ci, sols[i], golden)
		case !sameCorpusAnswer(sols[i], c.first[i]):
			err = fmt.Errorf("answer differs from the first pass")
		}
		if err != nil {
			r.fail("%s: %v", ci.spec.Name, err)
		}
	}
}

func runCover(ctx context.Context, cfg config) *report {
	r := newReport("cover")
	c, ok := coverPasses(r, cfg, nil)
	if !ok {
		return r
	}
	r.set("setup_s", median(c.setups), len(c.setups), "median corpus parse (default seed) or generation")
	n := len(c.insts)
	var busyMS float64
	for _, ms := range c.plainMS {
		busyMS += ms
	}
	r.set("throughput_rps", float64(n*len(c.plainMS))/(busyMS/1000), r.attempted, "instances solved / summed solve time")
	r.series("pass ms", c.plainMS)
	r.setLatency(c.plainMS, fmt.Sprintf("pass of %d instances", n))
	r.set("peak_rss_mb", peakRSSMB(), 1, "process high-water mark")
	r.set("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted), r.attempted, "verified / attempted")
	coverQuality(r, c.insts, c.first)
	return r
}

// coverQuality reports answer quality over one pass. Proven-optimal costs
// are fixed by the instance (and checked against golden.json), so the
// cost metrics sum the open tier's budget-truncated answers: the only
// costs a correct solver change can move. As in the paper's model, a
// unit-cost cover counts triplets and a weighted one test length.
func coverQuality(r *report, insts []coverInstance, sols []setcover.Solution) {
	var optimal, unit, weighted, covered, cols int
	for i, ci := range insts {
		sol := sols[i]
		if sol.Optimal {
			optimal++
		}
		cols += ci.inst.Problem.NumCols()
		if ci.inst.Problem.Verify(sol.Rows) {
			covered += ci.inst.Problem.NumCols()
		}
		if ci.spec.Tier != corpus.TierOpen {
			continue
		}
		if ci.inst.Weights() == nil {
			unit += sol.Cost
		} else {
			weighted += sol.Cost
		}
	}
	n := len(insts)
	r.set("optimal_ratio", float64(optimal)/float64(n), n, "proven optimal / instances")
	r.set("triplets", float64(unit), n, "open tier, unit-cost instances: rows in the best cover")
	r.set("test_length", float64(weighted), n, "open tier, weighted instances: cost of the best cover")
	r.set("cover_cost", float64(unit+weighted), n, "open tier: summed best-cover cost")
	r.set("fault_coverage_pct", 100*float64(covered)/float64(cols), n, "columns covered by verified covers")
	for _, name := range pinnedTimed {
		r.pin(name, r.values[name].v)
	}
}

// traceCover alternates untraced and traced passes over the instance set
// and reports the exact search from the traced passes' spans.
func traceCover(ctx context.Context, cfg config) (*report, *recorder) {
	r := newReport("cover")
	rec := newRecorder()
	c, ok := coverPasses(r, cfg, rec)
	if !ok {
		return r, rec
	}
	t := rec.totals(nil).per(len(c.tracedMS))
	circuitWork{}.report(r, "")
	setCoverLayers(r, t)
	r.pin("setcover.nodes", r.values["setcover.nodes"].v)
	r.pin("setcover.root_gap", r.values["setcover.root_gap"].v)
	setEngineCounts(r, engine.Stats{})
	r.set("engine.solve_ms", 0, 0, "no Engine on this workload")
	r.set("engine.overhead_ms", 0, 0, "no Engine on this workload")
	setServerLayers(r, serverWork{})
	r.set("trace.overhead_pct", 100*(median(c.tracedMS)/median(c.plainMS)-1), len(c.tracedMS)+len(c.plainMS),
		"median traced vs untraced pass")
	return r, rec
}
