package main

// The cold workload: one client, closed loop. Every request gets a fresh
// Engine (Parallelism 0: one worker per processor, the reseed -j 0
// default), so each answer pays for circuit construction, fault listing,
// ATPG, the Detection Matrix and the covering solve — the first answer on
// an unseen circuit.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/setcover"
	"repro/internal/tpg"
)

// coldAnswer is one Engine-served cold request and what the check needs.
type coldAnswer struct {
	resp   *engine.Response
	lat    time.Duration
	stats  engine.Stats
	matrix *dmatrix.Matrix
}

// coldEngineSolve serves req the way the timed run does: a fresh Engine,
// one Solve. Only the Solve call is timed.
func coldEngineSolve(ctx context.Context, req coldReq) (coldAnswer, error) {
	tap := &tapStore{}
	eng := engine.New(engine.Options{Store: tap})
	start := time.Now()
	resp, err := eng.Solve(ctx, req.request())
	lat := time.Since(start)
	if err != nil {
		return coldAnswer{}, fmt.Errorf("%s: %w", req, err)
	}
	a := coldAnswer{resp: resp, lat: lat, stats: eng.Stats()}
	if _, ms := tap.saved(); len(ms) == 1 {
		a.matrix = ms[0]
	}
	return a, nil
}

// check verifies a cold answer: the Engine took the cold path (one ATPG,
// one matrix, no cache hit) and the cover holds against its matrix.
func (a coldAnswer) check() error {
	if s := a.stats; s.PrepareBuilds != 1 || s.MatrixBuilds != 1 || s.PrepareHits != 0 || s.MatrixHits != 0 {
		return fmt.Errorf("not a cold solve: %d/%d prepare builds/hits, %d/%d matrix builds/hits",
			s.PrepareBuilds, s.PrepareHits, s.MatrixBuilds, s.MatrixHits)
	}
	if a.matrix == nil {
		return fmt.Errorf("engine did not build exactly one Detection Matrix")
	}
	return checkCircuitCover(a.matrix, a.resp.Solution)
}

// quality sums the answer-quality metrics over a fixed request set.
type quality struct {
	n, optimal                      int
	triplets, testLength, coverCost int
	coverage                        float64
}

func (q *quality) add(sol *core.Solution, cost int, coverage float64) {
	q.n++
	if sol.Optimal {
		q.optimal++
	}
	q.triplets += sol.NumTriplets()
	q.testLength += sol.TestLength
	q.coverCost += cost
	q.coverage += coverage
}

func (q quality) report(r *report, of string) {
	r.set("optimal_ratio", float64(q.optimal)/float64(q.n), q.n, "proven optimal / answers, "+of)
	r.set("triplets", float64(q.triplets), q.n, "sum, "+of)
	r.set("test_length", float64(q.testLength), q.n, "sum of trimmed lengths, "+of)
	r.set("cover_cost", float64(q.coverCost), q.n, "sum of objective costs, "+of)
	r.set("fault_coverage_pct", 100*q.coverage/float64(q.n), q.n, "mean ATPG fault coverage, "+of)
	for _, name := range pinnedTimed {
		r.pin(name, r.values[name].v)
	}
}

// continuePasses reports whether another pass should run: the next pass
// is expected to end closer to the target than stopping now would.
func continuePasses(busy time.Duration, passes, minPasses int, seconds float64) bool {
	if passes < minPasses {
		return true
	}
	mean := busy.Seconds() / float64(passes)
	return busy.Seconds()+mean/2 < seconds
}

func runCold(ctx context.Context, cfg config) *report {
	r := newReport("cold")
	var setups []float64
	for range coldSetups {
		a, err := coldEngineSolve(ctx, coldWarmup)
		if err != nil {
			r.fail("set-up: %v", err)
			return r
		}
		setups = append(setups, a.lat.Seconds())
	}
	r.set("setup_s", median(setups), len(setups), "median warm-up cold solve (c432)")
	r.series("setup s", setups)

	var (
		passMS []float64
		busy   time.Duration
		solved int
		q      quality
	)
	for p := 0; continuePasses(busy, p, coldQualityPasses, cfg.seconds); p++ {
		var pass time.Duration
		for _, req := range coldPass(cfg.seed, p) {
			r.attempted++
			a, err := coldEngineSolve(ctx, req)
			if err != nil {
				r.fail("%v", err)
				continue
			}
			pass += a.lat
			solved++
			if err := a.check(); err != nil {
				r.fail("%s: %v", req, err)
				continue
			}
			if p < coldQualityPasses {
				q.add(a.resp.Solution, a.resp.Solution.NumTriplets(), a.resp.ATPG.Coverage)
			}
		}
		passMS = append(passMS, float64(pass)/1e6)
		busy += pass
	}
	r.set("throughput_rps", float64(solved)/busy.Seconds(), solved, "cold solves / summed solve time")
	r.series("pass ms", passMS)
	r.setLatency(passMS, "pass of 10 cold solves, one per circuit")
	r.set("peak_rss_mb", peakRSSMB(), 1, "process high-water mark")
	r.set("ok_ratio", float64(r.attempted-r.failed)/float64(r.attempted), r.attempted, "verified / attempted")
	q.report(r, fmt.Sprintf("first %d passes", coldQualityPasses))
	return r
}

// directSolve serves req by calling each layer directly, one span per
// call: bench → fault → atpg → core.NewFlow → dmatrix → core.SolveMatrix.
// It returns the request span's duration alongside the answer.
func directSolve(rec *recorder, id int, req coldReq) (*core.Solution, *dmatrix.Matrix, time.Duration, error) {
	start := time.Now()
	root := rec.begin("request", 0, id)
	rec.tag(root, "circuit", req.Circuit)
	s := rec.begin("bench", root, id)
	c, err := bench.ScanView(req.Circuit)
	rec.end(s, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	s = rec.begin("fault", root, id)
	all, _, err := fault.List(c)
	rec.end(s, map[string]int64{"faults": int64(len(all))})
	if err != nil {
		return nil, nil, 0, err
	}
	s = rec.begin("atpg", root, id)
	res, err := atpg.Run(c, all, atpg.Options{Seed: req.ATPGSeed})
	if err != nil {
		rec.end(s, nil)
		return nil, nil, 0, err
	}
	st := res.Stats
	rec.end(s, map[string]int64{
		"gate_evals":    st.GateEvals,
		"patterns":      int64(len(res.Patterns)),
		"podem_targets": int64(st.PodemDetected + st.PodemUntestable + st.PodemAborted),
		"podem_aborted": int64(st.PodemAborted),
	})
	s = rec.begin("core.new_flow", root, id)
	flow := core.NewFlow(c, all, res)
	rec.end(s, nil)
	gen, err := tpg.ByName(req.Kind, len(c.Inputs))
	if err != nil {
		return nil, nil, 0, err
	}
	opts := core.Options{Cycles: req.Cycles, Seed: req.ThetaSeed}
	s = rec.begin("dmatrix", root, id)
	m, err := flow.BuildMatrix(gen, opts)
	if err != nil {
		rec.end(s, nil)
		return nil, nil, 0, err
	}
	rec.end(s, matrixCounts(m))
	s = rec.begin("core.solve_matrix", root, id)
	sol, err := flow.SolveMatrix(m, gen, opts)
	rec.end(s, nil)
	rec.end(root, nil)
	return sol, m, time.Since(start), err
}

func matrixCounts(m *dmatrix.Matrix) map[string]int64 {
	ones := 0
	for _, row := range m.Rows {
		ones += row.Len()
	}
	return map[string]int64{
		"rows":               int64(len(m.Rows)),
		"patterns_simulated": int64(m.PatternsSimulated),
		"gate_evals":         m.GateEvals,
		"ones":               int64(ones),
	}
}

// replayCover re-runs the covering pipeline SolveMatrix ran on m — the
// reduction, then the exact solve of the residual — each as its own span
// under a "replay" root, so reduction and search time can be separated
// from assembly. weights nil replays the min-triplets objective.
func replayCover(rec *recorder, id int, m *dmatrix.Matrix, weights []int, parallelism int) error {
	root := rec.begin("replay", 0, id)
	defer rec.end(root, nil)
	p := problemOf(m)
	s := rec.begin("setcover.reduce", root, id)
	var red *setcover.Reduction
	if weights == nil {
		red = p.Reduce()
	} else {
		var err error
		if red, err = p.ReduceWeighted(weights); err != nil {
			rec.end(s, nil)
			return err
		}
	}
	rec.end(s, map[string]int64{
		"residual_rows":  int64(red.Residual.NumRows()),
		"residual_cols":  int64(red.Residual.NumCols()),
		"dominated_rows": int64(len(red.DominatedRows)),
	})
	if red.Empty() {
		return nil
	}
	opts := setcover.ExactOptions{Parallelism: parallelism}
	s = rec.begin("setcover.exact", root, id)
	var (
		sub setcover.Solution
		err error
	)
	if weights == nil {
		sub, err = red.Residual.SolveExact(opts)
	} else {
		sw := make([]int, len(red.RowMap))
		for i, row := range red.RowMap {
			sw[i] = weights[row]
		}
		sub, err = red.Residual.SolveExactWeighted(sw, opts)
	}
	rec.end(s, exactCounts(sub))
	return err
}

func exactCounts(sol setcover.Solution) map[string]int64 {
	return map[string]int64{
		"nodes":     sol.Nodes,
		"truncated": int64(b2i(!sol.Optimal)),
		"cost":      int64(sol.Cost),
		"root_lb":   int64(sol.RootLB),
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sameSolution compares two answers field by field through their JSON
// form, ignoring SolverNodes: with more than one worker the node count
// depends on scheduling (core.Options documents this), the cover does not.
func sameSolution(a, b *core.Solution) bool {
	ca, cb := *a, *b
	ca.SolverNodes, cb.SolverNodes = 0, 0
	ja, errA := json.Marshal(ca)
	jb, errB := json.Marshal(cb)
	return errA == nil && errB == nil && string(ja) == string(jb)
}

// traceCold runs cold's ledger once with per-layer spans. Each request is
// served three times: through Engine.Solve exactly as the timed run does,
// and by direct layer calls both untraced (a nil recorder) and under
// spans. The Engine's answer must equal the traced direct one; the
// untraced direct time is the base for the Engine's overhead and the
// tracing overhead. A replay then splits the covering time into reduction
// and exact search.
func traceCold(ctx context.Context, cfg config) (*report, *recorder) {
	r := newReport("cold")
	rec := newRecorder()
	if _, err := coldEngineSolve(ctx, coldWarmup); err != nil {
		r.fail("set-up: %v", err)
		return r, rec
	}
	var engineTime, plainTime, tracedTime time.Duration
	var es engine.Stats
	for i, req := range coldLedger(cfg.seed) {
		id := i + 1
		r.attempted++
		var (
			a                      coldAnswer
			sol                    *core.Solution
			m                      *dmatrix.Matrix
			plain, traced          time.Duration
			errEng, errPlain, errT error
		)
		steps := []func(){
			func() { a, errEng = coldEngineSolve(ctx, req) },
			func() { _, _, plain, errPlain = directSolve(nil, id, req) },
			func() { sol, m, traced, errT = directSolve(rec, id, req) },
		}
		// Rotate which path runs first, so none gains from another's
		// leftovers (warm caches, heap already grown).
		for j := range steps {
			steps[(i+j)%len(steps)]()
		}
		if errEng != nil {
			r.fail("%v", errEng)
			continue
		}
		if err := errors.Join(errPlain, errT); err != nil {
			r.fail("%s: direct layer calls: %v", req, err)
			continue
		}
		engineTime += a.lat
		plainTime += plain
		tracedTime += traced
		es.PrepareBuilds += a.stats.PrepareBuilds
		es.PrepareHits += a.stats.PrepareHits
		es.MatrixBuilds += a.stats.MatrixBuilds
		es.MatrixHits += a.stats.MatrixHits
		if err := replayCover(rec, id, m, nil, 0); err != nil {
			r.fail("%s: replay: %v", req, err)
			continue
		}
		if err := a.check(); err != nil {
			r.fail("%s: %v", req, err)
			continue
		}
		if err := checkCircuitCover(m, sol); err != nil {
			r.fail("%s: direct path: %v", req, err)
			continue
		}
		if !sameSolution(sol, a.resp.Solution) {
			r.fail("%s: Engine.Solve and the direct layer calls disagree", req)
		}
	}
	t := rec.totals(nil)
	circuitWorkOf(t).report(r, "")
	setCoverLayers(r, t)
	engMS := float64(engineTime) / 1e6
	r.set("engine.solve_ms", engMS, r.attempted, "Engine.Solve, sum over the ledger")
	r.set("engine.overhead_ms", engMS-float64(plainTime)/1e6, r.attempted,
		"Engine.Solve minus the same requests' untraced direct layer calls")
	setEngineCounts(r, es)
	for _, k := range []string{"engine.prepare_builds", "engine.prepare_hits", "engine.matrix_builds", "engine.matrix_hits"} {
		r.pin(k, r.values[k].v)
	}
	setServerLayers(r, serverWork{})
	r.set("trace.overhead_pct", 100*(float64(tracedTime)/float64(plainTime)-1), r.attempted,
		"direct layer calls under spans vs the same calls untraced")
	return r, rec
}

// circuitWork is the bench, fault, atpg and dmatrix work of a traced run:
// busy times (ms), call counts, and the atpg and dmatrix counters.
type circuitWork struct {
	benchMS, faultMS, atpgMS, dmatrixMS          float64
	benchCalls, faultCalls, atpgCalls, dmatCalls int
	atpg, dmatrix                                map[string]int64
}

// circuitWorkOf reads the work from the direct path's spans.
func circuitWorkOf(t layerTotals) circuitWork {
	return circuitWork{
		benchMS: t.selfMS["bench"], faultMS: t.selfMS["fault"], atpgMS: t.selfMS["atpg"], dmatrixMS: t.selfMS["dmatrix"],
		benchCalls: t.calls["bench"], faultCalls: t.calls["fault"], atpgCalls: t.calls["atpg"], dmatCalls: t.calls["dmatrix"],
		atpg: t.counts["atpg"], dmatrix: t.counts["dmatrix"],
	}
}

// report sets the bench, fault, atpg and dmatrix metrics and pins the
// deterministic counters.
func (w circuitWork) report(r *report, where string) {
	r.set("bench.busy_ms", w.benchMS, w.benchCalls, "bench.ScanView"+where)
	r.set("fault.busy_ms", w.faultMS, w.faultCalls, "fault.List"+where)
	r.set("atpg.busy_ms", w.atpgMS, w.atpgCalls, "atpg.Run"+where)
	r.set("atpg.calls", float64(w.atpgCalls), w.atpgCalls, "")
	r.set("atpg.podem_targets", float64(w.atpg["podem_targets"]), w.atpgCalls, "faults left to PODEM after the random phase")
	r.set("atpg.podem_aborted", float64(w.atpg["podem_aborted"]), w.atpgCalls, "")
	r.set("atpg.patterns", float64(w.atpg["patterns"]), w.atpgCalls, "compacted test-set patterns")
	r.set("atpg.gate_evals", float64(w.atpg["gate_evals"]), w.atpgCalls, "")
	evals := float64(w.dmatrix["gate_evals"])
	r.set("dmatrix.busy_ms", w.dmatrixMS, w.dmatCalls, "Flow.BuildMatrix"+where)
	r.set("dmatrix.calls", float64(w.dmatCalls), w.dmatCalls, "")
	r.set("dmatrix.rows", float64(w.dmatrix["rows"]), w.dmatCalls, "")
	r.set("dmatrix.patterns_simulated", float64(w.dmatrix["patterns_simulated"]), w.dmatCalls, "")
	r.set("dmatrix.gate_evals", evals, w.dmatCalls, "")
	r.set("dmatrix.gate_evals_per_s", rate(evals, w.dmatrixMS), w.dmatCalls, "gate_evals / busy s")
	r.set("dmatrix.ones", float64(w.dmatrix["ones"]), w.dmatCalls, "detections in the matrices")
	for _, k := range []string{"atpg.calls", "atpg.gate_evals", "atpg.patterns", "atpg.podem_targets", "atpg.podem_aborted",
		"dmatrix.calls", "dmatrix.rows", "dmatrix.patterns_simulated", "dmatrix.gate_evals", "dmatrix.ones"} {
		r.pin(k, r.values[k].v)
	}
}

// setCoverLayers reports setcover reduce/exact and core from the replay
// and core.solve_matrix spans.
func setCoverLayers(r *report, t layerTotals) {
	n := t.calls["setcover.reduce"]
	r.set("setcover.reduce_ms", t.selfMS["setcover.reduce"], n, "Problem.Reduce")
	r.set("setcover.reduce_calls", float64(n), n, "")
	r.set("setcover.residual_rows", t.count("setcover.reduce", "residual_rows"), n, "")
	r.set("setcover.residual_cols", t.count("setcover.reduce", "residual_cols"), n, "")
	r.set("setcover.dominated_rows", t.count("setcover.reduce", "dominated_rows"), n, "")
	setExactLayers(r, t)
	sm, calls := t.selfMS["core.solve_matrix"], t.calls["core.solve_matrix"]
	assemble := 0.0
	if calls > 0 {
		assemble = sm - t.selfMS["setcover.reduce"] - t.selfMS["setcover.exact"]
	}
	r.set("core.solve_matrix_ms", sm, calls, "Flow.SolveMatrix")
	r.set("core.assemble_ms", assemble, calls, "SolveMatrix minus replayed reduce and exact on the same matrices")
	for _, k := range []string{"setcover.reduce_calls", "setcover.residual_rows", "setcover.residual_cols", "setcover.dominated_rows"} {
		r.pin(k, r.values[k].v)
	}
}

// setExactLayers reports the exact search from the setcover.exact spans.
func setExactLayers(r *report, t layerTotals) {
	const name = "setcover.exact"
	n := t.calls[name]
	busy := t.selfMS[name]
	nodes := t.count(name, "nodes")
	gap := 0.0
	if c := t.count(name, "cost"); c > 0 {
		gap = (c - t.count(name, "root_lb")) / c
	}
	r.set("setcover.exact_ms", busy, n, "SolveExact / SolveExactWeighted")
	r.set("setcover.exact_calls", float64(n), n, "")
	r.set("setcover.nodes", nodes, n, "branch-and-bound nodes")
	r.set("setcover.nodes_per_s", rate(nodes, busy), n, "nodes / busy s")
	r.set("setcover.truncated", t.count(name, "truncated"), n, "solves stopped by a budget")
	r.set("setcover.root_gap", gap, n, "(sum cost - sum root bound) / sum cost")
	r.pin("setcover.exact_calls", float64(n))
	r.pin("setcover.truncated", r.values["setcover.truncated"].v)
}

func setEngineCounts(r *report, s engine.Stats) {
	r.set("engine.prepare_builds", float64(s.PrepareBuilds), 1, "Engine.Stats delta")
	r.set("engine.prepare_hits", float64(s.PrepareHits), 1, "Engine.Stats delta")
	r.set("engine.matrix_builds", float64(s.MatrixBuilds), 1, "Engine.Stats delta")
	r.set("engine.matrix_hits", float64(s.MatrixHits), 1, "Engine.Stats delta")
}

func rate(count, busyMS float64) float64 {
	if busyMS <= 0 {
		return 0
	}
	return count / (busyMS / 1000)
}
