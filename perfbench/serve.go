package main

// The serve workload: reseedd's warm path. Two closed-loop clients (one
// per processor) keep-alive POST /v1/solve to server.New behind a loopback
// listener, cycling over 24 prewarmed keys, so every request is a cache
// hit and the answer costs a reduction, an exact solve, cover assembly,
// and the HTTP/JSON round trip.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dmatrix"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/tpg"
)

// serveRig is one booted server with its client and prewarmed artifacts.
type serveRig struct {
	eng    *engine.Engine
	srv    *server.Server
	hs     *http.Server
	served chan error // receives hs.Serve's return
	url    string
	client *http.Client

	keys     []serveKey
	bodies   [][]byte
	flows    map[string]*core.Flow      // by circuit
	matrices map[string]*dmatrix.Matrix // by circuit/kind
	resps    []*engine.Response         // in-process answer per key
	digests  [][32]byte                 // its encoding's digest
}

func matrixKeyOf(k serveKey) string { return k.Circuit + "/" + k.Kind }

// bootServe starts a server on a fresh Engine (Parallelism 1) and prewarms
// every key through it, in order; the first prewarm request is the
// workload's untimed warm-up. rec, when non-nil, records the prewarm
// requests' server-side spans.
func bootServe(keys []serveKey, rec *recorder, reqID *atomic.Int64) (*serveRig, error) {
	tap := &tapStore{}
	rig := &serveRig{
		eng:      engine.New(engine.Options{Parallelism: 1, Store: tap}),
		served:   make(chan error, 1),
		keys:     keys,
		flows:    map[string]*core.Flow{},
		matrices: map[string]*dmatrix.Matrix{},
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	rig.srv = server.New(rig.eng, server.Config{})
	rig.hs = &http.Server{Handler: rig.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { rig.served <- rig.hs.Serve(ln) }()
	rig.url = "http://" + ln.Addr().String()
	rig.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true},
	}
	if code, _, err := rig.do(http.MethodGet, "/healthz", nil, nil); err != nil || code != http.StatusOK {
		rig.close()
		return nil, fmt.Errorf("health check: code %d: %v", code, err)
	}
	for _, k := range keys {
		body, err := json.Marshal(k.request())
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.bodies = append(rig.bodies, body)
		id := int(reqID.Add(1))
		s := rec.begin("prewarm", 0, id)
		f0, m0 := tap.saved()
		nf, nm := len(f0), len(m0)
		var buf bytes.Buffer
		code, _, err := rig.do(http.MethodPost, "/v1/solve", body, &buf)
		rec.end(s, nil)
		if err != nil || code != http.StatusOK {
			rig.close()
			return nil, fmt.Errorf("prewarm %s: code %d: %v", k, code, err)
		}
		if rec != nil {
			td, err := timingOf(buf.Bytes())
			if err != nil {
				rig.close()
				return nil, fmt.Errorf("prewarm %s: %w", k, err)
			}
			rec.attach(td, s, id)
		}
		flows, mats := tap.saved()
		if len(flows) > nf {
			rig.flows[k.Circuit] = flows[len(flows)-1]
		}
		if len(mats) > nm {
			rig.matrices[matrixKeyOf(k)] = mats[len(mats)-1]
		}
		if rig.flows[k.Circuit] == nil || rig.matrices[matrixKeyOf(k)] == nil {
			rig.close()
			return nil, fmt.Errorf("prewarm %s: artifacts not built on first sight", k)
		}
	}
	return rig, nil
}

// do sends one request and reads the whole body into buf (when non-nil),
// so the keep-alive connection is reused.
func (rig *serveRig) do(method, path string, body []byte, buf *bytes.Buffer) (int, int, error) {
	req, err := http.NewRequest(method, rig.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rig.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = &bytes.Buffer{}
	}
	buf.Reset()
	n, err := io.Copy(buf, resp.Body)
	return resp.StatusCode, int(n), err
}

// close stops the server and waits until its serve loop has returned.
func (rig *serveRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Best effort: nothing is in flight, and the serve loop's return below
	// is what we wait for.
	_ = rig.hs.Shutdown(ctx)
	_ = rig.srv.Shutdown(ctx)
	if err := <-rig.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve loop: %v\n", err)
	}
	rig.client.CloseIdleConnections()
}

// timingOf extracts Response.Timing from a /v1/solve body.
func timingOf(body []byte) (*obs.TraceData, error) {
	var v struct {
		Timing *obs.TraceData `json:"timing"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return v.Timing, nil
}

// answerDigest hashes a /v1/solve body without its per-request "timing"
// member (the last one the server writes), giving the bytes an untraced
// in-process Engine.Solve encodes to.
func answerDigest(body []byte) [32]byte {
	if i := bytes.LastIndex(body, []byte(",\n  \"timing\": ")); i >= 0 {
		h := sha256.New()
		h.Write(body[:i])
		h.Write([]byte("\n}\n"))
		var d [32]byte
		h.Sum(d[:0])
		return d
	}
	return sha256.Sum256(body)
}

// sample is one client request's outcome.
type sample struct {
	key    int
	code   int
	err    bool
	bytes  int
	lat    time.Duration
	digest [32]byte
}

// load runs the closed-loop clients for the given duration and returns
// every sample and the wall time. With a recorder, each request gets a
// client span with the server's timing attached under it.
func (rig *serveRig) load(d time.Duration, rec *recorder, reqID *atomic.Int64) ([]sample, time.Duration) {
	per := make([][]sample, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range serveClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			out := make([]sample, 0, 4096)
			for i := c * len(rig.keys) / serveClients; time.Now().Before(deadline); i++ {
				k := i % len(rig.keys)
				id := int(reqID.Add(1))
				s := rec.begin("client", 0, id)
				t0 := time.Now()
				code, n, err := rig.do(http.MethodPost, "/v1/solve", rig.bodies[k], &buf)
				smp := sample{key: k, code: code, err: err != nil, bytes: n, lat: time.Since(t0)}
				rec.end(s, map[string]int64{"bytes": int64(n), "code": int64(code)})
				if err == nil && code == http.StatusOK {
					smp.digest = answerDigest(buf.Bytes())
					if rec != nil {
						if td, err := timingOf(buf.Bytes()); err == nil {
							rec.attach(td, s, id)
						}
					}
				}
				out = append(out, smp)
			}
			per[c] = out
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall
}

// expected solves every key in process on the rig's (warm) Engine and
// keeps the answers and the digests of their encoding, as the server's
// encoder writes them.
func (rig *serveRig) expected(ctx context.Context) error {
	rig.resps = make([]*engine.Response, len(rig.keys))
	rig.digests = make([][32]byte, len(rig.keys))
	for i, k := range rig.keys {
		resp, err := rig.eng.Solve(ctx, k.request())
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(resp); err != nil {
			return err
		}
		rig.resps[i], rig.digests[i] = resp, sha256.Sum256(buf.Bytes())
	}
	return nil
}

// startServe boots the server boots times, keeping the last (each boot
// prewarms every key; rec, when non-nil, records the prewarm), then
// solves every key in process on the warm Engine and checks those answers
// against their Detection Matrices. It returns the rig, nil after a
// failure it recorded in r, and each boot's time (s).
func startServe(ctx context.Context, r *report, keys []serveKey, boots int, rec *recorder, reqID *atomic.Int64) (*serveRig, []float64) {
	var (
		rig    *serveRig
		setups []float64
	)
	for range boots {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		var err error
		if rig, err = bootServe(keys, rec, reqID); err != nil {
			r.fail("set-up: %v", err)
			return nil, nil
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := rig.expected(ctx); err != nil {
		rig.close()
		r.fail("in-process reference: %v", err)
		return nil, nil
	}
	checkKeys(r, rig)
	return rig, setups
}

// loadRun is one checked load phase.
type loadRun struct {
	samples []sample
	wall    time.Duration
	ok      int          // verified answers
	delta   engine.Stats // the Engine's cache counters over the phase
}

// measure runs the load for d (with a recorder, traced) and checks it.
func (rig *serveRig) measure(r *report, d time.Duration, rec *recorder, reqID *atomic.Int64) loadRun {
	before := rig.eng.Stats()
	var l loadRun
	l.samples, l.wall = rig.load(d, rec, reqID)
	after := rig.eng.Stats()
	l.delta = engine.Stats{
		PrepareBuilds: after.PrepareBuilds - before.PrepareBuilds,
		PrepareHits:   after.PrepareHits - before.PrepareHits,
		MatrixBuilds:  after.MatrixBuilds - before.MatrixBuilds,
		MatrixHits:    after.MatrixHits - before.MatrixHits,
	}
	l.ok = checkServe(r, rig, l.samples, l.delta)
	return l
}

// checkServe verifies a load phase: every request answered 200 with the
// bytes of the in-process answer, and the Engine did no ATPG and built no
// matrix — every request a cache hit.
func checkServe(r *report, rig *serveRig, samples []sample, delta engine.Stats) (ok int) {
	for _, s := range samples {
		k := rig.keys[s.key]
		switch {
		case s.err:
			r.fail("%s: transport error", k)
		case s.code == http.StatusTooManyRequests:
			r.fail("%s: refused (429)", k)
		case s.code != http.StatusOK:
			r.fail("%s: HTTP %d", k, s.code)
		case s.digest != rig.digests[s.key]:
			r.fail("%s: answer differs from the in-process Engine.Solve", k)
		default:
			ok++
		}
	}
	builds := delta.PrepareBuilds + delta.MatrixBuilds
	if builds != 0 || delta.PrepareHits != int64(ok) || delta.MatrixHits != int64(ok) {
		r.fail("serve left the warm path: %d builds, %d prepare hits and %d matrix hits for %d answers",
			builds, delta.PrepareHits, delta.MatrixHits, ok)
	}
	return ok
}

// checkKeys verifies each key's in-process answer against its unreduced
// Detection Matrix and sums the answer-quality metrics over the keys.
func checkKeys(r *report, rig *serveRig) {
	var q quality
	for i, k := range rig.keys {
		sol := rig.resps[i].Solution
		if err := checkCircuitCover(rig.matrices[matrixKeyOf(k)], sol); err != nil {
			r.fail("%s: %v", k, err)
		}
		cost := sol.NumTriplets()
		if k.Objective == "testlength" {
			cost = sol.TestLength
		}
		q.add(sol, cost, rig.resps[i].ATPG.Coverage)
	}
	q.report(r, fmt.Sprintf("the %d keys", len(rig.keys)))
}

func runServe(ctx context.Context, cfg config) *report {
	r := newReport("serve")
	var reqID atomic.Int64
	rig, setups := startServe(ctx, r, serveKeys(cfg.seed), serveSetups, nil, &reqID)
	if rig == nil {
		return r
	}
	defer rig.close()
	r.set("setup_s", median(setups), len(setups), "median boot + prewarm (6 ATPGs, 12 matrices, 24 solves)")
	r.series("setup s", setups)

	l := rig.measure(r, time.Duration(cfg.seconds*float64(time.Second)), nil, &reqID)
	r.attempted = len(l.samples)
	r.set("peak_rss_mb", peakRSSMB(), 1, "process high-water mark")
	lat := make([]float64, len(l.samples))
	for i, s := range l.samples {
		lat[i] = float64(s.lat) / 1e6
	}
	r.set("throughput_rps", float64(l.ok)/l.wall.Seconds(), len(l.samples),
		fmt.Sprintf("verified answers / load wall time, %d clients", serveClients))
	r.setLatency(lat, "request round trip")
	r.set("ok_ratio", float64(l.ok)/float64(max(1, len(l.samples))), len(l.samples), "verified / attempted")
	return r
}

// traceServe boots one server with the prewarm traced, runs the load
// untraced and traced in alternating rounds, and replays the key set in
// process to split covering time into reduction, exact search and
// assembly.
func traceServe(ctx context.Context, cfg config) (*report, *recorder) {
	r := newReport("serve")
	rec := newRecorder()
	keys := serveKeys(cfg.seed)
	var reqID atomic.Int64
	rig, _ := startServe(ctx, r, keys, 1, rec, &reqID)
	if rig == nil {
		return r, rec
	}
	defer rig.close()
	// Untraced and traced load alternate in four rounds, so drift on
	// a shared machine hits both alike.
	const rounds = 4
	slice := time.Duration(cfg.seconds * float64(time.Second) / (2 * rounds))
	var (
		plain, traced         []sample
		plainWall, tracedWall time.Duration
		okPlain, okTraced     int
		hits                  engine.Stats
	)
	loadFrom := int(reqID.Load())
	for range rounds {
		p := rig.measure(r, slice, nil, &reqID)
		plain, plainWall, okPlain = append(plain, p.samples...), plainWall+p.wall, okPlain+p.ok
		t := rig.measure(r, slice, rec, &reqID)
		traced, tracedWall, okTraced = append(traced, t.samples...), tracedWall+t.wall, okTraced+t.ok
		hits.PrepareBuilds += t.delta.PrepareBuilds
		hits.PrepareHits += t.delta.PrepareHits
		hits.MatrixBuilds += t.delta.MatrixBuilds
		hits.MatrixHits += t.delta.MatrixHits
	}
	r.attempted = len(plain) + len(traced)

	// The prewarm is the only ATPG and matrix work serve does: times from
	// its server-side spans, counters from the artifacts it built.
	pre := rec.totals(func(s *span) bool { return s.Req <= len(keys) })
	w := circuitWork{
		benchMS: pre.selfMS["server/prepare"], atpgMS: pre.durMS["server/atpg"], dmatrixMS: pre.durMS["server/matrix.build"],
		benchCalls: pre.calls["server/atpg"], atpgCalls: len(rig.flows), dmatCalls: len(rig.matrices),
		atpg: map[string]int64{}, dmatrix: map[string]int64{},
	}
	for _, f := range rig.flows {
		st := f.ATPG.Stats
		w.atpg["gate_evals"] += st.GateEvals
		w.atpg["patterns"] += int64(len(f.Patterns))
		w.atpg["podem_targets"] += int64(st.PodemDetected + st.PodemUntestable + st.PodemAborted)
		w.atpg["podem_aborted"] += int64(st.PodemAborted)
	}
	for _, m := range rig.matrices {
		for k, v := range matrixCounts(m) {
			w.dmatrix[k] += v
		}
	}
	w.report(r, " (prewarm)")
	r.set("fault.busy_ms", 0, 0, "runs inside the engine's atpg span here: counted in atpg.busy_ms")

	// In-process replay of the key set: SolveMatrix, then its reduction
	// and exact solve on their own, repeated for steadier times.
	const reps = 5
	replayFrom := int(reqID.Load())
	for range reps {
		for i, k := range keys {
			if err := replayKey(rec, int(reqID.Add(1)), rig, k, rig.resps[i].Solution); err != nil {
				r.fail("%s: replay: %v", k, err)
			}
		}
	}
	setCoverLayers(r, rec.totals(func(s *span) bool { return s.Req > replayFrom }).per(reps))
	r.pin("setcover.nodes", r.values["setcover.nodes"].v)

	var sw serverWork
	rec.each(func(s *span, self int64) {
		if s.Req <= loadFrom || s.Req > replayFrom {
			return
		}
		switch s.Name {
		case "client":
			if s.Counts["code"] != http.StatusOK {
				return
			}
			sw.rtt = append(sw.rtt, float64(s.dur())/1e6)
			sw.overhead = append(sw.overhead, float64(self)/1e6)
			sw.bytes += s.Counts["bytes"]
		case "server/solve":
			sw.solve = append(sw.solve, float64(s.dur())/1e6)
			sw.engineSelf = append(sw.engineSelf, float64(self)/1e6)
		}
	})
	for _, s := range append(plain, traced...) {
		switch {
		case s.code == http.StatusTooManyRequests:
			sw.refused++
		case s.err || s.code != http.StatusOK:
			sw.errors++
		}
	}
	sw.attempted = r.attempted
	setServerLayers(r, sw)
	setEngineCounts(r, hits)
	ratePlain := float64(okPlain) / plainWall.Seconds()
	rateTraced := float64(okTraced) / tracedWall.Seconds()
	r.set("trace.overhead_pct", 100*(ratePlain/rateTraced-1), r.attempted, "untraced vs traced load throughput")
	return r, rec
}

// replayKey serves one key in process from its prewarmed artifacts:
// Flow.SolveMatrix under a span (its answer must equal the served one),
// then replayCover for the reduction and exact-search split.
func replayKey(rec *recorder, id int, rig *serveRig, k serveKey, served *core.Solution) error {
	flow, m := rig.flows[k.Circuit], rig.matrices[matrixKeyOf(k)]
	gen, err := tpg.ByName(k.Kind, len(flow.Circuit.Inputs))
	if err != nil {
		return err
	}
	opts := core.Options{Cycles: serveCycles, Seed: k.ThetaSeed, Parallelism: 1}
	var weights []int
	if k.Objective == "testlength" {
		// The per-row weights SolveMatrix derives for this objective.
		opts.Objective = core.MinimizeTestLength
		weights = make([]int, len(m.Rows))
		for i, row := range m.Rows {
			weights[i] = m.EffectiveLength(i, row.Elements())
		}
	}
	s := rec.begin("core.solve_matrix", 0, id)
	sol, err := flow.SolveMatrix(m, gen, opts)
	rec.end(s, nil)
	if err != nil {
		return err
	}
	if !sameSolution(sol, served) {
		return fmt.Errorf("Flow.SolveMatrix differs from the served answer")
	}
	return replayCover(rec, id, m, weights, 1)
}

// serverWork is the server layer as the traced load saw it, per request.
type serverWork struct {
	rtt, solve, overhead, engineSelf []float64
	bytes                            int64
	refused, errors, attempted       int
}

// setServerLayers reports the server layer and the Engine.Solve times
// inside it; a zero serverWork (a workload without a server) reports 0.
func setServerLayers(r *report, w serverWork) {
	n := len(w.rtt)
	med := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	r.set("server.rtt_ms", med(w.rtt), n, "median client round trip")
	r.set("server.solve_ms", med(w.solve), n, "median server-side solve span")
	r.set("server.overhead_ms", med(w.overhead), n, "median round trip minus solve span: HTTP, JSON, admission")
	r.set("server.resp_bytes", float64(w.bytes)/float64(max(1, n)), n, "mean response body")
	r.set("server.refused", float64(w.refused), w.attempted, "429 responses")
	r.set("server.errors", float64(w.errors), w.attempted, "other non-200 responses and transport errors")
	if n > 0 {
		r.set("engine.solve_ms", med(w.solve), n, "median Engine.Solve span per request")
		r.set("engine.overhead_ms", med(w.engineSelf), n, "median solve span self time: outside prepare, matrix, covering")
	}
}
