package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/setcover/corpus"
)

func TestColdInputsSeeded(t *testing.T) {
	if !reflect.DeepEqual(coldLedger(7), coldLedger(7)) {
		t.Fatal("one seed gave two cold ledgers")
	}
	if reflect.DeepEqual(coldLedger(7), coldLedger(8)) {
		t.Fatal("seeds 7 and 8 gave the same cold ledger")
	}
	// Every pass holds each circuit once; the ledger holds each circuit at
	// each T once, so its cost does not depend on how the draws fell.
	at := map[string]map[int]int{}
	for p := 0; p < coldLedgerPasses; p++ {
		seen := map[string]bool{}
		for _, q := range coldPass(7, p) {
			if seen[q.Circuit] {
				t.Fatalf("pass %d holds %s twice", p, q.Circuit)
			}
			seen[q.Circuit] = true
			if at[q.Circuit] == nil {
				at[q.Circuit] = map[int]int{}
			}
			at[q.Circuit][q.Cycles]++
			if q.ThetaSeed <= 0 || q.ATPGSeed <= 0 {
				t.Fatalf("non-positive seed in %s", q)
			}
		}
		if len(seen) != len(coldCircuits) {
			t.Fatalf("pass %d holds %d circuits, want %d", p, len(seen), len(coldCircuits))
		}
	}
	for c, ts := range at {
		for _, T := range coldCycles {
			if ts[T] != 1 {
				t.Errorf("%s at T=%d: %d times in the ledger, want 1", c, T, ts[T])
			}
		}
	}
}

func TestServeInputsSeeded(t *testing.T) {
	a, b := serveKeys(3), serveKeys(4)
	if !reflect.DeepEqual(a, serveKeys(3)) {
		t.Fatal("one seed gave two key lists")
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 3 and 4 gave the same keys")
	}
	if len(a) != len(serveCircuits)*len(serveKinds)*len(serveObjectives) {
		t.Fatalf("%d keys", len(a))
	}
	theta := map[string]map[int64]bool{}
	for _, k := range a {
		mk := matrixKeyOf(k)
		if theta[mk] == nil {
			theta[mk] = map[int64]bool{}
		}
		theta[mk][k.ThetaSeed] = true
	}
	if len(theta) != len(serveCircuits)*len(serveKinds) {
		t.Fatalf("%d circuit/kind pairs", len(theta))
	}
	for mk, s := range theta {
		if len(s) != 1 {
			t.Errorf("%s: objectives use %d θ seeds, want one shared matrix", mk, len(s))
		}
	}
}

func TestCoverInputsSeeded(t *testing.T) {
	specs, committed := coverSpecs(defaultCoverSeed)
	byName := map[string]corpus.Spec{}
	for _, s := range corpus.Specs() {
		byName[s.Name] = s
	}
	for i, s := range specs {
		if !committed[i] || s != byName[s.Name] {
			t.Errorf("default seed: %s is not the committed instance", s.Name)
		}
	}
	other, otherCommitted := coverSpecs(9)
	if reflect.DeepEqual(other, specs) {
		t.Fatal("seed 9 gave the default instance set")
	}
	for i, s := range other {
		open := s.Tier == corpus.TierOpen
		if otherCommitted[i] != open || (s == byName[s.Name]) != open {
			t.Errorf("seed 9: %s committed=%v, want committed only on the open tier", s.Name, otherCommitted[i])
		}
	}
	again, _ := coverSpecs(9)
	if !reflect.DeepEqual(other, again) {
		t.Fatal("one seed gave two instance sets")
	}
}

// TestMetricTablesMatchManifest pins the metric tables to BENCHMARK.json.
func TestMetricTablesMatchManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{m.EndToEnd, endToEnd}, {m.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("manifest lists %d metrics, the benchmark %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if c.got[i].Name != d.name || c.got[i].Unit != d.unit {
				t.Errorf("metric %d: manifest %s [%s], benchmark %s [%s]", i, c.got[i].Name, c.got[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestPinsRecordOnlyCleanRuns checks that a run with a failed check
// records no pins, a clean run records them, and a later run that
// disagrees fails.
func TestPinsRecordOnlyCleanRuns(t *testing.T) {
	dir := t.TempDir()
	run := func(v float64, failed bool) int {
		r := newReport("cover")
		r.pin("triplets", v)
		if failed {
			r.fail("injected")
		}
		r.checkPins(dir, "bin", 1, false)
		return r.failed
	}
	if n := run(7, true); n != 1 {
		t.Fatalf("failed first run: %d failures, want only the injected one", n)
	}
	if n := run(8, false); n != 0 {
		t.Fatalf("clean run after a failed one: %d failures; the failed run recorded its pins", n)
	}
	if n := run(8, false); n != 0 {
		t.Fatalf("repeat of the clean run: %d failures", n)
	}
	if n := run(7, false); n != 1 {
		t.Fatalf("run disagreeing with the recorded pins: %d failures, want 1", n)
	}
}

func TestAnswerDigestIgnoresTiming(t *testing.T) {
	resp := &engine.Response{Solution: &core.Solution{Circuit: "c17", Optimal: true}, PrepareCached: true}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := encode(resp)
	traced := *resp
	traced.Timing = &obs.TraceData{TraceID: "t", Spans: []obs.SpanData{{SpanID: "s", Name: "solve", Duration: 5}}}
	if answerDigest(encode(&traced)) != answerDigest(plain) {
		t.Fatal("timing changed the answer digest")
	}
	other := *resp
	other.MatrixCached = true
	if answerDigest(encode(&other)) == answerDigest(plain) {
		t.Fatal("a different answer has the same digest")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestTracedCountersRepeat runs the traced paths twice on the same inputs
// and requires every deterministic counter to repeat exactly.
func TestTracedCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("solves circuits and corpus instances")
	}
	counters := func() map[string]map[string]int64 {
		rec := newRecorder()
		for i, req := range coldLedger(5)[:3] {
			_, m, _, err := directSolve(rec, i+1, req)
			if err != nil {
				t.Fatal(err)
			}
			if err := replayCover(rec, i+1, m, nil, 1); err != nil {
				t.Fatal(err)
			}
		}
		insts, err := loadCover(defaultCoverSeed)
		if err != nil {
			t.Fatal(err)
		}
		var small []coverInstance
		for _, ci := range insts {
			if ci.spec.Tier != corpus.TierOpen || ci.spec.Name == "open-2" {
				small = append(small, ci)
			}
		}
		_, _, errs := coverPass(rec, small, 100)
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		return rec.totals(nil).counts
	}
	a, b := counters(), counters()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("counters differ between identical traced runs:\n%v\n%v", a, b)
	}
	for _, k := range []string{"atpg", "dmatrix", "setcover.reduce", "setcover.exact"} {
		if len(a[k]) == 0 {
			t.Errorf("no %s counters recorded", k)
		}
	}
}

// TestServeRuns drives both serve runs briefly: the load's two clients
// share the recorder and the server, so run it under -race.
func TestServeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server and prewarms 24 keys")
	}
	cfg := config{workload: "serve", seed: 2, seconds: 0.5}
	for _, c := range []struct {
		defs []metricDef
		run  func() *report
	}{
		{endToEnd, func() *report { return runServe(context.Background(), cfg) }},
		{perLayer, func() *report { r, _ := traceServe(context.Background(), cfg); return r }},
	} {
		r := c.run()
		var out bytes.Buffer
		if !r.write(&out, c.defs) {
			t.Fatalf("serve run failed:\n%s", out.String())
		}
	}
}
