package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanTree(t *testing.T) {
	tr := NewTrace("test")
	ctx := ContextWithTrace(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "solve")
	ctx2, prep := StartSpan(ctx1, "prepare")
	prep.SetInt("patterns", 42)
	prep.AddInt("faults", 10)
	prep.AddInt("faults", 5)
	prep.SetStr("circuit", "s1238")
	prep.End()
	_, bb := StartSpan(ctx2, "bb")
	bb.End()
	root.End()

	td := tr.Data()
	if td.TraceID != tr.ID() || len(td.TraceID) != 32 {
		t.Fatalf("trace id %q", td.TraceID)
	}
	if len(td.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, sd := range td.Spans {
		byName[sd.Name] = sd
	}
	if byName["solve"].Parent != "" {
		t.Errorf("root span has parent %q", byName["solve"].Parent)
	}
	if byName["prepare"].Parent != byName["solve"].SpanID {
		t.Errorf("prepare parent = %q, want solve %q", byName["prepare"].Parent, byName["solve"].SpanID)
	}
	// bb was started from the context returned by StartSpan(prepare), so
	// prepare is its parent even though prepare already ended.
	if byName["bb"].Parent != byName["prepare"].SpanID {
		t.Errorf("bb parent = %q, want prepare %q", byName["bb"].Parent, byName["prepare"].SpanID)
	}
	attrs := byName["prepare"].Attrs
	if len(attrs) != 3 {
		t.Fatalf("prepare attrs = %v", attrs)
	}
	// Attrs are sorted by key at End.
	if attrs[0].Key != "circuit" || attrs[0].Str != "s1238" {
		t.Errorf("attr[0] = %v", attrs[0])
	}
	if attrs[1].Key != "faults" || attrs[1].Int != 15 {
		t.Errorf("attr[1] = %v", attrs[1])
	}
	if attrs[2].Key != "patterns" || attrs[2].Int != 42 {
		t.Errorf("attr[2] = %v", attrs[2])
	}
}

func TestSubtree(t *testing.T) {
	tr := NewTrace("test")
	ctx := ContextWithTrace(context.Background(), tr)
	_, other := StartSpan(ctx, "other")
	other.End()
	ctx1, solve := StartSpan(ctx, "solve")
	ctx2, prep := StartSpan(ctx1, "prepare")
	_, atpgSp := StartSpan(ctx2, "atpg")
	atpgSp.End()
	prep.End()
	solve.End()

	sub := tr.Subtree(solve.ID())
	if len(sub.Spans) != 3 {
		t.Fatalf("subtree has %d spans, want 3: %+v", len(sub.Spans), sub.Spans)
	}
	for _, sd := range sub.Spans {
		if sd.Name == "other" {
			t.Errorf("subtree leaked unrelated span %q", sd.Name)
		}
	}
	if empty := tr.Subtree("0123456789abcdef"); len(empty.Spans) != 0 {
		t.Errorf("unknown-span subtree has %d spans", len(empty.Spans))
	}
}

func TestNilSafety(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "no-trace")
	if sp != nil {
		t.Fatalf("span on traceless context: %v", sp)
	}
	sp.SetInt("x", 1)
	sp.AddInt("x", 1)
	sp.SetStr("y", "z")
	sp.End()
	if got := sp.ID(); got != "" {
		t.Errorf("nil span ID = %q", got)
	}
	if cur := CurrentSpan(ctx); cur != nil {
		t.Errorf("current span on traceless context: %v", cur)
	}
	var tr *Trace
	if tr.ID() != "" || tr.Data() != nil || tr.Snapshot() != nil || tr.Subtree("x") != nil {
		t.Error("nil trace methods not inert")
	}
	if got := Traceparent(context.Background()); got != "" {
		t.Errorf("traceparent on traceless context = %q", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTrace("gw")
	ctx, sp := StartSpan(ContextWithTrace(context.Background(), tr), "proxy")
	hdr := Traceparent(ctx)
	tid, pid, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own header %q did not parse", hdr)
	}
	if tid != tr.ID() || pid != sp.ID() {
		t.Fatalf("parsed (%q,%q), want (%q,%q)", tid, pid, tr.ID(), sp.ID())
	}

	// A receiver continuing the trace hangs its first span off pid.
	child := NewTraceWithParent(tid, pid, "replica")
	_, rsp := StartSpan(ContextWithTrace(context.Background(), child), "request")
	rsp.End()
	spans := child.Snapshot()
	if len(spans) != 1 || spans[0].Parent != pid {
		t.Fatalf("remote root parent = %+v, want parent %q", spans, pid)
	}
	sp.End()
}

func TestParseTraceparentRejects(t *testing.T) {
	good := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if _, _, ok := ParseTraceparent(good); !ok {
		t.Fatal("canonical example rejected")
	}
	bad := []string{
		"",
		"garbage",
		good[:54],             // truncated
		good + "0",            // too long
		strings.ToUpper(good), // uppercase hex is invalid
		"ff" + good[2:],       // reserved version
		"00-" + strings.Repeat("0", 32) + "-b7ad6b7169203331-01",                 // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00_0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",                // wrong separator
		"00-0af7651916cd43dd8448eb211c8031gg-b7ad6b7169203331-01",                // non-hex
	}
	for _, s := range bad {
		if _, _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted malformed traceparent %q", s)
		}
	}
}

func TestRecorderBoundsAndMerge(t *testing.T) {
	r := NewRecorder(2)
	a := &TraceData{TraceID: "a", Spans: []SpanData{{SpanID: "1"}}}
	b := &TraceData{TraceID: "b", Spans: []SpanData{{SpanID: "2"}}}
	c := &TraceData{TraceID: "c", Spans: []SpanData{{SpanID: "3"}}}
	r.Record(a)
	r.Record(b)
	// Same ID merges rather than evicts.
	r.Record(&TraceData{TraceID: "b", Spans: []SpanData{{SpanID: "4"}}})
	if got, ok := r.Get("b"); !ok || len(got.Spans) != 2 {
		t.Fatalf("merged trace b = %+v, %v", got, ok)
	}
	r.Record(c) // evicts a
	if _, ok := r.Get("a"); ok {
		t.Error("oldest trace not evicted")
	}
	list := r.List()
	if len(list) != 2 || list[0].TraceID != "c" || list[1].TraceID != "b" {
		t.Fatalf("list = %+v", list)
	}
	// Ignored inputs.
	r.Record(nil)
	r.Record(&TraceData{})
	if len(r.List()) != 2 {
		t.Error("nil/unidentified traces were retained")
	}
}

func TestSpanCap(t *testing.T) {
	tr := NewTrace("test")
	ctx := ContextWithTrace(context.Background(), tr)
	for i := 0; i < maxSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	td := tr.Data()
	if len(td.Spans) != maxSpans {
		t.Errorf("retained %d spans, want cap %d", len(td.Spans), maxSpans)
	}
	if td.Dropped != 10 {
		t.Errorf("dropped = %d, want 10", td.Dropped)
	}
}
