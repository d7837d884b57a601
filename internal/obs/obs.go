// Package obs is the repository's stdlib-only observability layer:
// phase-structured traces carried on a context.Context, W3C traceparent
// propagation between processes, and a bounded in-memory flight
// recorder.
//
// The design contract mirrors the determinism contract of the solver
// core: obs is strictly write-only with respect to solve results. A
// span records wall-clock timings and counters, but nothing read from a
// Trace or Span ever feeds back into a solve, a cache key, or a
// persisted artifact — tracing on and tracing off produce bit-identical
// Solutions (pinned by test). obs is deliberately outside reseedvet's
// determinism scope; the wall-clock reads below carry acknowledged
// timing-only carve-outs so the facts engine does not propagate them
// into the solver core.
package obs

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans bounds the spans one Trace retains. Past the cap new spans
// are counted in Dropped rather than stored, so a runaway fan-out
// cannot grow a trace without bound.
const maxSpans = 512

// An Attr is one key/value annotation on a span. Exactly one of Int and
// Str is meaningful; a slice of Attrs (not a map) keeps serialization
// order deterministic.
type Attr struct {
	Key string `json:"key"`
	Int int64  `json:"int,omitempty"`
	Str string `json:"str,omitempty"`
}

// SpanData is the serializable record of one completed span.
type SpanData struct {
	SpanID   string `json:"span_id"`
	Parent   string `json:"parent_span_id,omitempty"`
	Name     string `json:"name"`
	Process  string `json:"process,omitempty"`
	Start    int64  `json:"start_unix_nano"`
	Duration int64  `json:"duration_nanos"`
	Attrs    []Attr `json:"attrs,omitempty"`
}

// TraceData is the serializable snapshot of a trace: the per-phase
// timing breakdown returned in Response.Timing and served by
// /v1/traces.
type TraceData struct {
	TraceID string     `json:"trace_id"`
	Process string     `json:"process,omitempty"`
	Dropped int        `json:"dropped_spans,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// A Trace accumulates completed spans for one logical operation. It is
// safe for concurrent use; spans from parallel phases land in
// completion order (ordering is presentation-only — consumers key off
// parent links, not slice position).
type Trace struct {
	traceID    string
	process    string
	rootParent string // span position inherited from an incoming traceparent

	mu      sync.Mutex
	spans   []SpanData // guarded by mu
	dropped int        // guarded by mu
}

// NewTrace starts a fresh root trace owned by the named process.
func NewTrace(process string) *Trace {
	return &Trace{traceID: newTraceID(), process: process}
}

// NewTraceWithParent continues a trace started elsewhere: spans recorded
// here share traceID, and the first span opened without a local parent
// becomes a child of parentSpanID — so a remote collector can stitch
// the processes into one tree.
func NewTraceWithParent(traceID, parentSpanID, process string) *Trace {
	return &Trace{traceID: traceID, process: process, rootParent: parentSpanID}
}

// ID returns the 32-hex-digit trace ID.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.traceID
}

func (t *Trace) add(sd SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sd)
}

// Snapshot returns a copy of the spans recorded so far.
func (t *Trace) Snapshot() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, len(t.spans))
	copy(out, t.spans)
	return out
}

// Data returns the full serializable snapshot of the trace.
func (t *Trace) Data() *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := make([]SpanData, len(t.spans))
	copy(spans, t.spans)
	return &TraceData{TraceID: t.traceID, Process: t.process, Dropped: t.dropped, Spans: spans}
}

// Subtree returns the snapshot restricted to the span with the given ID
// and its recorded descendants — the per-phase breakdown of one
// operation on a trace that may span several requests. A spanID not in
// the trace yields an empty span list (not nil TraceData).
func (t *Trace) Subtree(spanID string) *TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	keep := map[string]bool{spanID: true}
	// Spans complete children-first, so one reverse sweep reaches every
	// descendant; the sweep repeats until the set stops growing, so spans
	// recorded in any order are safe.
	for changed := true; changed; {
		changed = false
		for _, sd := range t.spans {
			if !keep[sd.SpanID] && keep[sd.Parent] {
				keep[sd.SpanID] = true
				changed = true
			}
		}
	}
	var spans []SpanData
	for _, sd := range t.spans {
		if keep[sd.SpanID] {
			spans = append(spans, sd)
		}
	}
	if spans == nil {
		spans = []SpanData{}
	}
	return &TraceData{TraceID: t.traceID, Process: t.process, Dropped: t.dropped, Spans: spans}
}

// A Span is one in-progress phase of a trace. The zero of usefulness is
// a nil *Span: every method no-ops, so call sites need no trace-enabled
// branch.
type Span struct {
	tr     *Trace
	id     string
	parent string
	start  time.Time

	mu    sync.Mutex
	name  string // guarded by mu
	attrs []Attr // guarded by mu
	done  bool   // guarded by mu
}

// ID returns the span's 16-hex-digit ID ("" for a nil span).
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// SetName replaces the span's name — for callers whose best name only
// resolves after the work ran (a server naming its root span by the
// dispatched route).
func (s *Span) SetName(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.name = name
	s.mu.Unlock()
}

// SetInt sets (replaces) an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Int = v
			s.attrs[i].Str = ""
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// AddInt accumulates into an integer attribute. Addition commutes, so
// concurrent workers folding counters into one span stay
// order-independent.
func (s *Span) AddInt(key string, v int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Int += v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Int: v})
}

// SetStr sets (replaces) a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Str = v
			s.attrs[i].Int = 0
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Str: v})
}

// End completes the span and records it on its trace. Attrs are sorted
// by key so the serialized form does not depend on instrumentation call
// order. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	//reseedvet:ignore detsource -- span duration is timing-only telemetry; it never feeds a solve, cache key or artifact
	d := time.Since(s.start)
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	name := s.name
	attrs := make([]Attr, len(s.attrs))
	copy(attrs, s.attrs)
	s.mu.Unlock()
	sort.Slice(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
	s.tr.add(SpanData{
		SpanID:   s.id,
		Parent:   s.parent,
		Name:     name,
		Process:  s.tr.process,
		Start:    s.start.UnixNano(),
		Duration: int64(d),
		Attrs:    attrs,
	})
}

type traceKey struct{}
type spanKey struct{}

// ContextWithTrace returns a context carrying tr. Values survive
// context.WithoutCancel, so traces flow into shared cache flights
// unchanged.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if tr == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// CurrentSpan returns the innermost span opened on ctx, or nil. A nil
// result is usable: every Span method no-ops on nil.
func CurrentSpan(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan opens a named span as a child of ctx's current span (or of
// the trace's inherited remote parent) and returns a context carrying
// it. On a context with no trace it returns (ctx, nil) — tracing-off
// call sites pay one context lookup and nothing else. The caller must
// End the span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := FromContext(ctx)
	if tr == nil {
		return ctx, nil
	}
	parent := tr.rootParent
	// A current span only parents spans of its own trace: when a context
	// carrying one trace's span is given a different trace, that span must
	// not leak across the trace boundary as a dangling parent.
	if cur := CurrentSpan(ctx); cur != nil && cur.tr == tr {
		parent = cur.id
	}
	sp := &Span{
		tr:     tr,
		id:     newSpanID(),
		parent: parent,
		name:   name,
		//reseedvet:ignore detsource -- span start time is timing-only telemetry; it never feeds a solve, cache key or artifact
		start: time.Now(),
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// ID generation: a process-local seeded PRNG behind a mutex. IDs are
// opaque correlation labels — they need uniqueness within a recorder's
// retention window, not cryptographic strength, and they never touch a
// solve.
var idMu sync.Mutex

// idRand is guarded by idMu. Seeding from the clock and PID happens in
// a package-level initializer of an out-of-determinism-scope package:
// IDs must differ between processes precisely so cross-process traces
// stitch without collisions.
var idRand = rand.New(rand.NewSource(seedID()))

func seedID() int64 {
	//reseedvet:ignore detsource -- trace-ID seed is observability-only; IDs label telemetry and never influence solve results
	return time.Now().UnixNano() ^ int64(os.Getpid())<<32
}

func newTraceID() string {
	idMu.Lock()
	a, b := idRand.Uint64(), idRand.Uint64()
	idMu.Unlock()
	if a == 0 && b == 0 {
		a = 1 // the all-zero trace ID is invalid per W3C trace-context
	}
	return fmt.Sprintf("%016x%016x", a, b)
}

func newSpanID() string {
	idMu.Lock()
	v := idRand.Uint64()
	idMu.Unlock()
	if v == 0 {
		v = 1 // the all-zero parent ID is invalid per W3C trace-context
	}
	return fmt.Sprintf("%016x", v)
}
