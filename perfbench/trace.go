package main

// The traced run's span recorder. Spans are recorded by the benchmark
// around its own calls into each layer (nothing inside the program is
// instrumented for this), kept in memory, and written out when the run
// ends.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded layer call. Times are nanoseconds since the run's
// epoch; Parent 0 marks a root. Spans of one request share Req.
type span struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent,omitempty"`
	Req    int               `json:"req"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Counts map[string]int64  `json:"counts,omitempty"`
	Tags   map[string]string `json:"tags,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder holds a run's spans. A nil *recorder records nothing, so the
// untraced paths share code with the traced ones.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span // guarded by mu; index i holds ID i+1
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: start})
	return len(r.spans)
}

// end closes span id, attaching counters (which may be nil).
func (r *recorder) end(id int, counts map[string]int64) {
	if r == nil || id == 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	s.Counts = counts
}

// tag attaches a string attribute to span id.
func (r *recorder) tag(id int, key, val string) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Tags == nil {
		s.Tags = map[string]string{}
	}
	s.Tags[key] = val
}

// attach adds a server-side span tree (a Response.Timing) under parent,
// renaming each span "server/<name>". Server and client share one clock:
// they run in this process.
func (r *recorder) attach(td *obs.TraceData, parent, req int) {
	if r == nil || td == nil {
		return
	}
	epoch := r.epoch.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	ids := map[string]int{}
	for _, sd := range td.Spans {
		r.spans = append(r.spans, span{})
		ids[sd.SpanID] = len(r.spans)
	}
	for _, sd := range td.Spans {
		id := ids[sd.SpanID]
		p, ok := ids[sd.Parent]
		if !ok {
			p = parent
		}
		s := span{ID: id, Parent: p, Req: req, Name: "server/" + sd.Name,
			Start: sd.Start - epoch, End: sd.Start - epoch + sd.Duration}
		for _, a := range sd.Attrs {
			if a.Str != "" {
				if s.Tags == nil {
					s.Tags = map[string]string{}
				}
				s.Tags[a.Key] = a.Str
				continue
			}
			if s.Counts == nil {
				s.Counts = map[string]int64{}
			}
			s.Counts[a.Key] = a.Int
		}
		r.spans[id-1] = s
	}
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its children (overlapping children, from
// parallel work, count once).
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered, curS, curE int64
		open := false
		for _, c := range ch {
			cs, ce := max(c.Start, s.Start), min(c.End, s.End)
			if ce <= cs {
				continue
			}
			switch {
			case !open:
				curS, curE, open = cs, ce, true
			case cs > curE:
				covered += curE - curS
				curS, curE = cs, ce
			default:
				curE = max(curE, ce)
			}
		}
		if open {
			covered += curE - curS
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanFile is the traced run's output document.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Env      string `json:"env"`
	Spans    []span `json:"spans"`
}

// write saves the spans to dir/<workload>-seed<N>.json and returns the path.
func (r *recorder) write(dir, workload string, seed int64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	raw, err := json.Marshal(spanFile{Workload: workload, Seed: seed, Env: envLine(), Spans: r.spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// readSpans prints, per span name, the calls, total duration and self
// time of a span file written by a traced run.
func readSpans(path string, w io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f spanFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	rec := &recorder{spans: f.Spans}
	t := rec.totals(nil)
	names := make([]string, 0, len(t.calls))
	for n := range t.calls {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return t.selfMS[names[i]] > t.selfMS[names[j]] })
	fmt.Fprintf(w, "%s seed=%d %s\n%-28s %8s %12s %12s\n", f.Workload, f.Seed, f.Env, "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, t.calls[n], t.durMS[n], t.selfMS[n])
	}
	return nil
}

// each calls fn for every span with its self time, under the lock.
func (r *recorder) each(fn func(s *span, self int64)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := selfTimes(r.spans)
	for i := range r.spans {
		fn(&r.spans[i], self[r.spans[i].ID])
	}
}

// layerTotals sums, per span name, the self time and duration (ms), the
// calls, and every counter of a set of spans.
type layerTotals struct {
	selfMS, durMS map[string]float64
	calls         map[string]int
	counts        map[string]map[string]int64
}

func newTotals() layerTotals {
	return layerTotals{selfMS: map[string]float64{}, durMS: map[string]float64{},
		calls: map[string]int{}, counts: map[string]map[string]int64{}}
}

// totals aggregates the spans keep selects (nil keeps all).
func (r *recorder) totals(keep func(*span) bool) layerTotals {
	t := newTotals()
	r.each(func(s *span, self int64) {
		if keep != nil && !keep(s) {
			return
		}
		t.selfMS[s.Name] += float64(self) / 1e6
		t.durMS[s.Name] += float64(s.dur()) / 1e6
		t.calls[s.Name]++
		if t.counts[s.Name] == nil {
			t.counts[s.Name] = map[string]int64{}
		}
		for k, v := range s.Counts {
			t.counts[s.Name][k] += v
		}
	})
	return t
}

// per divides every total by n: the mean per repetition of a ledger.
func (t layerTotals) per(n int) layerTotals {
	for k := range t.selfMS {
		t.selfMS[k] /= float64(n)
		t.durMS[k] /= float64(n)
		t.calls[k] /= n
		for c := range t.counts[k] {
			t.counts[k][c] /= int64(n)
		}
	}
	return t
}

func (t layerTotals) count(name, key string) float64 { return float64(t.counts[name][key]) }
