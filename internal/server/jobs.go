package server

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// A job is one asynchronous solve: created by POST /v1/jobs, observed by
// GET /v1/jobs/{id}, cancelled by DELETE. Its life is
//
//	queued → running → done | failed | cancelled
//
// with "done" covering both a completed solve and a cancellation that
// reached the anytime covering phase (the Response then carries the best
// cover found with Interrupted set — a usable incumbent, per the paper's
// operational framing). "cancelled" means the job was stopped before any
// solution existed; "failed" means the solve itself errored.
type jobState string

const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

func (st jobState) finished() bool {
	return st == jobDone || st == jobFailed || st == jobCancelled
}

type job struct {
	id      string
	req     engine.Request
	created time.Time
	cancel  context.CancelFunc

	mu         sync.Mutex
	state      jobState          // guarded by mu
	started    time.Time         // guarded by mu
	finished   time.Time         // guarded by mu
	best       *engine.Incumbent // guarded by mu; latest anytime snapshot, nil before the first
	bestAt     time.Time         // guarded by mu
	resp       *engine.Response  // guarded by mu
	errMsg     string            // guarded by mu
	timeline   []timelinePoint   // guarded by mu; incumbent + sample history, bounded
	lastSample *timelinePoint    // guarded by mu; previous sample, for the nodes/sec delta
}

// A timelinePoint is one entry of a job's search-progress timeline: an
// "incumbent" point for every improvement of the best cover, a "sample"
// point at the solver's coarse progress cadence carrying the bound gap
// and the node throughput since the previous sample.
type timelinePoint struct {
	T    time.Time `json:"t"`
	Kind string    `json:"kind"` // "incumbent" or "sample"
	// Cost is the best cover's cost at this point (whole-solution totals,
	// essential rows included).
	Cost int `json:"cost"`
	// Rows is the incumbent cover's cardinality (incumbent points only).
	Rows  int   `json:"rows,omitempty"`
	Nodes int64 `json:"nodes"`
	// RootLB and Gap report the root lower bound and the relative gap
	// (cost − root LB) / cost (sample points only; the bound exists once
	// the Lagrangian root ascent has run).
	RootLB int     `json:"root_lb,omitempty"`
	Gap    float64 `json:"gap,omitempty"`
	// NodesPerSec is the search throughput since the previous sample.
	NodesPerSec float64 `json:"nodes_per_sec,omitempty"`
}

// maxTimeline bounds a job's retained timeline. Once full, the final slot
// tracks the newest point, so the latest state is always visible even on
// very long solves.
const maxTimeline = 256

func (j *job) appendPointLocked(p timelinePoint) {
	if len(j.timeline) < maxTimeline {
		j.timeline = append(j.timeline, p)
		return
	}
	j.timeline[len(j.timeline)-1] = p
}

// observe is the incumbent callback threaded into the exact solver; it
// runs under the solver's lock and therefore only swaps a snapshot.
func (j *job) observe(inc engine.Incumbent) {
	j.mu.Lock()
	j.best, j.bestAt = &inc, time.Now()
	j.appendPointLocked(timelinePoint{
		T: j.bestAt, Kind: "incumbent", Cost: inc.Cost, Rows: inc.Rows, Nodes: inc.Nodes,
	})
	j.mu.Unlock()
}

// observeSample is the periodic search-progress callback: it derives the
// bound gap from the sample and the throughput from the previous one.
func (j *job) observeSample(sm engine.Sample) {
	now := time.Now()
	j.mu.Lock()
	defer j.mu.Unlock()
	p := timelinePoint{T: now, Kind: "sample", Cost: sm.Best, Nodes: sm.Nodes, RootLB: sm.RootLB}
	if sm.Best > 0 && sm.RootLB > 0 {
		p.Gap = float64(sm.Best-sm.RootLB) / float64(sm.Best)
	}
	if ls := j.lastSample; ls != nil {
		if dt := now.Sub(ls.T).Seconds(); dt > 0 {
			p.NodesPerSec = float64(sm.Nodes-ls.Nodes) / dt
		}
	}
	j.appendPointLocked(p)
	cp := p
	j.lastSample = &cp
}

// jobView is the wire form of a job's status.
type jobView struct {
	ID      string         `json:"id"`
	State   jobState       `json:"state"`
	Request engine.Request `json:"request"`
	Created time.Time      `json:"created"`
	Started *time.Time     `json:"started,omitempty"`
	Ended   *time.Time     `json:"ended,omitempty"`
	// Best is the most recent best-so-far snapshot of the exact covering
	// solve (whole-solution triplet counts); it appears once the solve has
	// a greedy incumbent and tightens as the search proves better covers.
	Best   *engine.Incumbent `json:"best,omitempty"`
	BestAt *time.Time        `json:"best_at,omitempty"`
	// Response is present once State is "done".
	Response *engine.Response `json:"response,omitempty"`
	Error    string           `json:"error,omitempty"`
	// Timeline is the bounded incumbent/sample history of the search —
	// cost improvements, bound gaps and node throughput over time.
	Timeline []timelinePoint `json:"timeline,omitempty"`
}

func (j *job) view() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:      j.id,
		State:   j.state,
		Request: j.req,
		Created: j.created,
		Best:    j.best,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Ended = &t
	}
	if j.best != nil {
		t := j.bestAt
		v.BestAt = &t
	}
	if len(j.timeline) > 0 {
		v.Timeline = append([]timelinePoint(nil), j.timeline...)
	}
	if j.state == jobDone {
		v.Response = j.resp
	}
	return v
}

// jobTable owns every live job. Finished jobs are retained (so their
// Response stays fetchable) up to the configured bound, then evicted in
// order of finish time.
type jobTable struct {
	mu     sync.Mutex
	jobs   map[string]*job // guarded by mu
	nextID int             // guarded by mu
	limit  int             // guarded by mu
}

func (t *jobTable) init(limit int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs = make(map[string]*job)
	t.limit = limit
}

// create registers a new queued job. It refuses with errBusy while limit
// jobs are queued or running: each holds a goroutine and its Request,
// whose body may be megabytes, until it finishes.
func (t *jobTable) create(req engine.Request, cancel context.CancelFunc) (*job, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := t.activeLocked(); n >= t.limit {
		return nil, fmt.Errorf("%w: %d jobs queued or running", errBusy, n)
	}
	t.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%06d", t.nextID),
		req:     req,
		created: time.Now(),
		cancel:  cancel,
		state:   jobQueued,
	}
	t.jobs[j.id] = j
	t.evictLocked()
	return j, nil
}

// evictLocked drops finished jobs — oldest finish time first, ids
// breaking ties — while the table is over the limit. Queued and running
// jobs are never evicted; create admits a job only while fewer than limit
// are, so the finished ones always suffice.
func (t *jobTable) evictLocked() {
	if len(t.jobs) <= t.limit {
		return
	}
	type ended struct {
		id  string
		end time.Time
	}
	var done []ended
	for id, j := range t.jobs {
		if st, end := j.snapshotFinish(); st.finished() {
			done = append(done, ended{id, end})
		}
	}
	sort.Slice(done, func(a, b int) bool {
		if !done[a].end.Equal(done[b].end) {
			return done[a].end.Before(done[b].end)
		}
		return done[a].id < done[b].id
	})
	for _, d := range done {
		if len(t.jobs) <= t.limit {
			break
		}
		delete(t.jobs, d.id)
	}
}

func (j *job) snapshotState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// snapshotFinish returns the state together with the finish time, so the
// eviction pass reads both under one acquisition.
func (j *job) snapshotFinish() (jobState, time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.finished
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// snapshot returns the table's jobs in id order. Ids are zero-padded
// creation counters, so this is also creation order; list output and
// per-state counts read through here so they do not depend on map order.
func (t *jobTable) snapshot() []*job {
	t.mu.Lock()
	jobs := make([]*job, 0, len(t.jobs))
	for _, j := range t.jobs {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].id < jobs[b].id })
	return jobs
}

func (t *jobTable) list() []jobView {
	jobs := t.snapshot()
	views := make([]jobView, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	return views
}

func (t *jobTable) countByState() map[string]int {
	out := map[string]int{}
	for _, j := range t.snapshot() {
		out[string(j.snapshotState())]++
	}
	return out
}

// active counts jobs not yet finished (the drain condition).
func (t *jobTable) active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.activeLocked()
}

// activeLocked is active with t.mu held. A count needs no order, so it
// ranges over the map.
func (t *jobTable) activeLocked() int {
	n := 0
	for _, j := range t.jobs {
		if !j.snapshotState().finished() {
			n++
		}
	}
	return n
}

// runJob executes one job to completion on its own goroutine: wait for an
// admission slot (the job table, bounded by MaxJobs, is the queue), then
// solve with the anytime observer attached.
func (s *Server) runJob(ctx context.Context, j *job) {
	// Release the job's context resources however it ends, or every
	// finished job would stay registered as a child of the server's base
	// context for the daemon's lifetime. DELETE calling j.cancel again is
	// a no-op.
	defer j.cancel()
	release, err := s.acquire(ctx, false)
	if err != nil {
		// Cancelled (or the server drained) while still queued: no work
		// was lost because none had started.
		j.mu.Lock()
		j.state, j.errMsg, j.finished = jobCancelled, err.Error(), time.Now()
		j.mu.Unlock()
		return
	}
	defer release()

	j.mu.Lock()
	j.state, j.started = jobRunning, time.Now()
	j.mu.Unlock()

	resp, err := s.eng.SolveWithObserver(ctx, j.req, engine.SolveObserver{
		OnIncumbent: j.observe,
		OnSample:    j.observeSample,
	})
	// The job's trace completes here, on the job goroutine — record it so
	// GET /v1/traces serves the solve's phase breakdown (merged by trace
	// ID with the creating request's span).
	if tr := obs.FromContext(ctx); tr != nil {
		s.recorder.Record(tr.Data())
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	switch {
	case err == nil:
		// Includes cancellation that reached the covering phase: the
		// Response carries the best-so-far with Interrupted set.
		j.state, j.resp = jobDone, resp
	case ctx.Err() != nil:
		j.state, j.errMsg = jobCancelled, err.Error()
	default:
		j.state, j.errMsg = jobFailed, err.Error()
	}
}

// ---- job handlers ----

func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.writeError(w, errBusy)
		return
	}
	var req engine.Request
	if err := decodeRequest(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	// The job outlives the creating request, so it gets its own Trace
	// continuing the request's trace ID: the recorder merges both by ID,
	// stitching the accept span and the solve's phase spans together.
	var jtr *obs.Trace
	if tid, pid, ok := obs.ParseTraceparent(obs.Traceparent(r.Context())); ok {
		jtr = obs.NewTraceWithParent(tid, pid, s.cfg.ProcessName)
	} else {
		jtr = obs.NewTrace(s.cfg.ProcessName)
	}
	ctx = obs.ContextWithTrace(ctx, jtr)
	j, err := s.jobs.create(req, cancel)
	if err != nil {
		cancel()
		s.writeError(w, err)
		return
	}
	go s.runJob(ctx, j)
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.writeJSON(w, http.StatusAccepted, j.view())
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	s.writeJSON(w, http.StatusOK, j.view())
}

// handleJobDelete cancels a job. Cancelling a finished job is a no-op that
// reports the final state, so DELETE is idempotent.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job " + r.PathValue("id")})
		return
	}
	j.cancel()
	s.writeJSON(w, http.StatusOK, j.view())
}
