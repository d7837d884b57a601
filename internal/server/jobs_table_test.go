package server

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
)

// newTableWithJobs builds a table of n jobs directly (no HTTP, no solver):
// the table-level invariants under test are independent of how jobs run.
// create refuses a job while limit jobs are unfinished, so the n queued
// jobs go in under a limit of n; the limit under test applies after.
func newTableWithJobs(t *testing.T, limit, n int) (*jobTable, []*job) {
	t.Helper()
	tbl := &jobTable{}
	tbl.init(max(limit, n))
	jobs := make([]*job, 0, n)
	for i := 0; i < n; i++ {
		jobs = append(jobs, mustCreate(t, tbl))
	}
	tbl.mu.Lock()
	tbl.limit = limit
	tbl.mu.Unlock()
	return tbl, jobs
}

func mustCreate(t *testing.T, tbl *jobTable) *job {
	t.Helper()
	j, err := tbl.create(engine.Request{}, func() {})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func (j *job) setFinished(t *testing.T, st jobState, at time.Time) {
	t.Helper()
	if !st.finished() {
		t.Fatalf("setFinished called with non-final state %q", st)
	}
	j.mu.Lock()
	j.state, j.finished = st, at
	j.mu.Unlock()
}

// TestJobListDeterministicOrder pins the listing contract: ids ascending,
// which for zero-padded creation counters is creation order — regardless
// of map iteration order, so the same table always serializes the same.
func TestJobListDeterministicOrder(t *testing.T) {
	tbl, _ := newTableWithJobs(t, 100, 17)
	for trial := 0; trial < 10; trial++ {
		views := tbl.list()
		if len(views) != 17 {
			t.Fatalf("list returned %d jobs, want 17", len(views))
		}
		for i, v := range views {
			want := fmt.Sprintf("job-%06d", i+1)
			if v.ID != want {
				t.Fatalf("trial %d: views[%d].ID = %q, want %q", trial, i, v.ID, want)
			}
		}
	}
}

// TestJobEvictionOldestFinishedFirst pins the eviction contract: when the
// table is over its limit, finished jobs leave in (finish time, id) order
// and running jobs are untouchable.
func TestJobEvictionOldestFinishedFirst(t *testing.T) {
	tbl, jobs := newTableWithJobs(t, 4, 4)
	base := time.Now()
	// Finish times deliberately disagree with creation order: job 3
	// finished first, then job 1; jobs 2 and 4 still run.
	jobs[2].setFinished(t, jobDone, base.Add(1*time.Second))
	jobs[0].setFinished(t, jobFailed, base.Add(2*time.Second))

	// One more job pushes the table to 5 > 4: exactly one eviction, and it
	// must be job 3 (earliest finish), not job 1 (earliest creation).
	mustCreate(t, tbl)
	if _, ok := tbl.get(jobs[2].id); ok {
		t.Fatalf("%s has the oldest finish time and should have been evicted", jobs[2].id)
	}
	if _, ok := tbl.get(jobs[0].id); !ok {
		t.Fatalf("%s was evicted out of finish-time order", jobs[0].id)
	}
	for _, j := range []*job{jobs[1], jobs[3]} {
		if _, ok := tbl.get(j.id); !ok {
			t.Fatalf("running job %s was evicted", j.id)
		}
	}
}

// TestJobEvictionFinishTimeTies pins the tie-break: equal finish times
// evict in id order.
func TestJobEvictionFinishTimeTies(t *testing.T) {
	tbl, jobs := newTableWithJobs(t, 2, 4)
	at := time.Now()
	for _, j := range jobs {
		j.setFinished(t, jobCancelled, at)
	}
	mustCreate(t, tbl) // 5 jobs, limit 2 → evict 3
	var left []string
	for _, v := range tbl.list() {
		left = append(left, v.ID)
	}
	want := []string{"job-000004", "job-000005"}
	if strings.Join(left, ",") != strings.Join(want, ",") {
		t.Fatalf("surviving jobs = %v, want %v (ties broken by id)", left, want)
	}
}

// TestJobCreateBoundsUnfinished pins the queue bound under concurrent
// submissions: with limit 2, exactly two of eight creates succeed, and a
// finished job frees its place.
func TestJobCreateBoundsUnfinished(t *testing.T) {
	tbl := &jobTable{}
	tbl.init(2)
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tbl.create(engine.Request{}, func() {}); err == nil {
				accepted.Add(1)
			} else if !errors.Is(err, errBusy) {
				t.Errorf("create: %v, want errBusy", err)
			}
		}()
	}
	wg.Wait()
	if n := accepted.Load(); n != 2 {
		t.Fatalf("%d jobs accepted, want 2", n)
	}
	tbl.snapshot()[0].setFinished(t, jobDone, time.Now())
	mustCreate(t, tbl)
}

// TestJobCountsDeterministic pins that the aggregate views agree with the
// sorted snapshot they are built from.
func TestJobCountsDeterministic(t *testing.T) {
	tbl, jobs := newTableWithJobs(t, 100, 6)
	jobs[1].setFinished(t, jobDone, time.Now())
	jobs[4].setFinished(t, jobFailed, time.Now())
	counts := tbl.countByState()
	if counts[string(jobQueued)] != 4 || counts[string(jobDone)] != 1 || counts[string(jobFailed)] != 1 {
		t.Fatalf("countByState = %v", counts)
	}
	if got := tbl.active(); got != 4 {
		t.Fatalf("active = %d, want 4", got)
	}
}
