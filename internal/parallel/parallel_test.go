package parallel

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDegree(t *testing.T) {
	if got := Degree(3); got != 3 {
		t.Errorf("Degree(3) = %d", got)
	}
	if got := Degree(1); got != 1 {
		t.Errorf("Degree(1) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	if got := Degree(0); got != want {
		t.Errorf("Degree(0) = %d, want GOMAXPROCS %d", got, want)
	}
	if got := Degree(-5); got != want {
		t.Errorf("Degree(-5) = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ workers, items, want int }{
		{8, 3, 3},
		{2, 100, 2},
		{0, 5, 1},
		{4, 0, 1},
		{1, 1, 1},
	}
	for _, c := range cases {
		if got := Clamp(c.workers, c.items); got != c.want {
			t.Errorf("Clamp(%d, %d) = %d, want %d", c.workers, c.items, got, c.want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 1000
		counts := make([]int32, n)
		err := ForEach(workers, n, func(worker, i int) error {
			if worker < 0 || worker >= Clamp(workers, n) {
				t.Errorf("worker id %d out of range", worker)
			}
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	if err := ForEach(4, 0, func(worker, i int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("fn called with no work")
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls atomic.Int32
	err := ForEach(4, 10000, func(worker, i int) error {
		calls.Add(1)
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The error stops further distribution: far fewer than n calls happen.
	if n := calls.Load(); n == 10000 {
		t.Errorf("error did not stop distribution (%d calls)", n)
	}
}

func TestForEachSerialErrorStopsImmediately(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := ForEach(1, 100, func(worker, i int) error {
		calls++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if calls != 4 {
		t.Errorf("serial path made %d calls, want 4", calls)
	}
}
