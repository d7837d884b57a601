// Package parallel provides the small bounded worker pool shared by the
// repository's hot paths (Detection Matrix construction, the exact
// covering solve and batch serving), and the one interpretation of every
// Parallelism option.
//
// The pool is deliberately minimal: work is identified by integer index,
// indices are handed out dynamically (an atomic cursor, so fast workers steal
// slack from slow ones), and every callback receives the worker's identity
// so callers can keep per-worker scratch state without locking. Nothing here
// introduces nondeterminism by itself — callers that write results to
// per-index slots and fold them in index order get output that is
// bit-identical to a serial run, which is the contract internal/dmatrix
// documents.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Degree normalizes a requested parallelism: values >= 1 are returned
// unchanged; zero and negative values mean "one worker per available
// processor" (runtime.GOMAXPROCS(0)). It is the single interpretation of
// every Parallelism option and -j flag in the repository.
func Degree(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Clamp limits a degree to the number of work items so that no goroutine is
// spawned just to find the queue already drained.
func Clamp(workers, items int) int {
	if items < 1 {
		return 1
	}
	if workers > items {
		return items
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ForEach invokes fn(worker, i) exactly once for every i in [0, n),
// distributing indices dynamically across Clamp(workers, n) goroutines.
// worker is in [0, Clamp(workers, n)) and identifies the calling goroutine,
// so fn may freely use worker-indexed scratch state.
//
// The first error returned by fn stops the distribution of further indices
// (in-flight calls still finish) and is returned. With workers <= 1, fn runs
// on the calling goroutine with worker == 0.
func ForEach(workers, n int, fn func(worker, i int) error) error {
	workers = Clamp(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	cursor.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= n || failed.Load() {
					return
				}
				if err := fn(worker, i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}
