// Package par is the worker-pool fan-out engine behind the parallel
// experiment harness (vdom-bench -parallel N).
//
// The paper's evaluation is an embarrassingly parallel grid of independent
// deterministic cells: every Table 3/4/5 measurement, every figure row,
// and every chaos-soak shard boots its own isolated simulated machine.
// par schedules those cells across OS threads while keeping the work
// product bit-for-bit identical to a sequential run: jobs are indexed,
// each job writes only to its own result slot, and callers assemble
// results in index order. Worker count therefore affects wall-clock time
// only, never output — the property the bench layer's byte-identical
// output guarantee rests on.
//
// It also holds the two pieces of failure handling the fleet coordinator
// and the serve shard supervisor share: JobPanic attribution (Cause) and
// the jitter-free retry schedule (Backoff).
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// JobPanic is the panic value Do re-raises when a job panics: the
// original value wrapped with the failing job's index, so supervisors
// (the fleet coordinator, the serve shard guard) can attribute the
// failure to one cell instead of one anonymous pool. A panic that is
// already a JobPanic is re-raised unchanged, preserving the innermost
// attribution through nested pools.
type JobPanic struct {
	// Index is the failing job's index in the Do/Map fan-out.
	Index int
	// Value is the original panic value.
	Value any
}

// Error renders the wrapped panic; JobPanic satisfies error so recovered
// values flow into error-shaped supervision paths unchanged.
func (p JobPanic) Error() string {
	return fmt.Sprintf("par: job %d panicked: %v", p.Index, p.Value)
}

// Cause unwraps a recovered panic value: a JobPanic yields its original
// value and failing job index, any other value itself and index -1.
func Cause(r any) (value any, index int) {
	if jp, ok := r.(JobPanic); ok {
		return jp.Value, jp.Index
	}
	return r, -1
}

// wrap boxes a recovered panic value with its job index, passing
// through values that already carry one.
func wrap(i int, r any) any {
	if _, ok := r.(JobPanic); ok {
		return r
	}
	return JobPanic{Index: i, Value: r}
}

// Workers normalizes a -parallel flag value: n > 0 is used as-is, while
// n <= 0 selects runtime.GOMAXPROCS(0) (one worker per schedulable CPU).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Do runs job(0), ..., job(n-1) across at most `workers` goroutines and
// returns when all have finished. workers <= 1 (or n <= 1) runs strictly
// sequentially on the calling goroutine, in index order, with no
// goroutines spawned — the reference execution parallel runs must match.
//
// Jobs must be independent: they may not share mutable state, and each
// must confine its writes to its own result slot. A panicking job stops
// the pool and the panic value is re-raised on the calling goroutine once
// every in-flight job has returned, mirroring sequential behaviour; the
// re-raised value is a JobPanic wrapping the original with the failing
// index, at every pool width including the sequential one.
func Do(workers, n int, job func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			runWrapped(i, job)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				stop := func() (stop bool) {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = wrap(i, r)
								// Park the index cursor past the end so
								// idle workers drain instead of starting
								// doomed work.
								next.Store(int64(n))
							}
							panicMu.Unlock()
							stop = true
						}
					}()
					job(i)
					return false
				}()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// runWrapped runs job(i) on the calling goroutine, re-raising any panic
// wrapped as a JobPanic so the sequential path attributes failures
// exactly like the pooled one.
func runWrapped(i int, job func(int)) {
	defer func() {
		if r := recover(); r != nil {
			panic(wrap(i, r))
		}
	}()
	job(i)
}

// Map runs the jobs concurrently on at most `workers` goroutines and
// returns their results in input order, regardless of completion order.
// It is Do with a result slot per job.
func Map[T any](workers int, jobs []func() T) []T {
	out := make([]T, len(jobs))
	Do(workers, len(jobs), func(i int) { out[i] = jobs[i]() })
	return out
}

// Default retry schedule for the supervisors' Backoff.
const (
	DefaultBackoffBase = 10 * time.Millisecond
	DefaultBackoffCap  = 2 * time.Second
)

// Backoff is the deterministic, jitter-free delay before retry n
// (1-based): min(base<<(n-1), cap), and 0 for n <= 0. No jitter means a
// replayed fault schedule replays the exact recovery timeline too.
func Backoff(base, cap time.Duration, n int) time.Duration {
	if n <= 0 {
		return 0
	}
	d := base
	for i := 1; i < n && d < cap; i++ {
		d <<= 1
	}
	return min(d, cap)
}
