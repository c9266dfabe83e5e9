package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	want := runtime.GOMAXPROCS(0)
	for _, n := range []int{0, -1} {
		if got := Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want GOMAXPROCS %d", n, got, want)
		}
	}
}

func TestDoCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 100
		var hits [n]atomic.Int64
		Do(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if c := hits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestDoSequentialOrder(t *testing.T) {
	var order []int
	Do(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if i != v {
			t.Fatalf("sequential Do out of order: %v", order)
		}
	}
}

func TestDoEmpty(t *testing.T) {
	Do(4, 0, func(int) { t.Fatal("job ran for n=0") })
}

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		jobs := make([]func() string, 20)
		for i := range jobs {
			i := i
			jobs[i] = func() string { return fmt.Sprint(i * i) }
		}
		got := Map(workers, jobs)
		for i, v := range got {
			if want := fmt.Sprint(i * i); v != want {
				t.Fatalf("workers=%d: Map[%d] = %q, want %q", workers, i, v, want)
			}
		}
	}
}

func TestDoPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				jp, ok := recover().(JobPanic)
				if !ok || jp.Value != "boom" || jp.Index != 3 {
					t.Errorf("workers=%d: recovered %#v, want JobPanic{Index: 3, Value: boom}", workers, jp)
				}
			}()
			Do(workers, 10, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestJobPanicIndex pins the failure-attribution contract: Do and Map
// re-raise a job panic as a JobPanic carrying the exact failing index —
// at every pool width, including the sequential reference execution —
// so fleet and serve supervisors can name the cell that died.
func TestJobPanicIndex(t *testing.T) {
	const fail = 7
	catch := func(run func()) JobPanic {
		t.Helper()
		var jp JobPanic
		func() {
			defer func() {
				r := recover()
				var ok bool
				if jp, ok = r.(JobPanic); !ok {
					t.Fatalf("recovered %#v, want a JobPanic", r)
				}
			}()
			run()
		}()
		return jp
	}
	for _, workers := range []int{1, 2, 16} {
		jp := catch(func() {
			Do(workers, 12, func(i int) {
				if i == fail {
					panic("do-boom")
				}
			})
		})
		if jp.Index != fail || jp.Value != "do-boom" {
			t.Errorf("Do workers=%d: got JobPanic{%d, %v}, want {%d, do-boom}", workers, jp.Index, jp.Value, fail)
		}
		jobs := make([]func() int, 12)
		for i := range jobs {
			i := i
			jobs[i] = func() int {
				if i == fail {
					panic("map-boom")
				}
				return i
			}
		}
		jp = catch(func() { Map(workers, jobs) })
		if jp.Index != fail || jp.Value != "map-boom" {
			t.Errorf("Map workers=%d: got JobPanic{%d, %v}, want {%d, map-boom}", workers, jp.Index, jp.Value, fail)
		}
	}
}

// TestJobPanicNoDoubleWrap re-raises an already-wrapped panic unchanged
// through a nested pool, preserving the innermost attribution.
func TestJobPanicNoDoubleWrap(t *testing.T) {
	defer func() {
		jp, ok := recover().(JobPanic)
		if !ok || jp.Index != 2 || jp.Value != "inner" {
			t.Errorf("recovered %#v, want the inner JobPanic{2, inner}", jp)
		}
	}()
	Do(1, 1, func(int) {
		Do(4, 5, func(i int) {
			if i == 2 {
				panic("inner")
			}
		})
	})
}

// TestBackoff pins the supervisors' shared jitter-free retry schedule:
// nothing before the first failure, doubling from the base, and the cap
// reached and held however many failures follow.
func TestBackoff(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		base, cap time.Duration
		n         int
		want      time.Duration
	}{
		{10 * ms, 2 * time.Second, -1, 0},
		{10 * ms, 2 * time.Second, 0, 0},
		{10 * ms, 2 * time.Second, 1, 10 * ms},
		{10 * ms, 2 * time.Second, 2, 20 * ms},
		{10 * ms, 2 * time.Second, 3, 40 * ms},
		{10 * ms, 2 * time.Second, 4, 80 * ms},
		{10 * ms, 2 * time.Second, 60, 2 * time.Second},
		{10 * ms, 60 * ms, 1, 10 * ms},
		{10 * ms, 60 * ms, 2, 20 * ms},
		{10 * ms, 60 * ms, 3, 40 * ms},
		{10 * ms, 60 * ms, 4, 60 * ms},
		{10 * ms, 60 * ms, 5, 60 * ms},
		{10 * ms, 60 * ms, 60, 60 * ms},
		{DefaultBackoffBase, DefaultBackoffCap, 1, 10 * ms},
		{DefaultBackoffBase, DefaultBackoffCap, 60, 2 * time.Second},
	}
	for _, tc := range cases {
		if got := Backoff(tc.base, tc.cap, tc.n); got != tc.want {
			t.Errorf("Backoff(%v, %v, %d) = %v, want %v", tc.base, tc.cap, tc.n, got, tc.want)
		}
	}
}

// TestCause pins how supervisors attribute a recovered panic: a
// JobPanic yields its original value and index, anything else itself
// and -1.
func TestCause(t *testing.T) {
	if v, i := Cause(JobPanic{Index: 5, Value: "boom"}); v != "boom" || i != 5 {
		t.Errorf("Cause(JobPanic{5, boom}) = %v, %d", v, i)
	}
	if v, i := Cause("plain"); v != "plain" || i != -1 {
		t.Errorf("Cause(plain) = %v, %d", v, i)
	}
}
