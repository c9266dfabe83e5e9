package sim

import (
	"errors"
	"testing"
)

func TestWatchdogFiresAfterThreshold(t *testing.T) {
	w := NewWatchdog(3)

	// Progress keeps it quiet.
	for c := uint64(10); c <= 30; c += 10 {
		if w.Observe(c) {
			t.Fatalf("watchdog fired during progress at clock %d", c)
		}
	}
	// Two stuck observations: still below the threshold of 3.
	if w.Observe(30) || w.Observe(30) {
		t.Fatal("watchdog fired below threshold")
	}
	if w.Fired() {
		t.Fatal("Fired() true below threshold")
	}
	if !w.Observe(30) {
		t.Fatal("watchdog did not fire at the threshold")
	}
	if !w.Fired() {
		t.Fatal("Fired() false after firing")
	}
	// Latched: further observations are no-ops, and Fired stays set.
	if w.Observe(30) || w.Observe(40) {
		t.Fatal("watchdog fired twice without Reset")
	}
	if !w.Fired() {
		t.Fatal("Fired() cleared without Reset")
	}

	w.Reset()
	if w.Fired() {
		t.Fatal("Fired() true after Reset")
	}
	// Progress resets the stuck count after re-arming too.
	if w.Observe(40) || w.Observe(40) || w.Observe(50) {
		t.Fatal("watchdog fired after mixed progress post-Reset")
	}
}

func TestWatchdogProgressResetsCount(t *testing.T) {
	w := NewWatchdog(2)
	if w.Observe(5) {
		t.Fatal("fired on first observation")
	}
	if w.Observe(5) {
		t.Fatal("fired at stuck=1 with threshold 2")
	}
	if w.Observe(6) {
		t.Fatal("fired on progress")
	}
	if w.Observe(6) {
		t.Fatal("fired at stuck=1 after progress")
	}
	if !w.Observe(6) {
		t.Fatal("did not fire at stuck=2")
	}
}

// TestRunDeadlockWithoutWatchdog pins that a deadlock always panics with
// ErrDeadlock: the environment never drives a watchdog itself.
func TestRunDeadlockWithoutWatchdog(t *testing.T) {
	e := NewEnv()
	r := e.NewResource(1)
	e.Go("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Delay(3)
	})
	e.Go("waiter", func(p *Proc) {
		p.Delay(1)
		r.Acquire(p, 1)
	})
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a deadlock panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrDeadlock) {
			t.Fatalf("panic value %v is not ErrDeadlock", v)
		}
	}()
	e.Run()
}

func TestRandStateRoundTrip(t *testing.T) {
	r := NewRand(99)
	r.Uint64()
	r.Uint64()
	st := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}

	r2 := NewRand(0)
	r2.SetState(st)
	for i, w := range want {
		if got := r2.Uint64(); got != w {
			t.Fatalf("draw %d after SetState = %d, want %d", i, got, w)
		}
	}
}

// TestWatchdogRejectsNonPositiveThreshold pins the constructor contract:
// a zero or negative threshold is a programming error, not a no-op dog.
func TestWatchdogRejectsNonPositiveThreshold(t *testing.T) {
	for _, th := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWatchdog(%d) did not panic", th)
				}
			}()
			NewWatchdog(th)
		}()
	}
}

// TestWatchdogReArmAfterFire checks the full fire → Reset → fire cycle:
// Observe reports true once per armed period, and a re-armed dog needs a
// full fresh streak of stuck observations to fire again.
func TestWatchdogReArmAfterFire(t *testing.T) {
	w := NewWatchdog(2)
	w.Observe(10)
	w.Observe(10)
	if !w.Observe(10) || !w.Fired() {
		t.Fatalf("first firing: fired=%v", w.Fired())
	}
	w.Reset()
	// The pre-fire history is gone: the first post-Reset observation
	// seeds the baseline even at the same stuck clock.
	if w.Observe(10) || w.Observe(10) || w.Fired() {
		t.Fatal("re-armed watchdog fired before a full fresh streak")
	}
	if !w.Observe(10) || !w.Fired() {
		t.Fatal("re-armed watchdog did not fire after a full streak")
	}
}

// TestWatchdogExactFireAtCheckpointBoundary drives the supervisor's
// observation pattern: steady progress up to a checkpoint boundary,
// then a wedge frozen at the boundary clock. The dog must stay quiet
// through threshold-1 stuck observations and fire on exactly the
// threshold-th — no earlier (checkpoint pauses don't advance the
// simulated clock either) and no later.
func TestWatchdogExactFireAtCheckpointBoundary(t *testing.T) {
	const threshold = 8
	w := NewWatchdog(threshold)
	clock := uint64(0)
	for op := 1; op <= 100; op++ {
		clock += 7
		if w.Observe(clock) {
			t.Fatalf("fired during progress at op %d", op)
		}
	}
	for i := 1; i < threshold; i++ {
		if w.Observe(clock) {
			t.Fatalf("fired at stuck=%d, below threshold %d", i, threshold)
		}
	}
	if !w.Observe(clock) {
		t.Fatal("did not fire exactly at the threshold observation")
	}
	if w.Observe(clock) {
		t.Fatal("fired again while latched")
	}
}
