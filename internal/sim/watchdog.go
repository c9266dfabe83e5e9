package sim

// Watchdog detects stalled progress in the simulated system. A harness
// feeds it periodic clock observations; when the clock fails to advance
// for `threshold` consecutive observations the watchdog declares a stall:
// that Observe returns true, and Fired stays true until Reset.
//
// The watchdog is the recovery trigger of the crash-tolerance subsystem
// (see RECOVERY.md): a wedged core or a kernel panic stops the virtual
// clock, the watchdog fires, and the harness polling it restores the
// latest checkpoint and replays the trace tail.
type Watchdog struct {
	threshold int
	last      uint64
	seen      bool
	stuck     int
	fired     bool
}

// NewWatchdog returns a watchdog that fires after `threshold` consecutive
// observations without clock progress. threshold must be positive.
func NewWatchdog(threshold int) *Watchdog {
	if threshold <= 0 {
		panic("sim: watchdog threshold must be positive")
	}
	return &Watchdog{threshold: threshold}
}

// Observe feeds the watchdog one clock sample. It returns true when this
// observation pushes the consecutive no-progress count to the threshold.
// Once fired, further observations are no-ops until Reset.
func (w *Watchdog) Observe(clock uint64) bool {
	if w.fired {
		return false
	}
	if !w.seen || clock > w.last {
		w.seen = true
		w.last = clock
		w.stuck = 0
		return false
	}
	w.stuck++
	if w.stuck < w.threshold {
		return false
	}
	w.fired = true
	return true
}

// Fired reports whether the watchdog has declared a stall since the last
// Reset.
func (w *Watchdog) Fired() bool { return w.fired }

// Reset re-arms the watchdog after a recovery, clearing the fired state
// and the progress history.
func (w *Watchdog) Reset() {
	w.seen = false
	w.stuck = 0
	w.fired = false
}
