package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"vdom/internal/metrics"
)

// obs is what a unit reports into while it runs. The zero value is the
// untraced configuration: calls run bare and nothing is recorded.
type obs struct {
	// tr records host-time spans around layer calls (nil: untraced).
	tr *tracer
	// reg is attached to the simulator through its public Metrics
	// fields (nil: untraced).
	reg *metrics.Registry
}

// call runs one call into a simulator layer as a span named after it.
func call[T any](o *obs, name string, f func() (T, error)) (T, error) {
	if o.tr == nil {
		return f()
	}
	var v T
	err := o.tr.span(name, func() error {
		var err error
		v, err = f()
		return err
	})
	return v, err
}

// count adds n to a runner-side counter (traced runs only).
func (o *obs) count(name string, n uint64) {
	if o.tr != nil {
		o.tr.counters[name] += n
	}
}

// spanStat aggregates every span of one name.
type spanStat struct {
	count    int
	busy     time.Duration
	failures int
}

// spanRec is one finished span kept for the Chrome trace.
type spanRec struct {
	name       string
	track      int
	start, dur time.Duration
	id, parent int32
	failed     bool
}

// openSpan is a span still running.
type openSpan struct {
	id   int32
	unit bool
}

// maxKeptSpans caps the spans kept in memory for the Chrome trace; the
// aggregates in stats always cover every span.
const maxKeptSpans = 200_000

// tracer records host-time spans in memory and writes them at exit.
type tracer struct {
	epoch    time.Time
	track    int
	tracks   []string
	open     []openSpan
	nextID   int32
	kept     []spanRec
	dropped  int
	stats    map[string]*spanStat
	counters map[string]uint64
	// layerBusy sums, per track, the spans that are direct children of
	// a unit (or top-level outside units): layer calls that never
	// overlap, so their sum is bounded by the track's wall time.
	layerBusy map[int]time.Duration
	trackWall map[int]time.Duration
	// slow adds a known host delay inside the named spans. The observer
	// validation test uses it to plant a regression in one layer.
	slow map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		stats:     map[string]*spanStat{},
		counters:  map[string]uint64{},
		layerBusy: map[int]time.Duration{},
		trackWall: map[int]time.Duration{},
	}
}

// stage switches to the track of one (workload, stage) pair and runs f
// on it, adding its wall time to the track.
func (t *tracer) stage(name string, f func()) {
	id := -1
	for i, n := range t.tracks {
		if n == name {
			id = i
		}
	}
	if id < 0 {
		id = len(t.tracks)
		t.tracks = append(t.tracks, name)
	}
	prev := t.track
	t.track = id
	start := time.Now()
	f()
	t.trackWall[id] += time.Since(start)
	t.track = prev
}

// unitSpan is the name of the span around one whole unit; its children
// are the unit's layer calls.
const unitSpan = "unit"

// span times f as a child of the innermost open span.
func (t *tracer) span(name string, f func() error) error {
	t.nextID++
	id := t.nextID
	parent := int32(0)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1].id
	}
	// A layer call is a top-level span or a direct child of a unit.
	layer := name != unitSpan && (len(t.open) == 0 || (len(t.open) == 1 && t.open[0].unit))
	t.open = append(t.open, openSpan{id: id, unit: name == unitSpan})
	start := time.Now()
	err := f()
	if d := t.slow[name]; d > 0 {
		spin(d)
	}
	dur := time.Since(start)
	t.open = t.open[:len(t.open)-1]

	st := t.stats[name]
	if st == nil {
		st = &spanStat{}
		t.stats[name] = st
	}
	st.count++
	st.busy += dur
	if err != nil {
		st.failures++
	}
	if layer {
		t.layerBusy[t.track] += dur
	}
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, spanRec{name: name, track: t.track, start: start.Sub(t.epoch), dur: dur, id: id, parent: parent, failed: err != nil})
	} else {
		t.dropped++
	}
	return err
}

// spin busy-waits for d, so an injected delay costs CPU the way a slow
// codec would.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// chromeEvent is one Chrome trace-event record.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as a Chrome trace-event JSON file,
// loadable in Perfetto: one thread track per (workload, stage), units as
// parent slices with their layer calls nested inside them.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	emit := func(e chromeEvent) error {
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		return enc.Encode(e)
	}
	if err := emit(chromeEvent{Name: "process_name", Ph: "M", PID: 1, Args: map[string]any{"name": "hostbench"}}); err != nil {
		f.Close()
		return err
	}
	for i, name := range t.tracks {
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: i + 1, Args: map[string]any{"name": name}}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range t.kept {
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.failed {
			args["failed"] = true
		}
		e := chromeEvent{
			Name: s.name, Cat: "host", Ph: "X", PID: 1, TID: s.track + 1,
			TS: float64(s.start.Nanoseconds()) / 1e3, Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: args,
		}
		if err := emit(e); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprintf(w, `],"otherData":{"dropped_spans":%d}}`, t.dropped)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
