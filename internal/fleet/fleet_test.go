package fleet

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vdom/internal/par"
)

// testExec is the deterministic cell computation the harness tests
// distribute: pure function of the spec, with optional per-cell delay
// and scripted misbehavior.
type testHarness struct {
	// delay stretches every cell so chaos hooks reliably land mid-cell.
	delay time.Duration
	// pad appends filler to every cell's Text so result frames span
	// enough transport bytes to draw the per-window fault injector.
	pad int
	// panicCells always panic; failOnce cells fail on first execution
	// only; wedgeOnce cells block (without completing) on first
	// execution only.
	panicCells map[int]bool
	mu         sync.Mutex
	failed     map[int]bool
	wedged     map[int]bool
	failOnce   map[int]bool
	wedgeOnce  map[int]bool
	release    chan struct{}
}

func newHarness() *testHarness {
	return &testHarness{
		panicCells: map[int]bool{},
		failOnce:   map[int]bool{},
		wedgeOnce:  map[int]bool{},
		failed:     map[int]bool{},
		wedged:     map[int]bool{},
		release:    make(chan struct{}),
	}
}

func (h *testHarness) exec(spec CellSpec) (CellResult, error) {
	if h.panicCells[spec.Index] {
		panic(fmt.Sprintf("scripted panic in cell %d", spec.Index))
	}
	h.mu.Lock()
	if h.failOnce[spec.Index] && !h.failed[spec.Index] {
		h.failed[spec.Index] = true
		h.mu.Unlock()
		return CellResult{}, fmt.Errorf("scripted transient failure in cell %d", spec.Index)
	}
	wedge := h.wedgeOnce[spec.Index] && !h.wedged[spec.Index]
	if wedge {
		h.wedged[spec.Index] = true
	}
	h.mu.Unlock()
	if wedge {
		<-h.release
		return CellResult{}, errors.New("wedge released")
	}
	if h.delay > 0 {
		time.Sleep(h.delay)
	}
	return CellResult{
		Text:    fmt.Sprintf("%s[%d] seed=%d kernel=%s\n", spec.Grid, spec.Index, spec.Seed, spec.Kernel) + strings.Repeat("x", h.pad),
		Total:   spec.Seed + uint64(spec.Index)*17,
		Metrics: []byte(fmt.Sprintf(`{"cell":%d,"quick":%v}`, spec.Index, spec.Quick())),
		Trace:   []byte(fmt.Sprintf(`{"traceEvents":[{"cell":%d}]}`, spec.Index)),
		Aux:     []byte{byte(spec.Index), byte(spec.Index >> 8)},
	}, nil
}

// spawn builds in-memory pipe workers running the real Worker loop, so
// every test exercises the genuine protocol — framing, heartbeats,
// hello, shutdown — without subprocesses. Kill severs both pipes
// abruptly, the in-memory analogue of SIGKILL.
func (h *testHarness) spawn(heartbeat time.Duration) Spawn {
	return func(id int) (*WorkerProc, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			Worker(inR, outW, WorkerConfig{ID: id, HeartbeatEvery: heartbeat}, h.exec)
			outW.Close()
		}()
		var once sync.Once
		kill := func() {
			once.Do(func() {
				outR.CloseWithError(errors.New("killed"))
				inR.CloseWithError(errors.New("killed"))
			})
		}
		return &WorkerProc{
			In:   inW,
			Out:  outR,
			Kill: kill,
			Wait: func() error { <-done; return nil },
		}, nil
	}
}

func testSpecs(n int) []CellSpec {
	specs := make([]CellSpec, n)
	for i := range specs {
		specs[i] = CellSpec{Grid: "testgrid", Index: i, Seed: 0xabc, Kernel: "dpti", Flags: FlagQuick}
	}
	return specs
}

// wantResults computes the reference results the fleet must reproduce
// byte-for-byte, whatever the width or fault schedule.
func wantResults(h *testHarness, specs []CellSpec) []CellResult {
	out := make([]CellResult, len(specs))
	for i, s := range specs {
		r, _ := h.exec(s)
		out[i] = r
	}
	return out
}

func requireIdentical(t *testing.T, got, want []CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("cell %d differs:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

func TestFleetBasic(t *testing.T) {
	h := newHarness()
	specs := testSpecs(12)
	want := wantResults(newHarness(), specs)
	got, rep := Run(Config{
		Workers: 3,
		Spawn:   h.spawn(5 * time.Millisecond),
		Exec:    h.exec,
	}, specs)
	requireIdentical(t, got, want)
	if !rep.Healthy() || rep.Degraded {
		t.Fatalf("report unhealthy or degraded: %+v", rep)
	}
	if rep.Cells != 12 || rep.Workers != 3 {
		t.Fatalf("report shape wrong: %+v", rep)
	}
}

func TestFleetByteIdenticalAcrossWidths(t *testing.T) {
	specs := testSpecs(10)
	want := wantResults(newHarness(), specs)
	for _, workers := range []int{1, 2, 4} {
		h := newHarness()
		got, rep := Run(Config{Workers: workers, Spawn: h.spawn(5 * time.Millisecond), Exec: h.exec}, specs)
		requireIdentical(t, got, want)
		if !rep.Healthy() {
			t.Fatalf("width %d unhealthy: %+v", workers, rep)
		}
	}
	// Degraded in-process mode produces the same bytes too.
	h := newHarness()
	got, rep := Run(Config{Workers: 2, Spawn: nil, Exec: h.exec, LocalParallel: 2}, specs)
	requireIdentical(t, got, want)
	if !rep.Degraded {
		t.Fatal("nil Spawn did not degrade")
	}
}

func TestFleetKillMidCellRecovers(t *testing.T) {
	h := newHarness()
	h.delay = 20 * time.Millisecond
	specs := testSpecs(10)
	want := wantResults(func() *testHarness { h2 := newHarness(); h2.delay = 0; return h2 }(), specs)
	got, rep := Run(Config{
		Workers:     3,
		Spawn:       h.spawn(5 * time.Millisecond),
		Exec:        h.exec,
		KillAfter:   2,
		CellTimeout: 5 * time.Second,
		BackoffBase: time.Millisecond,
	}, specs)
	requireIdentical(t, got, want)
	if rep.WorkerDeaths < 1 {
		t.Fatalf("no worker death recorded: %+v", rep)
	}
	if rep.Respawns < 1 {
		t.Fatalf("no respawn recorded: %+v", rep)
	}
	if rep.Recoveries < 1 {
		t.Fatalf("kill mid-cell produced no recovery: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("unhealthy after recovery: %+v", rep)
	}
}

func TestFleetTransportFaultsStayByteIdentical(t *testing.T) {
	h := newHarness()
	h.delay = 2 * time.Millisecond
	h.pad = 8 << 10 // ~2 fault windows per result frame
	specs := testSpecs(24)
	ref := newHarness()
	ref.pad = h.pad
	want := wantResults(ref, specs)
	got, rep := Run(Config{
		Workers: 3,
		Spawn:   h.spawn(time.Millisecond),
		Exec:    h.exec,
		Faults: FaultConfig{
			Seed:      42,
			Corrupt:   0.08,
			Truncate:  0.02,
			Duplicate: 0.05,
			Delay:     0.1,
		},
		MaxAttempts: 10,
		CellTimeout: 5 * time.Second,
		BackoffBase: time.Millisecond,
	}, specs)
	requireIdentical(t, got, want)
	if !rep.Healthy() {
		t.Fatalf("faulted run unhealthy: %+v", rep)
	}
	// The seeded schedule is dense enough that some fault must fire.
	total := uint64(0)
	for _, v := range rep.FaultsInjected {
		total += v
	}
	if total == 0 {
		t.Fatalf("fault injector never fired: %+v", rep)
	}
}

func TestFleetTransientWorkerFailureRecovers(t *testing.T) {
	h := newHarness()
	h.failOnce[4] = true
	specs := testSpecs(8)
	want := wantResults(newHarness(), specs)
	got, rep := Run(Config{
		Workers:     2,
		Spawn:       h.spawn(5 * time.Millisecond),
		Exec:        h.exec,
		BackoffBase: time.Millisecond,
	}, specs)
	requireIdentical(t, got, want)
	if rep.Recoveries < 1 {
		t.Fatalf("transient failure produced no recovery: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("unhealthy: %+v", rep)
	}
}

func TestFleetQuarantinesPersistentFailure(t *testing.T) {
	h := newHarness()
	h.panicCells[3] = true
	specs := testSpecs(6)
	got, rep := Run(Config{
		Workers:     2,
		Spawn:       h.spawn(5 * time.Millisecond),
		Exec:        h.exec,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
	}, specs)
	if rep.Healthy() {
		t.Fatalf("persistent panic not quarantined: %+v", rep)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want exactly cell 3", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Grid != "testgrid" || q.Index != 3 || q.Attempts != 3 {
		t.Fatalf("quarantine record wrong: %+v", q)
	}
	if !strings.Contains(q.LastError, "panic") {
		t.Fatalf("quarantine cause lost the panic: %q", q.LastError)
	}
	// The panicking cell still carries a failed result (local fill also
	// panics, caught by runGuarded); healthy cells are intact.
	if got[3].Err == "" {
		t.Fatalf("quarantined cell result lost its error: %+v", got[3])
	}
	wantH := newHarness()
	for i, s := range specs {
		if i == 3 {
			continue
		}
		w, _ := wantH.exec(s)
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("healthy cell %d disturbed by quarantine: %+v", i, got[i])
		}
	}
}

func TestFleetHeartbeatStallTimesOut(t *testing.T) {
	h := newHarness()
	h.wedgeOnce[2] = true
	defer close(h.release)
	specs := testSpecs(6)
	want := wantResults(newHarness(), specs)
	// Heartbeats are far apart, so the wedged cell's silence trips the
	// per-cell timeout; healthy cells complete well inside it.
	got, rep := Run(Config{
		Workers:     2,
		Spawn:       h.spawn(time.Hour),
		Exec:        h.exec,
		CellTimeout: 150 * time.Millisecond,
		BackoffBase: time.Millisecond,
	}, specs)
	requireIdentical(t, got, want)
	if rep.Timeouts < 1 {
		t.Fatalf("stall not detected as timeout: %+v", rep)
	}
	if rep.Recoveries < 1 {
		t.Fatalf("timed-out cell not recovered: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("unhealthy: %+v", rep)
	}
}

func TestFleetDegradesWhenSpawnFails(t *testing.T) {
	h := newHarness()
	specs := testSpecs(5)
	want := wantResults(newHarness(), specs)
	got, rep := Run(Config{
		Workers:       3,
		Spawn:         func(int) (*WorkerProc, error) { return nil, errors.New("no such binary") },
		Exec:          h.exec,
		LocalParallel: 2,
	}, specs)
	requireIdentical(t, got, want)
	if !rep.Degraded {
		t.Fatalf("all-spawns-failed did not degrade: %+v", rep)
	}
	if !rep.Healthy() {
		t.Fatalf("degraded run unhealthy: %+v", rep)
	}
}

func TestFleetEmptySpecs(t *testing.T) {
	h := newHarness()
	got, rep := Run(Config{Workers: 2, Spawn: h.spawn(time.Millisecond), Exec: h.exec}, nil)
	if len(got) != 0 || !rep.Healthy() {
		t.Fatalf("empty run = %v, %+v", got, rep)
	}
}

func TestWorkerRejectsGarbage(t *testing.T) {
	// A worker fed garbage must return a typed error, not wedge or
	// panic.
	in := strings.NewReader("not a frame at all")
	err := Worker(in, io.Discard, WorkerConfig{ID: 0}, newHarness().exec)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("garbage input = %v, want ErrBadMagic", err)
	}
}

// TestBackoffDeterministic pins the coordinator's reassignment delay
// under the default Config: nothing before the first failure, doubling
// from 10ms, the 2s cap reached and held, and no jitter.
func TestBackoffDeterministic(t *testing.T) {
	cfg := Config{}.withDefaults()
	want := []time.Duration{
		0,
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
	}
	for failures, w := range want {
		if got := par.Backoff(cfg.BackoffBase, cfg.BackoffCap, failures); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", failures, got, w)
		}
	}
	if got := par.Backoff(cfg.BackoffBase, cfg.BackoffCap, 60); got != 2*time.Second {
		t.Fatalf("Backoff(60) = %v, want cap 2s", got)
	}
	// Jitter-free: the schedule is a pure function of the attempt.
	for i := 0; i < 3; i++ {
		if par.Backoff(cfg.BackoffBase, cfg.BackoffCap, 3) != 40*time.Millisecond {
			t.Fatal("Backoff is not deterministic")
		}
	}
}
