package fleet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"vdom/internal/par"
)

// WorkerProc is the coordinator's handle on one spawned worker: its
// pipe ends plus force-kill and reap hooks. Tests satisfy it with
// in-memory pipes; production uses SpawnProcess (proc.go).
type WorkerProc struct {
	// In is the worker's stdin: the coordinator writes assign and
	// shutdown frames here.
	In io.WriteCloser
	// Out is the worker's stdout: hello, heartbeat, and result frames.
	Out io.Reader
	// Kill force-terminates the worker (SIGKILL for a real process).
	// It must be idempotent and safe on an already-dead worker.
	Kill func()
	// Wait reaps the worker after it exits.
	Wait func() error
}

// Spawn brings up the worker for fleet slot id.
type Spawn func(id int) (*WorkerProc, error)

// Config shapes one fleet run.
type Config struct {
	// Workers is the fleet width (number of worker subprocesses).
	Workers int
	// Spawn brings up one worker; nil forces degraded in-process mode.
	Spawn Spawn
	// Exec computes a cell in-process: the degraded path, and the
	// best-effort local fill for quarantined cells.
	Exec Exec
	// Faults configures the seeded transport-fault injector on the
	// coordinator's read side of every worker pipe.
	Faults FaultConfig
	// CellTimeout is the per-cell liveness budget, refreshed by every
	// heartbeat; a stall past it kills the worker and reassigns the
	// cell. Zero means DefaultCellTimeout.
	CellTimeout time.Duration
	// MaxAttempts bounds executions per cell before quarantine; zero
	// means DefaultMaxAttempts.
	MaxAttempts int
	// BackoffBase and BackoffCap shape the deterministic, jitter-free
	// exponential reassignment backoff (see par.Backoff). Zero means
	// par.DefaultBackoffBase/Cap.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// LocalParallel is the in-process pool width for degraded mode and
	// quarantine fill; zero means 1.
	LocalParallel int
	// KillAfter, when positive, SIGKILLs fleet slot 0 after that many
	// results have merged — the built-in chaos hook the CI smoke and
	// the byte-identity tests use to force a mid-run worker death.
	KillAfter int
	// Logf, when non-nil, receives coordinator progress lines.
	Logf func(format string, args ...any)
}

// Fleet-run defaults.
const (
	DefaultCellTimeout = 60 * time.Second
	DefaultMaxAttempts = 4
)

func (c Config) withDefaults() Config {
	if c.CellTimeout <= 0 {
		c.CellTimeout = DefaultCellTimeout
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = par.DefaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = par.DefaultBackoffCap
	}
	if c.LocalParallel <= 0 {
		c.LocalParallel = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// cellState tracks one cell through assignment, retries, and merge.
type cellState struct {
	spec       CellSpec
	attempts   int
	eligibleAt time.Time
	lastErr    string
	busy       bool
	done       bool
	result     CellResult
}

// slotState is one fleet slot: the live worker occupying it, or the
// record of its retirement.
type slotState struct {
	id       int
	proc     *WorkerProc
	fr       *faultReader
	gen      int
	alive    bool
	ready    bool
	busyCell int
	deadline time.Time
}

type eventKind int

const (
	evHello eventKind = iota
	evResult
	evBeat
	evDeath
)

type event struct {
	slot, gen int
	kind      eventKind
	result    Result
	err       error
}

type coordinator struct {
	cfg    Config
	cells  []cellState
	slots  []slotState
	rep    *Report
	events chan event
	quit   chan struct{}
	pumps  sync.WaitGroup

	doneCount int
	killFired bool
	closing   bool
}

// Run distributes specs across a fleet of cfg.Workers subprocesses and
// returns every cell's result in spec order plus the fleet report. The
// merge is byte-identical to running the same specs through cfg.Exec
// in-process: content is deterministic per cell and results merge in
// cell order, so fleet width, worker deaths, transport faults, and
// retries cannot reorder or alter a byte. Run never fails the process:
// cells that exhaust their retries are quarantined in the report (with
// a best-effort local fill), and the caller decides the exit code from
// Report.Healthy.
func Run(cfg Config, specs []CellSpec) ([]CellResult, *Report) {
	cfg = cfg.withDefaults()
	rep := &Report{
		Workers:         cfg.Workers,
		Cells:           len(specs),
		TransportErrors: map[string]uint64{},
		FaultsInjected:  map[string]uint64{},
	}
	cells := make([]cellState, len(specs))
	for i, s := range specs {
		cells[i] = cellState{spec: s}
	}
	c := &coordinator{
		cfg:    cfg,
		cells:  cells,
		rep:    rep,
		events: make(chan event, 256),
		quit:   make(chan struct{}),
	}
	if len(specs) == 0 {
		return nil, rep
	}
	if cfg.Workers <= 0 || cfg.Spawn == nil || !c.spawnFleet() {
		c.runLocal(everyIndex(len(cells)))
		rep.Degraded = true
		return c.results(), rep
	}
	c.loop()
	c.shutdown()
	for i := range c.slots {
		if c.slots[i].fr != nil {
			for k, v := range c.slots[i].fr.counts() {
				rep.FaultsInjected[k] += v
			}
		}
	}
	if len(rep.FaultsInjected) == 0 {
		rep.FaultsInjected = nil
	}
	if len(rep.TransportErrors) == 0 {
		rep.TransportErrors = nil
	}
	return c.results(), rep
}

func everyIndex(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (c *coordinator) results() []CellResult {
	out := make([]CellResult, len(c.cells))
	for i := range c.cells {
		out[i] = c.cells[i].result
	}
	return out
}

// spawnFleet brings up the initial fleet; false means not a single
// worker could start (the graceful-degradation trigger).
func (c *coordinator) spawnFleet() bool {
	c.slots = make([]slotState, c.cfg.Workers)
	alive := 0
	for i := range c.slots {
		c.slots[i] = slotState{id: i, busyCell: -1}
		if c.startWorker(i) {
			alive++
		}
	}
	return alive > 0
}

// startWorker spawns a worker into slot i and starts its pump.
func (c *coordinator) startWorker(i int) bool {
	proc, err := c.cfg.Spawn(i)
	if err != nil {
		c.cfg.Logf("fleet: spawn worker %d: %v", i, err)
		c.slots[i].alive = false
		c.slots[i].proc = nil
		return false
	}
	s := &c.slots[i]
	s.proc = proc
	s.gen++
	s.alive = true
	s.ready = false
	s.busyCell = -1
	s.fr = newFaultReader(proc.Out, faultSeedFor(c.cfg.Faults, i, s.gen))
	c.pumps.Add(1)
	go c.pump(i, s.gen, s.fr)
	return true
}

// faultSeedFor derives a per-pipe fault schedule so every worker pipe
// (and every respawn generation) sees its own deterministic stream.
func faultSeedFor(cfg FaultConfig, slot, gen int) FaultConfig {
	if cfg.enabled() {
		cfg.Seed = cfg.Seed*1000003 + uint64(slot)*31 + uint64(gen)
	}
	return cfg
}

// pump reads one worker pipe and forwards decoded frames as events;
// any read or decode failure becomes a single death event.
func (c *coordinator) pump(slot, gen int, r io.Reader) {
	defer c.pumps.Done()
	br := bufio.NewReader(r)
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				err = errors.New("fleet: worker pipe closed")
			}
			c.post(event{slot: slot, gen: gen, kind: evDeath, err: err})
			return
		}
		switch t {
		case FrameHello:
			if _, err := DecodeHello(payload); err != nil {
				c.post(event{slot: slot, gen: gen, kind: evDeath, err: err})
				return
			}
			c.post(event{slot: slot, gen: gen, kind: evHello})
		case FrameResult:
			res, err := DecodeResult(payload)
			if err != nil {
				c.post(event{slot: slot, gen: gen, kind: evDeath, err: err})
				return
			}
			c.post(event{slot: slot, gen: gen, kind: evResult, result: res})
		case FrameHeartbeat:
			if _, err := DecodeHeartbeat(payload); err != nil {
				c.post(event{slot: slot, gen: gen, kind: evDeath, err: err})
				return
			}
			c.post(event{slot: slot, gen: gen, kind: evBeat})
		default:
			c.post(event{slot: slot, gen: gen, kind: evDeath,
				err: fmt.Errorf("%w: unexpected frame type %d from worker", ErrBadRecord, t)})
			return
		}
	}
}

func (c *coordinator) post(ev event) {
	select {
	case c.events <- ev:
	case <-c.quit:
	}
}

// loop is the scheduler: assign eligible cells to ready workers, merge
// results, and run the recovery ladder on deaths, stalls, and torn
// transports, until every cell is done or no worker remains.
func (c *coordinator) loop() {
	scanEvery := c.cfg.BackoffBase
	if scanEvery > 10*time.Millisecond {
		scanEvery = 10 * time.Millisecond
	}
	if min := c.cfg.CellTimeout / 8; scanEvery > min && min > 0 {
		scanEvery = min
	}
	if scanEvery <= 0 {
		scanEvery = time.Millisecond
	}
	scan := time.NewTicker(scanEvery)
	defer scan.Stop()
	for c.doneCount < len(c.cells) {
		if c.aliveCount() == 0 {
			// Every slot retired: finish the remainder in-process.
			c.cfg.Logf("fleet: no live workers remain; finishing %d cells in-process", len(c.cells)-c.doneCount)
			c.rep.Degraded = true
			c.runLocal(c.notDone())
			return
		}
		c.tryAssign()
		select {
		case ev := <-c.events:
			c.handle(ev)
		case <-scan.C:
			c.checkTimeouts()
		}
	}
}

func (c *coordinator) aliveCount() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].alive {
			n++
		}
	}
	return n
}

// notDone returns the indices of unfinished, unassigned cells.
func (c *coordinator) notDone() []int {
	var out []int
	for i := range c.cells {
		if !c.cells[i].done {
			out = append(out, i)
		}
	}
	return out
}

// tryAssign pairs every ready idle worker with the lowest-index
// eligible cell.
func (c *coordinator) tryAssign() {
	now := time.Now()
	for si := range c.slots {
		s := &c.slots[si]
		if !s.alive || !s.ready || s.busyCell >= 0 {
			continue
		}
		ci := c.nextEligible(now)
		if ci < 0 {
			return
		}
		c.assign(si, ci, now)
	}
}

// nextEligible picks the lowest-index pending cell whose backoff has
// elapsed; -1 when none is ready.
func (c *coordinator) nextEligible(now time.Time) int {
	for i := range c.cells {
		cell := &c.cells[i]
		if cell.done || cell.busy {
			continue
		}
		if cell.eligibleAt.After(now) {
			continue
		}
		return i
	}
	return -1
}

func (c *coordinator) assign(si, ci int, now time.Time) {
	s := &c.slots[si]
	cell := &c.cells[ci]
	cell.attempts++
	cell.busy = true
	s.busyCell = ci
	s.deadline = now.Add(c.cfg.CellTimeout)
	frame := EncodeAssign(Assign{ID: uint64(ci), Spec: cell.spec})
	if err := WriteFrame(s.proc.In, FrameAssign, frame); err != nil {
		c.cfg.Logf("fleet: assign cell %d to worker %d: %v", ci, s.id, err)
		c.die(si, fmt.Errorf("fleet: assign write: %w", err))
	}
}

func (c *coordinator) handle(ev event) {
	if ev.slot < 0 || ev.slot >= len(c.slots) {
		return
	}
	s := &c.slots[ev.slot]
	if !s.alive || ev.gen != s.gen {
		return // stale event from a killed generation
	}
	switch ev.kind {
	case evHello:
		s.ready = true
	case evBeat:
		if s.busyCell >= 0 {
			s.deadline = time.Now().Add(c.cfg.CellTimeout)
		}
	case evResult:
		c.handleResult(ev.slot, ev.result)
	case evDeath:
		c.rep.TransportErrors[classify(ev.err)]++
		c.die(ev.slot, ev.err)
	}
}

func (c *coordinator) handleResult(si int, res Result) {
	s := &c.slots[si]
	ci := int(res.ID)
	if ci < 0 || ci >= len(c.cells) {
		c.die(si, fmt.Errorf("%w: result for unknown cell %d", ErrBadRecord, res.ID))
		return
	}
	if s.busyCell == ci {
		s.busyCell = -1
	}
	cell := &c.cells[ci]
	if cell.done {
		return // duplicate or late delivery; first valid result won
	}
	cell.busy = false
	if res.Cell.Err != "" {
		// The cell failed inside a healthy worker; the worker stays,
		// the cell retries.
		c.fail(ci, res.Cell.Err)
		return
	}
	c.complete(ci, res.Cell)
	if c.cfg.KillAfter > 0 && !c.killFired && c.doneCount >= c.cfg.KillAfter {
		// Chaos hook: SIGKILL a worker that is mid-cell (preferring
		// slot 0), so the death provably forces a reassignment. If all
		// workers happen to be idle at this instant, re-arm on the
		// next merged result.
		target := -1
		for si := range c.slots {
			if c.slots[si].alive && c.slots[si].proc != nil && c.slots[si].busyCell >= 0 {
				target = si
				if si == 0 {
					break
				}
			}
		}
		if target >= 0 {
			c.killFired = true
			c.cfg.Logf("fleet: chaos hook: killing worker %d mid-cell after %d results", c.slots[target].id, c.doneCount)
			c.slots[target].proc.Kill()
		}
	}
}

func (c *coordinator) complete(ci int, res CellResult) {
	cell := &c.cells[ci]
	cell.result = res
	cell.done = true
	cell.busy = false
	c.doneCount++
	if cell.attempts > 1 {
		c.rep.Recoveries++
	}
}

// fail runs the retry ladder for one failed execution: requeue with
// deterministic backoff, or quarantine once attempts are exhausted.
func (c *coordinator) fail(ci int, cause string) {
	cell := &c.cells[ci]
	cell.busy = false
	cell.lastErr = cause
	if cell.attempts >= c.cfg.MaxAttempts {
		c.quarantine(ci)
		return
	}
	cell.eligibleAt = time.Now().Add(par.Backoff(c.cfg.BackoffBase, c.cfg.BackoffCap, cell.attempts))
}

// quarantine retires a cell from the fleet and fills its slot with a
// best-effort in-process execution so the merged output stays complete;
// the quarantine record (and the run's failing exit) remains either way.
func (c *coordinator) quarantine(ci int) {
	cell := &c.cells[ci]
	c.cfg.Logf("fleet: quarantining cell %s[%d] after %d attempts: %s",
		cell.spec.Grid, cell.spec.Index, cell.attempts, cell.lastErr)
	c.rep.Quarantined = append(c.rep.Quarantined, QuarantinedCell{
		Grid:      cell.spec.Grid,
		Index:     cell.spec.Index,
		Attempts:  cell.attempts,
		LastError: cell.lastErr,
	})
	res := runGuarded(c.cfg.Exec, cell.spec)
	c.complete(ci, res)
}

// die retires slot si's current worker, requeues its in-flight cell,
// and attempts a respawn; a failed respawn retires the slot for good.
func (c *coordinator) die(si int, cause error) {
	s := &c.slots[si]
	if !s.alive {
		return
	}
	c.rep.WorkerDeaths++
	c.cfg.Logf("fleet: worker %d died: %v", s.id, cause)
	s.alive = false
	s.ready = false
	if s.fr != nil {
		for k, v := range s.fr.counts() {
			c.rep.FaultsInjected[k] += v
		}
		s.fr = nil
	}
	if s.proc != nil {
		s.proc.In.Close()
		s.proc.Kill()
		if w := s.proc.Wait; w != nil {
			go w()
		}
		s.proc = nil
	}
	if ci := s.busyCell; ci >= 0 {
		s.busyCell = -1
		c.fail(ci, cause.Error())
	}
	if !c.closing {
		if c.startWorker(si) {
			c.rep.Respawns++
		} else {
			c.cfg.Logf("fleet: slot %d retired (respawn failed)", si)
		}
	}
}

// checkTimeouts kills workers whose in-flight cell's heartbeat stalled
// past the per-cell budget; die requeues the cell.
func (c *coordinator) checkTimeouts() {
	now := time.Now()
	for si := range c.slots {
		s := &c.slots[si]
		if s.alive && s.busyCell >= 0 && now.After(s.deadline) {
			c.rep.Timeouts++
			c.die(si, fmt.Errorf("fleet: worker %d heartbeat stalled past %v on cell %d", s.id, c.cfg.CellTimeout, s.busyCell))
		}
	}
}

// runLocal executes the given cell indices with the in-process pool
// (the degraded path); cells that fail locally are quarantined.
func (c *coordinator) runLocal(indices []int) {
	if len(indices) == 0 {
		return
	}
	results := make([]CellResult, len(indices))
	jobs := make([]func(), len(indices))
	for k, ci := range indices {
		k, ci := k, ci
		jobs[k] = func() { results[k] = runGuarded(c.cfg.Exec, c.cells[ci].spec) }
	}
	par.Do(c.cfg.LocalParallel, len(jobs), func(i int) { jobs[i]() })
	for k, ci := range indices {
		cell := &c.cells[ci]
		cell.attempts++
		if results[k].Err != "" {
			cell.lastErr = results[k].Err
			c.rep.Quarantined = append(c.rep.Quarantined, QuarantinedCell{
				Grid:      cell.spec.Grid,
				Index:     cell.spec.Index,
				Attempts:  cell.attempts,
				LastError: cell.lastErr,
			})
		}
		c.complete(ci, results[k])
	}
}

// shutdown drains the fleet: shutdown frames, pipe closes, a hard kill
// backstop, and a join on every pump.
func (c *coordinator) shutdown() {
	c.closing = true
	close(c.quit)
	for si := range c.slots {
		s := &c.slots[si]
		if !s.alive || s.proc == nil {
			continue
		}
		_ = WriteFrame(s.proc.In, FrameShutdown, nil)
		s.proc.In.Close()
	}
	var reap sync.WaitGroup
	for si := range c.slots {
		s := &c.slots[si]
		if !s.alive || s.proc == nil {
			continue
		}
		proc := s.proc
		s.alive = false
		s.proc = nil
		reap.Add(1)
		go func() {
			defer reap.Done()
			done := make(chan struct{})
			go func() {
				if proc.Wait != nil {
					proc.Wait()
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				proc.Kill()
				<-done
			}
		}()
	}
	reap.Wait()
	c.pumps.Wait()
}

// classify maps a pump failure to its transport-error class for the
// fleet report.
func classify(err error) string {
	switch {
	case errors.Is(err, ErrBadMagic):
		return "badMagic"
	case errors.Is(err, ErrBadVersion):
		return "badVersion"
	case errors.Is(err, ErrBadDigest):
		return "badDigest"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrBadRecord):
		return "malformed"
	default:
		return "pipe"
	}
}
