package chaos

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// SoakConfig parameterizes a chaos soak run. Zero fields take defaults.
type SoakConfig struct {
	// Chaos selects the fault mix and the seed.
	Chaos Config
	// Ops is the number of API/access operations to drive (default 5000).
	Ops int
	// Cores is the machine size (default 4).
	Cores int
	// Threads is the thread count, round-robin pinned (default 4).
	Threads int
	// Vdoms is the number of protected regions cycling through the
	// working set (default 24).
	Vdoms int
	// AuditEvery runs the cross-layer auditor every N ops (default 64;
	// a final audit always runs).
	AuditEvery int
	// Arch selects the cost table (default X86).
	Arch cycles.Arch
	// Kernel selects the soaked kernel and its op mix: "" or "vdom"
	// (the VDom core) or "dpti" (the per-domain-page-table baseline).
	Kernel string `json:",omitempty"`

	// Metrics, when non-nil, is attached to the kernel and the domain
	// layer; the run's per-(layer, op) cycle attribution then sums to
	// exactly SoakResult.Cycles, and the injector's and layers' event
	// counters are harvested when the soak finishes.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives one Chrome-trace decision span per
	// domain-virtualization event (VDom only), timestamped on the run's
	// cumulative cycle clock, plus one instant per injected fault.
	Trace *metrics.Trace
	// Record captures the soak's domain-op stream as a replayable trace
	// (SoakResult.Trace); failing runs can then be shrunk to a minimal
	// reproducer with SoakResult.FailTrace. Crash-fault recovery
	// (SoakRun.Checkpoint/Recover) requires it: the trace tail is what
	// replays the system forward from a checkpoint.
	Record bool
}

// SoakResult is the outcome of one soak run.
type SoakResult struct {
	// Ops is the number of operations driven.
	Ops int
	// Cycles is the total cycle cost charged across the run.
	Cycles cycles.Cost
	// Injected and Recovered are the injector's per-kind counters.
	Injected, Recovered map[string]uint64
	// Events is the deterministic fault/recovery log.
	Events []Event
	// Violations collects every auditor finding across all audit passes.
	Violations []Violation
	// Unrecovered lists operations that failed in a way no degradation
	// path absorbed. A healthy run has none.
	Unrecovered []string
	// Audits is the number of auditor passes.
	Audits int
	// ASIDRollovers is the kernel's generation-rollover count.
	ASIDRollovers uint64
	// CoreStats snapshots the VDom manager's operation counters (zero
	// for other kernels).
	CoreStats core.Stats
	// Trace is the full replayable recording (nil unless
	// SoakConfig.Record was set).
	Trace *replay.Trace
	// FirstFailEvent is the trace position just past the first
	// unrecovered failure, or -1 when the run was healthy. FailTrace
	// truncates the recording there.
	FirstFailEvent int
}

// FailTrace returns the minimal replayable reproducer for an unhealthy
// run: the recording truncated just past the first unrecovered failure,
// or the full recording when only audit violations were found. It
// returns nil for healthy or unrecorded runs.
func (r *SoakResult) FailTrace() *replay.Trace {
	if r.Trace == nil || (len(r.Unrecovered) == 0 && len(r.Violations) == 0) {
		return nil
	}
	if r.FirstFailEvent < 0 || r.FirstFailEvent >= len(r.Trace.Events) {
		return r.Trace
	}
	return &replay.Trace{
		Header: r.Trace.Header,
		Events: r.Trace.Events[:r.FirstFailEvent:r.FirstFailEvent],
	}
}

// withDefaults fills the zero fields with their defaults.
func (cfg SoakConfig) withDefaults() SoakConfig {
	if cfg.Ops <= 0 {
		cfg.Ops = 5000
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 4
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 4
	}
	if cfg.Vdoms <= 0 {
		cfg.Vdoms = 24
	}
	if cfg.AuditEvery <= 0 {
		cfg.AuditEvery = 64
	}
	return cfg
}

// regionPages is the size of each protected region in the soak workload.
const regionPages = 4

// SoakRun is a soak in progress over one booted backend Instance,
// steppable one operation at a time so a crash-fault harness can
// interleave checkpoints, crashes, and recovery with the workload.
// StartSoak boots it; Step drives one op; Finish seals the result. Only
// the op mix (mix.go) knows which kernel it drives.
type SoakRun struct {
	cfg SoakConfig
	mix soakMix
	hdr replay.Header

	in  *Injector
	sys *replay.System
	ops backend.DomainOps // sys's kernel-neutral adapter
	rec *replay.Recorder

	res    *SoakResult
	total  cycles.Cost
	tasks  []*kernel.Task
	doms   []uint64 // the domain guarding each region
	r      *sim.Rand
	nextOp int

	tracedEvents int
	finished     bool
}

// Soak boots a machine with the injector attached and drives a randomized
// (but seed-deterministic) workload of the configured kernel's op mix
// through it, auditing cross-layer consistency as it goes. The same
// SoakConfig reproduces the identical event sequence.
func Soak(cfg SoakConfig) *SoakResult {
	s := StartSoak(cfg)
	for s.Step() {
	}
	return s.Finish()
}

// StartSoak boots the soak platform and runs the workload setup (task
// spawns, region mmaps, initial domain bindings), leaving the run poised
// before op 1. It panics on a kernel with no op mix.
func StartSoak(cfg SoakConfig) *SoakRun {
	cfg = cfg.withDefaults()
	s := &SoakRun{cfg: cfg, mix: mixFor(cfg.Kernel), nextOp: 1}
	// The header carries the injector configuration in Extra, so
	// ReplayTrace rebuilds the identical fault stream for any kernel.
	s.hdr = replay.Header{
		Version:  replay.FormatVersion,
		Arch:     replay.ArchName(cfg.Arch),
		Cores:    cfg.Cores,
		Seed:     cfg.Chaos.Seed,
		Workload: SoakWorkload,
		Extra:    ExtraConfig(cfg.Chaos),
	}
	s.mix.header(&s.hdr, cfg)
	sys, err := replay.Boot(s.hdr)
	if err != nil {
		panic(fmt.Sprintf("chaos: booting the soak platform: %v", err))
	}
	s.sys = sys
	s.in = New(cfg.Chaos)
	s.in.AttachSystem(sys)
	if cfg.Record {
		s.rec = replay.NewRecorder(s.hdr)
	}
	s.res = &SoakResult{Ops: cfg.Ops, FirstFailEvent: -1}
	s.attach()

	s.tasks = make([]*kernel.Task, cfg.Threads)
	for i := range s.tasks {
		s.tasks[i] = sys.Proc.NewTask(i % cfg.Cores)
		if s.rec != nil {
			s.rec.Spawn(s.tasks[i])
		}
	}

	// A failed setup step is reported and its cost left off the clock.
	if c, err := s.tasks[0].Mmap(plainBase, plainPages*pagetable.PageSize, true); err != nil {
		s.fail(0, "setup mmap", err)
	} else {
		s.total += c
	}
	s.doms = make([]uint64, cfg.Vdoms)
	for i := range s.doms {
		if c, err := s.tasks[0].Mmap(region(i), regionPages*pagetable.PageSize, true); err != nil {
			s.fail(0, "setup mmap", err)
		} else {
			s.total += c
		}
		s.doms[i] = s.mix.setupRegion(s, i)
	}
	for _, t := range s.tasks {
		if err := s.charge(s.ops.PrepareThread(t, 0)); err != nil {
			s.fail(0, "setup vdr_alloc", err) // VDom's per-thread VDR
		}
	}

	// The op stream draws from its own PRNG so the fault stream (the
	// injector's) and the workload stream stay independent but both
	// replay from the seed.
	s.r = sim.NewRand(cfg.Chaos.Seed ^ 0x6a09e667f3bcc908)
	return s
}

// attach (re-)attaches the host-side taps — recorder, metrics, the
// DomainOps adapter, and the op mix's own taps — to the current
// instance; recovery calls it again on the restored one.
func (s *SoakRun) attach() {
	if s.rec != nil {
		s.rec.AttachSystem(s.sys)
	}
	s.sys.Kernel.SetMetrics(s.cfg.Metrics)
	b := backend.Of(s.sys)
	b.SetMetrics(s.sys, s.cfg.Metrics)
	s.ops = b.Ops(s.sys)
	s.mix.attach(s)
}

// Working set: an unprotected scratch region plus one region per domain.
const (
	plainBase  = pagetable.VAddr(0x1000_0000)
	plainPages = 64
)

func region(i int) pagetable.VAddr {
	return pagetable.VAddr(0x4000_0000 + uint64(i)*0x10_0000)
}

// regionPage draws a random page of region i.
func (s *SoakRun) regionPage(i int) pagetable.VAddr {
	return region(i) + pagetable.VAddr(uint64(s.r.Intn(regionPages))*pagetable.PageSize)
}

// NextOp returns the 1-based index of the op the next Step will run.
func (s *SoakRun) NextOp() int { return s.nextOp }

// ClockCycles returns the run's cumulative cycle clock.
func (s *SoakRun) ClockCycles() uint64 { return uint64(s.total) }

// charge adds an op's cost to the run's clock and passes its error on.
func (s *SoakRun) charge(c cycles.Cost, err error) error {
	s.total += c
	return err
}

func (s *SoakRun) fail(op int, what string, err error) {
	if s.rec != nil && s.res.FirstFailEvent < 0 {
		// The failing op's events are already recorded (taps fire at
		// completion), so the prefix up to here is the reproducer.
		s.res.FirstFailEvent = s.rec.Len()
	}
	s.res.Unrecovered = append(s.res.Unrecovered, fmt.Sprintf("op %d: %s: %v", op, what, err))
}

func (s *SoakRun) audit() {
	s.res.Audits++
	s.res.Violations = append(s.res.Violations, Audit(s.sys)...)
}

// traceEvents turns each injected fault and recovery into a trace
// instant at the cycle position of the op that triggered it.
func (s *SoakRun) traceEvents() {
	if s.cfg.Trace == nil {
		return
	}
	evs := s.in.Events()
	for ; s.tracedEvents < len(evs); s.tracedEvents++ {
		s.cfg.Trace.Instant("chaos", evs[s.tracedEvents].Kind, 0, uint64(s.total))
	}
}

// plainAccess touches a random page of the unprotected region (valid
// inside or outside any domain).
func (s *SoakRun) plainAccess(op int, t *kernel.Task) {
	addr := plainBase + pagetable.VAddr(uint64(s.r.Intn(plainPages))*pagetable.PageSize)
	if err := s.charge(t.Access(addr, s.r.Intn(2) == 0)); err != nil {
		s.fail(op, fmt.Sprintf("plain access at %#x", uint64(addr)), err)
	}
}

// reclaim applies kswapd pressure from t's core and records it.
func (s *SoakRun) reclaim(t *kernel.Task) {
	max := 1 + s.r.Intn(8)
	n, c := s.sys.Proc.ReclaimFrames(t.CoreID(), max)
	s.total += c
	if s.rec != nil {
		s.rec.Reclaim(t.CoreID(), max, n, c)
	}
}

// Step drives one workload op (and the periodic audit that falls on it)
// and reports whether ops remain.
func (s *SoakRun) Step() bool {
	if s.nextOp > s.cfg.Ops {
		return false
	}
	op := s.nextOp
	s.nextOp++

	t := s.tasks[s.r.Intn(len(s.tasks))]
	di := s.r.Intn(len(s.doms))
	s.mix.step(s, op, t, di, s.r.Intn(100))
	s.traceEvents()
	if op%s.cfg.AuditEvery == 0 {
		s.audit()
	}
	return s.nextOp <= s.cfg.Ops
}

// Finish runs the final audit, harvests every counter, and seals the
// result. It is idempotent.
func (s *SoakRun) Finish() *SoakResult {
	if s.finished {
		return s.res
	}
	s.finished = true
	s.audit()

	s.res.Cycles = s.total
	s.res.Injected = s.in.Injected()
	s.res.Recovered = s.in.Recovered()
	s.res.Events = s.in.Events()
	s.res.ASIDRollovers = s.sys.Kernel.ASIDRollovers()
	if s.rec != nil {
		s.res.Trace = s.rec.Finish()
	}
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Accumulate(s.in, s.sys.Machine, s.sys.Proc.AS(), s.sys.Kernel)
	}
	s.mix.finish(s)
	return s.res
}
