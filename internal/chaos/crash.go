package chaos

import (
	"context"
	"fmt"
	"sort"

	"vdom/internal/kernel"
	"vdom/internal/replay"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Crash-fault model on top of the steppable soak: the harness
// checkpoints the full System periodically (internal/snapshot), strikes
// a crash fault at a chosen op boundary, detects it — via the sim
// watchdog for wedging faults, via the cross-layer auditor for silent
// corruption — and recovers by restoring the latest checkpoint and
// replaying the recorded trace tail up to the crash point, after which
// the workload continues as if nothing happened. A recovered run's
// trace, end state, and counters are bit-identical to an uninterrupted
// run of the same seed (see RECOVERY.md).

// CrashKind selects the injected crash fault.
type CrashKind int

const (
	// CrashCore wipes one core's volatile state (TLB, permission
	// register, loaded table, walk cache), wedging the machine.
	CrashCore CrashKind = iota
	// CrashKernelPanic models a kernel panic mid-syscall: every core's
	// residency bookkeeping is lost.
	CrashKernelPanic
	// CrashTornDomainMap models a crash in the middle of a multi-step
	// domain-map update: the forward entry survives, its inverse is
	// lost. The system keeps running on corrupt metadata until the
	// auditor catches it.
	CrashTornDomainMap
)

// String names the crash kind for reports.
func (k CrashKind) String() string {
	switch k {
	case CrashCore:
		return "core-crash"
	case CrashKernelPanic:
		return "kernel-panic"
	case CrashTornDomainMap:
		return "torn-domain-map"
	default:
		return fmt.Sprintf("crash-kind-%d", int(k))
	}
}

// InjectorSection is the snapshot section carrying the injector's image;
// recovery rebuilds the fault stream from it so the trace tail replays
// under the identical faults.
const InjectorSection = "chaos/injector"

// AppendState appends the injector's image: the config (seed, the fault
// probabilities as fixed 8-byte floats, the ASID limit), the PRNG state,
// the sequence number, both counter maps (ascending kind), and the event
// log.
func (in *Injector) AppendState(b []byte) []byte {
	c := in.cfg
	b = wire.AppendUvarint(b, c.Seed)
	for _, p := range [...]float64{c.DropIPI, c.DelayIPI, c.StaleTLB, c.ASIDExhaustion} {
		b = wire.AppendFloat64(b, p)
	}
	b = wire.AppendUvarint(b, uint64(c.ASIDLimit))
	for _, p := range [...]float64{c.VDSAllocFail, c.PdomExhaustion, c.SpuriousFault} {
		b = wire.AppendFloat64(b, p)
	}
	for _, v := range in.rng.State() {
		b = wire.AppendUvarint(b, v)
	}
	b = wire.AppendUvarint(b, in.seq)
	b = appendCounters(b, in.injected)
	b = appendCounters(b, in.recovered)
	b = wire.AppendUvarint(b, uint64(len(in.events)))
	for _, e := range in.events {
		b = wire.AppendUvarint(b, e.Seq)
		b = wire.AppendString(b, e.Kind)
		b = wire.AppendString(b, e.Detail)
	}
	return b
}

// ReadInjector rebuilds an injector from an image AppendState wrote: same
// config, same PRNG position, same counters and event log.
func ReadInjector(r *wire.Reader) *Injector {
	var c Config
	c.Seed = r.Uvarint()
	c.DropIPI, c.DelayIPI, c.StaleTLB, c.ASIDExhaustion = r.Float64(), r.Float64(), r.Float64(), r.Float64()
	c.ASIDLimit = tlb.ReadASID(r)
	c.VDSAllocFail, c.PdomExhaustion, c.SpuriousFault = r.Float64(), r.Float64(), r.Float64()
	in := New(c)
	var rng [4]uint64
	for i := range rng {
		rng[i] = r.Uvarint()
	}
	in.rng.SetState(rng)
	in.seq = r.Uvarint()
	readCounters(r, in.injected)
	readCounters(r, in.recovered)
	n := r.Count("event")
	for i := 0; i < n; i++ {
		in.events = append(in.events, Event{Seq: r.Uvarint(), Kind: r.String(), Detail: r.String()})
	}
	return in
}

func appendCounters(b []byte, m map[string]uint64) []byte {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	b = wire.AppendUvarint(b, uint64(len(kinds)))
	for _, k := range kinds {
		b = wire.AppendString(b, k)
		b = wire.AppendUvarint(b, m[k])
	}
	return b
}

func readCounters(r *wire.Reader, m map[string]uint64) {
	n := r.Count("counter")
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.Uvarint()
	}
}

// Checkpoint captures the full System — every layer plus the injector —
// as an encoded vdom-snap/v2 snapshot. It requires SoakConfig.Record:
// recovery replays the recorded tail from the checkpoint's event index.
func (s *SoakRun) Checkpoint() ([]byte, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("chaos: Checkpoint requires SoakConfig.Record")
	}
	st, err := snapshot.Capture(s.sys, s.hdr, s.rec.Clock(), s.rec.Len())
	if err != nil {
		return nil, err
	}
	st.AddSection(InjectorSection, s.in.AppendState(nil))
	return snapshot.Encode(st), nil
}

// Crash strikes the crash fault against the live system and returns a
// description of the damage. The system is left wedged (CrashCore,
// CrashKernelPanic) or silently corrupt (CrashTornDomainMap); only
// Recover brings it back.
func (s *SoakRun) Crash(kind CrashKind) string {
	detail, _ := s.crash(kind)
	return detail
}

// crash strikes the fault and reports the damage it actually did: torn
// is true only when a domain map really tore. A tear with nothing to
// tear (no mapped vdom, or a kernel with no VDom manager) falls back to
// a residency wipe, which wedges the machine like a kernel panic.
func (s *SoakRun) crash(kind CrashKind) (detail string, torn bool) {
	switch kind {
	case CrashCore:
		id := s.nextOp % s.cfg.Cores
		s.sys.Machine.Core(id).CrashVolatile()
		return fmt.Sprintf("core %d volatile state wiped", id), false
	case CrashKernelPanic:
		s.sys.Kernel.ClearResidency()
		return "kernel panic: per-core residency lost", false
	case CrashTornDomainMap:
		if m := s.sys.Manager; m != nil {
			if detail, ok := m.TearDomainMap(); ok {
				return "torn domain map: " + detail, true
			}
		}
		// Fall back to a residency wipe so the fault still strikes
		// deterministically.
		s.sys.Kernel.ClearResidency()
		return "no mapped vdom to tear; kernel residency wiped instead", false
	default:
		panic(fmt.Sprintf("chaos: unknown crash kind %d", int(kind)))
	}
}

// AuditNow runs the cross-layer auditor against the live (possibly
// crashed) system without folding the findings into the soak result —
// crash detection findings describe state that recovery discards.
func (s *SoakRun) AuditNow() []Violation {
	return Audit(s.sys)
}

// Strike is one crash struck against a live soak and detected.
type Strike struct {
	// Kind is the crash fault struck.
	Kind CrashKind
	// Detail describes the damage actually done.
	Detail string
	// DetectedBy is "audit" for a real domain-map tear and "watchdog"
	// for a wedge (core crash, kernel panic, or a tear that fell back to
	// a residency wipe).
	DetectedBy string
	// Baseline is the live audit taken just before the crash: the audit
	// a faithful recovery must reproduce (see SameAudit).
	Baseline []Violation
}

// Strike takes the live audit as the baseline, strikes the crash, and
// detects it by the damage actually done. A real tear is detected when
// the auditor reports at least one finding the baseline lacks; a wedge
// is detected by feeding wd the frozen clock until it fires. A crash
// nothing detected is an error; the Strike is still returned so the
// caller can report the damage.
func (s *SoakRun) Strike(kind CrashKind, wd *sim.Watchdog) (*Strike, error) {
	st := &Strike{Kind: kind, Baseline: s.AuditNow()}
	detail, torn := s.crash(kind)
	st.Detail = detail
	if torn {
		st.DetectedBy = "audit"
		if _, added := diffAudits(s.AuditNow(), st.Baseline); !added {
			return st, fmt.Errorf("chaos: %s escaped the auditor: %s", kind, detail)
		}
		return st, nil
	}
	// The wedged system makes no progress: feed the watchdog the frozen
	// clock until it fires.
	st.DetectedBy = "watchdog"
	frozen := s.ClockCycles()
	for !wd.Fired() {
		wd.Observe(frozen)
	}
	return st, nil
}

// SameAudit is the recovery check. A faithful restore reproduces the
// pre-crash state exactly — including transient staleness legitimately
// in flight at the crash boundary (a dropped shootdown IPI's leftovers
// heal lazily) — so the recovered audit must equal the pre-crash
// baseline as a multiset. Any difference in either direction is
// recovery damage; the error names the first one.
func SameAudit(baseline, got []Violation) error {
	if first, _ := diffAudits(got, baseline); first != "" {
		return fmt.Errorf("chaos: recovered audit diverged from pre-crash baseline: %d violation(s) vs %d expected (first: %s)",
			len(got), len(baseline), first)
	}
	return nil
}

// diffAudits compares two audits as multisets. It returns the first
// difference — "unexpected: …" for a finding only got has (in got's
// order), else "missing: …" for one only want has (in want's order), ""
// when they are equal — and whether got has any finding want lacks.
func diffAudits(got, want []Violation) (first string, added bool) {
	left := make(map[string]int, len(want))
	for _, v := range want {
		left[v.String()]++
	}
	for _, v := range got {
		if k := v.String(); left[k] > 0 {
			left[k]--
		} else if !added {
			first, added = "unexpected: "+k, true
		}
	}
	for _, v := range want {
		if k := v.String(); first == "" && left[k] > 0 {
			first = "missing: " + k
		}
	}
	return first, added
}

// Recovery describes one completed checkpoint-restore-tail-replay pass.
type Recovery struct {
	// TailEvents is the number of trace events replayed to roll the
	// restored checkpoint forward to the crash point.
	TailEvents int
	// Violations is the auditor's findings on the recovered system; a
	// sound recovery reproduces the pre-crash audit (SameAudit).
	Violations []Violation
}

// recoverFromCheckpoint is the shared recovery engine: decode the
// checkpoint, restore every layer, rebuild the injector from its
// section, replay the trace tail from the checkpoint's event index
// (under the restored fault stream, with no metrics attribution — a
// live run's registry already saw these ops), and audit the result.
func recoverFromCheckpoint(snap []byte, tail *replay.Trace) (*replay.System, map[uint64]*kernel.Task, *Injector, *Recovery, error) {
	st, err := snapshot.Decode(snap)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if st.Meta.Header.ConfigDigest != tail.Header.ConfigDigest {
		return nil, nil, nil, nil, fmt.Errorf("%w: checkpoint config digest %#x does not match trace %#x",
			snapshot.ErrBadRecord, st.Meta.Header.ConfigDigest, tail.Header.ConfigDigest)
	}
	var in *Injector
	if err := st.ReadSection(InjectorSection, func(r *wire.Reader) { in = ReadInjector(r) }); err != nil {
		return nil, nil, nil, nil, err
	}

	sys, tasks, err := snapshot.Restore(st)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	res, err := replay.RunTail(tail, sys, tasks, st.Meta.Clock, st.Meta.EventIndex, replay.Options{
		Setup: in.AttachSystem,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if res.Divergence != nil {
		return nil, nil, nil, nil, fmt.Errorf("chaos: tail replay diverged at event %d (cycle delta %d)",
			res.Divergence.Index, res.Divergence.CycleDelta)
	}
	rec := &Recovery{TailEvents: res.Events, Violations: Audit(sys)}
	return sys, tasks, in, rec, nil
}

// RecoverFromArtifacts re-runs a crash recovery from its persisted
// reproducer artifacts — an encoded checkpoint plus the crashed run's
// recorded trace — standalone, with no live soak. It returns the tail
// replay and audit outcome; the recovered System is discarded.
func RecoverFromArtifacts(snap []byte, tail *replay.Trace) (*Recovery, error) {
	_, _, _, rec, err := recoverFromCheckpoint(snap, tail)
	return rec, err
}

// Recover rebuilds the soak's live system, whatever its kernel, from an
// encoded checkpoint: restore, tail replay up to the crash point, audit,
// and swap the recovered Instance in. The workload then continues from
// the op the crash interrupted. The recorder's taps stay on the wrecked
// instance while the tail replays, so replayed ops are not re-recorded.
func (s *SoakRun) Recover(snap []byte) (*Recovery, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("chaos: Recover requires SoakConfig.Record")
	}
	sys, tasks, in, rec, err := recoverFromCheckpoint(snap, s.rec.Partial(s.rec.Len()))
	if err != nil {
		return nil, err
	}

	// Swap the recovered instance in and re-wire the host-side taps.
	s.sys, s.in = sys, in
	for i, t := range s.tasks {
		nt, ok := tasks[uint64(t.TID())]
		if !ok {
			return nil, fmt.Errorf("chaos: task %d lost across recovery", t.TID())
		}
		s.tasks[i] = nt
	}
	s.attach()
	s.tracedEvents = len(s.in.Events())
	return rec, nil
}

// CrashConfig parameterizes one crash-and-recover soak. Zero fields take
// defaults.
type CrashConfig struct {
	// Kind is the crash fault to strike.
	Kind CrashKind
	// Ctx, when non-nil, cancels the soak between ops: CrashSoak returns
	// the context's error so a wall-clock -timeout can never hang a CI
	// job on a wedged run.
	Ctx context.Context
	// AtOp is the op boundary the crash strikes at — before the op runs
	// (default: halfway through the run).
	AtOp int
	// CheckpointEvery is the checkpoint cadence in ops (default 300; a
	// checkpoint is always taken right after setup).
	CheckpointEvery int
}

// StallThreshold is how many consecutive stalled clock observations fire
// the crash-detection watchdog, in CrashSoak and in the serve supervisor.
const StallThreshold = 8

// CrashOutcome is the report of one crash-and-recover soak.
type CrashOutcome struct {
	// Kind names the crash fault.
	Kind string
	// CheckpointOp is the op the recovery checkpoint was taken after.
	CheckpointOp int
	// CrashOp is the op boundary the crash struck at.
	CrashOp int
	// Detail describes the damage.
	Detail string
	// DetectedBy is "watchdog" or "audit" (see Strike).
	DetectedBy string
	// TailEvents is the number of trace events replayed during recovery.
	TailEvents int
	// PostViolations is the auditor's findings on the recovered system;
	// they equal the pre-crash audit.
	PostViolations []Violation
	// Snapshot is the encoded checkpoint recovery restored from — the
	// standalone reproducer artifact.
	Snapshot []byte
	// Result is the completed soak result (crash and recovery included).
	Result *SoakResult
}

// CrashSoak runs a soak with a crash fault struck at the configured op:
// periodic checkpoints, the Strike, restore + tail replay, the SameAudit
// recovery check, and the remainder of the workload on the recovered
// system. The returned result's trace and end state are bit-identical to
// an uninterrupted Soak of the same SoakConfig (with Record set).
func CrashSoak(cfg SoakConfig, crash CrashConfig) (*CrashOutcome, error) {
	cfg.Record = true
	cfg = cfg.withDefaults()
	if crash.AtOp <= 0 {
		crash.AtOp = cfg.Ops/2 + 1
	}
	if crash.AtOp > cfg.Ops {
		crash.AtOp = cfg.Ops
	}
	if crash.CheckpointEvery <= 0 {
		crash.CheckpointEvery = 300
	}

	s := StartSoak(cfg)
	out := &CrashOutcome{Kind: crash.Kind.String(), CrashOp: crash.AtOp}
	latest, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	for op := 1; op <= cfg.Ops; op++ {
		if crash.Ctx != nil && crash.Ctx.Err() != nil {
			return nil, fmt.Errorf("chaos: crash soak cancelled at op %d: %w", op, crash.Ctx.Err())
		}
		if op == crash.AtOp {
			st, err := s.Strike(crash.Kind, sim.NewWatchdog(StallThreshold))
			out.Detail, out.DetectedBy = st.Detail, st.DetectedBy
			var rec *Recovery
			if err == nil {
				rec, err = s.Recover(latest)
			}
			if err == nil {
				out.TailEvents, out.PostViolations = rec.TailEvents, rec.Violations
				err = SameAudit(st.Baseline, rec.Violations)
			}
			if err != nil {
				out.Snapshot = latest
				return out, err
			}
		}
		s.Step()
		if op%crash.CheckpointEvery == 0 && op < crash.AtOp {
			if latest, err = s.Checkpoint(); err != nil {
				return nil, err
			}
			out.CheckpointOp = op
		}
	}
	out.Snapshot = latest
	out.Result = s.Finish()
	return out, nil
}
