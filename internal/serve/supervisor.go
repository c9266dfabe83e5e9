package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"vdom/internal/chaos"
	"vdom/internal/metrics"
	"vdom/internal/par"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
)

// ShardFailure is a worker panic the supervisor isolated: the panic
// value, typed and attributed, instead of a dead process. The shard
// recovers from its checkpoint ring and keeps serving.
type ShardFailure struct {
	// Shard and Op locate the failure.
	Shard int
	Op    int
	// Phase is the supervisor phase that panicked ("step", "drain").
	Phase string
	// Cause is the recovered panic value, unwrapped from par.JobPanic
	// when the panic escaped a parallel fan-out inside the shard.
	Cause any
	// JobIndex is the failing job's index when the panic arrived wrapped
	// as a par.JobPanic, and -1 otherwise.
	JobIndex int
}

// Error renders the failure.
func (f *ShardFailure) Error() string {
	if f.JobIndex >= 0 {
		return fmt.Sprintf("serve: shard %d %s at op %d: panic in job %d: %v", f.Shard, f.Phase, f.Op, f.JobIndex, f.Cause)
	}
	return fmt.Sprintf("serve: shard %d %s at op %d: panic: %v", f.Shard, f.Phase, f.Op, f.Cause)
}

// Supervisor runs one shard of the supervised soak fleet: its own
// SoakRun, checkpoint ring, pressure source, watchdog, and crash
// schedule. All soak stepping happens on the shard's goroutine; the
// health snapshot is the only shared state, guarded by mu so the
// periodic reporter can read it live.
type Supervisor struct {
	cfg   Config
	shard int

	soak     *chaos.SoakRun
	reg      *metrics.Registry // workload metrics (private to the shard)
	serveReg *metrics.Registry // serve-layer metrics (merged after the run)
	ring     *snapshot.Ring
	press    *chaos.Pressure
	wd       *sim.Watchdog
	crashRng *sim.Rand

	nextCrash int
	result    *chaos.SoakResult

	mu sync.Mutex
	h  ShardHealth
}

// newSupervisor boots shard `shard`: soak setup, ring, pressure, crash
// schedule, and the pressure-free baseline checkpoint (so the ring
// always holds at least one good entry before any fault can strike).
func newSupervisor(cfg Config, ringDir string, shard int) (*Supervisor, error) {
	s := &Supervisor{
		cfg:      cfg,
		shard:    shard,
		reg:      metrics.New(),
		serveReg: metrics.New(),
	}
	seed := cfg.Seed + uint64(shard)

	soakCfg := cfg.Soak
	soakCfg.Chaos.Seed = seed
	soakCfg.Ops = cfg.OpsPerShard
	soakCfg.Record = true // recovery replays the recorded tail
	soakCfg.Metrics = s.reg
	soakCfg.Trace = nil

	ring, err := snapshot.NewRing(ringDir, fmt.Sprintf("shard%d", shard), cfg.Ring)
	if err != nil {
		return nil, err
	}
	s.ring = ring

	pcfg := cfg.Pressure
	if pcfg.Seed == 0 {
		pcfg.Seed = cfg.Seed
	}
	pcfg.Seed += uint64(shard) * 0x9e3779b97f4a7c15
	s.press = chaos.NewPressure(pcfg)

	s.wd = sim.NewWatchdog(chaos.StallThreshold)
	// The crash schedule's PRNG is independent of both the workload's
	// and the injector's streams, so injected crashes never perturb the
	// simulated run — the bit-identity guarantee rests on this.
	s.crashRng = sim.NewRand(seed ^ 0xc2b2ae3d27d4eb4f)
	s.soak = chaos.StartSoak(soakCfg)
	s.h = ShardHealth{Shard: shard, Seed: seed, State: Running, RingCap: cfg.Ring}
	if cfg.CrashEvery > 0 {
		s.nextCrash = s.schedule(0)
	}

	data, err := s.soak.Checkpoint()
	if err != nil {
		return nil, err
	}
	if _, err := s.ring.Append(0, data); err != nil {
		return nil, err
	}
	s.noteAppend(0)
	return s, nil
}

// schedule draws the next crash op: mean CrashEvery ops out, jittered
// within [CrashEvery/2, 3*CrashEvery/2) by the seeded schedule PRNG.
func (s *Supervisor) schedule(op int) int {
	return op + s.cfg.CrashEvery/2 + 1 + s.crashRng.Intn(s.cfg.CrashEvery)
}

// serve is the shard's main loop: step until the op budget, deadline,
// or context ends the run (drain) or quarantine abandons the shard.
func (s *Supervisor) serve(ctx context.Context, deadline time.Time) {
	for tick := 0; ; tick++ {
		if s.state() == Quarantined {
			return
		}
		if ctx.Err() != nil {
			s.drain()
			return
		}
		// The deadline costs a wall-clock read, so poll it every 64 ops.
		if !deadline.IsZero() && tick&63 == 0 && time.Now().After(deadline) {
			s.drain()
			return
		}
		if !s.step(ctx) {
			if s.state() != Quarantined {
				s.drain()
			}
			return
		}
	}
}

// step drives one supervised op: strike a scheduled crash (and recover
// from it) at the op boundary, run the op, feed the watchdog, take the
// cadence checkpoint. A panic anywhere inside is isolated into a
// ShardFailure and answered with a checkpoint recovery.
func (s *Supervisor) step(ctx context.Context) bool {
	op := s.soak.NextOp()
	more := true
	fail := s.guard(op, "step", func() {
		if s.cfg.hook != nil {
			s.cfg.hook(s.shard, op)
		}
		if s.nextCrash > 0 && op == s.nextCrash {
			s.strike(ctx)
			if s.state() == Quarantined {
				return
			}
			s.nextCrash = s.schedule(op)
		}
		more = s.soak.Step()
		if s.wd.Observe(s.soak.ClockCycles()) {
			// Organic stall — no crash was injected, yet the clock froze.
			// Same detector, same recovery path as an injected wedge.
			s.note(func(h *ShardHealth) { h.DetectedByWatchdog++ })
			s.recover(ctx, s.soak.AuditNow())
		}
		if op%s.cfg.CheckpointEvery == 0 {
			s.checkpoint(op)
		}
	})
	if fail != nil {
		s.serveReg.Add("serve/panic-failures", 1)
		s.note(func(h *ShardHealth) { h.PanicFailures++; h.LastError = fail.Error() })
		s.recover(ctx, s.soak.AuditNow())
		// Restore + tail replay rewound the shard to the last recorded
		// boundary; a panic at the op boundary (before the op advanced)
		// simply re-runs the op.
		more = s.soak.NextOp() <= s.cfg.OpsPerShard
	}
	s.note(func(h *ShardHealth) { h.Ops = s.soak.NextOp() - 1; h.Clock = s.soak.ClockCycles() })
	return more && s.state() != Quarantined
}

// strike injects the scheduled crash fault through the chaos engine's
// Strike (baseline audit, crash, detection by the damage done) and
// recovers. A crash nothing detected quarantines the shard.
func (s *Supervisor) strike(ctx context.Context) {
	kind := s.cfg.CrashKinds[s.crashRng.Intn(len(s.cfg.CrashKinds))]
	st, err := s.soak.Strike(kind, s.wd)
	s.serveReg.Add("serve/crashes", 1)
	s.serveReg.Add("serve/crash-"+kind.String(), 1)
	s.note(func(h *ShardHealth) { h.Crashes++; h.LastCrash = kind.String() + ": " + st.Detail })
	if err != nil {
		s.quarantine(fmt.Errorf("%w: shard %d: %v", ErrQuarantined, s.shard, err))
		return
	}
	s.note(func(h *ShardHealth) {
		if st.DetectedBy == "audit" {
			h.DetectedByAudit++
		} else {
			h.DetectedByWatchdog++
		}
	})
	s.recover(ctx, st.Baseline)
}

// recover restores the shard from its checkpoint ring, retrying on the
// deterministic backoff schedule and quarantining after MaxRetries
// consecutive failures. Every attempt's recovered audit must equal
// baseline: a strike's pre-crash audit, or for a panic or organic stall
// (no injected wreckage; the live system still stands) the live audit —
// exactly the state recovery rebuilds for a boundary fault, and best
// effort for a mid-op panic, like the recovery boundary itself.
func (s *Supervisor) recover(ctx context.Context, baseline []chaos.Violation) {
	s.setState(Recovering)
	start := time.Now()
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			s.quarantine(fmt.Errorf("%w: shard %d: cancelled mid-recovery: %v", ErrQuarantined, s.shard, ctx.Err()))
			return
		}
		err := s.tryRestore(baseline)
		if err == nil {
			ns := uint64(time.Since(start))
			s.wd.Reset()
			s.serveReg.Add("serve/recoveries", 1)
			s.serveReg.Observe("serve/recovery-latency-ns", ns)
			s.note(func(h *ShardHealth) {
				h.Recoveries++
				h.ConsecutiveFailures = 0
				h.LastRecoveryNs = ns
				if ns > h.MaxRecoveryNs {
					h.MaxRecoveryNs = ns
				}
			})
			s.setState(Running)
			return
		}
		s.serveReg.Add("serve/recovery-failures", 1)
		streak := 0
		s.note(func(h *ShardHealth) {
			h.RecoveryFailures++
			h.ConsecutiveFailures++
			h.LastError = err.Error()
			streak = h.ConsecutiveFailures
		})
		if streak >= s.cfg.MaxRetries {
			s.quarantine(fmt.Errorf("%w: shard %d after %d consecutive recovery failures: %v", ErrQuarantined, s.shard, streak, err))
			return
		}
		s.serveReg.Add("serve/retries", 1)
		s.note(func(h *ShardHealth) { h.Retries++ })
		time.Sleep(par.Backoff(s.cfg.BackoffBase, s.cfg.BackoffCap, attempt))
	}
}

// tryRestore performs one recovery attempt: newest decodable ring entry
// (corrupt entries are skipped — the ring fallback), restore + tail
// replay via SoakRun.Recover, then the recovery check against baseline
// (chaos.SameAudit). A panic
// inside the attempt is converted to an error so the retry/quarantine
// ladder handles it.
func (s *Supervisor) tryRestore(baseline []chaos.Violation) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: recovery panicked: %v", r)
		}
	}()
	data, entry, skipped, err := s.ring.LatestGood()
	if skipped > 0 {
		s.serveReg.Add("serve/ring-fallbacks", uint64(skipped))
		s.note(func(h *ShardHealth) { h.RingFallbacks += skipped })
	}
	if err != nil {
		return err
	}
	rec, err := s.soak.Recover(data)
	if err != nil {
		return fmt.Errorf("restore from %s: %w", filepath.Base(entry.Path), err)
	}
	if err := chaos.SameAudit(baseline, rec.Violations); err != nil {
		return err
	}
	if len(rec.Violations) > 0 {
		s.serveReg.Add("serve/staleness-carried", 1)
	}
	s.note(func(h *ShardHealth) { h.TailEvents += rec.TailEvents; h.RestoredFromOp = entry.Op })
	return nil
}

// checkpoint takes the cadence checkpoint through the pressure model:
// a pressure-failed write keeps the ring's older entries; a pressure-
// corrupted write lands on disk to be caught by CRC at recovery time.
func (s *Supervisor) checkpoint(op int) {
	if s.press.FailCheckpointWrite(op) {
		s.serveReg.Add("serve/checkpoint-write-failures", 1)
		s.note(func(h *ShardHealth) { h.CheckpointWriteFails++ })
		return
	}
	data, err := s.soak.Checkpoint()
	if err == nil {
		if s.press.CorruptCheckpoint(op, data) {
			s.serveReg.Add("serve/checkpoint-corruptions", 1)
			s.note(func(h *ShardHealth) { h.CorruptedCheckpoints++ })
		}
		_, err = s.ring.Append(op, data)
	}
	if err != nil {
		s.serveReg.Add("serve/checkpoint-write-failures", 1)
		s.note(func(h *ShardHealth) { h.CheckpointWriteFails++; h.LastError = err.Error() })
		return
	}
	s.noteAppend(op)
}

// noteAppend records a successful ring append in the health snapshot.
func (s *Supervisor) noteAppend(op int) {
	s.serveReg.Add("serve/checkpoint-writes", 1)
	n := s.ring.Len()
	s.note(func(h *ShardHealth) { h.CheckpointWrites++; h.LastCheckpointOp = op; h.RingLen = n })
}

// drain ends the shard gracefully: a final checkpoint (pressure-free —
// it is the entry a restarted service resumes from) and the sealed
// soak result.
func (s *Supervisor) drain() {
	op := s.soak.NextOp() - 1
	fail := s.guard(op, "drain", func() {
		if data, err := s.soak.Checkpoint(); err == nil {
			if _, err := s.ring.Append(op, data); err == nil {
				s.noteAppend(op)
			}
		}
		s.result = s.soak.Finish()
	})
	if fail != nil {
		s.serveReg.Add("serve/panic-failures", 1)
		s.note(func(h *ShardHealth) { h.PanicFailures++; h.LastError = fail.Error() })
	}
	s.setState(Drained)
}

// quarantine abandons the shard, preserving the cause for post-mortem.
func (s *Supervisor) quarantine(err error) {
	s.serveReg.Add("serve/quarantines", 1)
	s.note(func(h *ShardHealth) { h.LastError = err.Error() })
	s.setState(Quarantined)
}

// guard runs f with panic isolation, converting a panic into a typed
// ShardFailure. A par.JobPanic is unwrapped so the failure names the
// exact fan-out index that died, not just the pool that contained it.
func (s *Supervisor) guard(op int, phase string, f func()) (fail *ShardFailure) {
	defer func() {
		if r := recover(); r != nil {
			cause, job := par.Cause(r)
			fail = &ShardFailure{Shard: s.shard, Op: op, Phase: phase, Cause: cause, JobIndex: job}
		}
	}()
	f()
	return nil
}

func (s *Supervisor) state() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h.State
}

func (s *Supervisor) setState(st State) {
	s.note(func(h *ShardHealth) { h.State = st })
}

// note applies a mutation to the health snapshot under the lock.
func (s *Supervisor) note(f func(*ShardHealth)) {
	s.mu.Lock()
	f(&s.h)
	s.mu.Unlock()
}

// healthSnapshot returns a copy of the shard's live health.
func (s *Supervisor) healthSnapshot() ShardHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}
