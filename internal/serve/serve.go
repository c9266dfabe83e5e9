// Package serve is the supervision layer that turns the bounded chaos
// and crash soaks into a long-lived service: `vdom-bench serve` runs a
// fleet of soak shards continuously, treating faults as steady-state
// events rather than test cases.
//
// Each shard gets a Supervisor owning one steppable chaos.SoakRun, a
// rolling on-disk checkpoint ring (snapshot.Ring, last K vdom-snap/v2
// entries, written atomically via temp+rename+fsync), a stall watchdog
// (sim.Watchdog), and a seeded crash schedule. Worker panics are
// isolated into typed ShardFailures — they trigger a recovery, never
// process death. On a detected crash fault or stall the supervisor
// restores the newest checkpoint that still decodes (a corrupted entry
// is rejected by the container CRCs and recovery falls back to the
// previous ring entry), re-arms the fault injector from the
// checkpoint's chaos section, tail-replays the recorded trace, re-runs
// the cross-layer audit, and re-arms the watchdog. Recovery failures
// retry on a bounded, jitter-free exponential backoff schedule and
// escalate to shard quarantine after MaxRetries consecutive failures.
//
// The harness itself is attacked too: chaos.Pressure injects
// checkpoint-write failures (the ring keeps its older entries) and
// on-disk checkpoint corruption (caught by CRC at restore). Because
// every recovery is checkpoint restore + trace-tail replay — the exact
// machinery proven bit-identical in RECOVERY.md — a supervised run's
// final trace, end state, fault counters, and workload metrics are
// byte-identical to an uninterrupted unsupervised run of the same seed
// whenever no unrecoverable fault fired.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"vdom/internal/chaos"
	"vdom/internal/metrics"
	"vdom/internal/par"
)

// ErrQuarantined marks a shard abandoned after MaxRetries consecutive
// recovery failures; it is the root of every quarantine error.
var ErrQuarantined = errors.New("serve: shard quarantined")

// maxUnboundedOps caps an "unbounded" shard: with OpsPerShard zero, a
// duration- or context-bounded run steps up to this many ops per shard.
// The bound exists because the trace recorder (which recovery needs)
// grows with the op count; it is far beyond what any wall-clock-bounded
// soak reaches.
const maxUnboundedOps = 1 << 22

// Config parameterizes a supervised soak service. Zero fields take
// defaults.
type Config struct {
	// Shards is the fleet width (default 4). Shard i soaks under seed
	// Seed+i on its own isolated machine.
	Shards int
	// Seed is the base seed; it drives the workload, the fault
	// injector, and the crash schedule (all replayable).
	Seed uint64
	// Soak is the per-shard workload template (fault mix, machine
	// geometry). Its Seed, Ops, Record, Metrics, and Trace fields are
	// overridden per shard.
	Soak chaos.SoakConfig
	// Pressure enables the harness-side fault model (checkpoint-write
	// failures, checkpoint corruption); its seed derives per shard.
	Pressure chaos.PressureConfig

	// OpsPerShard bounds each shard's op count; 0 means unbounded (the
	// run ends on Duration or context cancellation).
	OpsPerShard int
	// Duration bounds the run in wall-clock time; 0 means no deadline
	// (the run ends on OpsPerShard or context cancellation).
	Duration time.Duration

	// CheckpointEvery is the rolling-checkpoint cadence in ops
	// (default 250; a baseline checkpoint is always taken after setup).
	CheckpointEvery int
	// Ring is the checkpoint-ring capacity per shard (default 4).
	Ring int
	// RingDir hosts the shards' checkpoint rings. Empty selects a
	// fresh temp directory, removed when Run returns.
	RingDir string
	// RingMaxAge, when positive, additionally prunes ring entries older
	// than this (the newest entry is always kept).
	RingMaxAge time.Duration

	// MaxRetries is the consecutive-recovery-failure budget before a
	// shard is quarantined (default 3).
	MaxRetries int
	// WatchdogThreshold arms the stall watchdog (default 8 consecutive
	// no-progress observations).
	WatchdogThreshold int

	// CrashEvery is the mean op interval between injected crash faults
	// (seeded, jitter within [CrashEvery/2, 3*CrashEvery/2)); 0 injects
	// none — organic stalls are still detected and recovered.
	CrashEvery int
	// CrashKinds is the crash-fault menu the schedule draws from
	// (default: all three chaos.CrashKinds).
	CrashKinds []chaos.CrashKind

	// BackoffBase and BackoffCap shape the deterministic, jitter-free
	// exponential retry schedule: attempt n sleeps
	// par.Backoff(BackoffBase, BackoffCap, n). Defaults
	// par.DefaultBackoffBase/Cap (10ms / 2s).
	BackoffBase time.Duration
	BackoffCap  time.Duration

	// HealthEvery, when positive, invokes HealthSink with a fleet
	// health snapshot on that cadence (a final snapshot is always
	// delivered when the run ends).
	HealthEvery time.Duration
	// HealthSink receives the periodic and final health reports; nil
	// disables reporting.
	HealthSink func(*Health)

	// Metrics, when non-nil, receives the merged serve-layer health
	// counters and the recovery-latency histogram when the run ends
	// (per-shard registries are private while serving, so the merge is
	// race-free). Workload metrics stay in per-shard registries — see
	// ShardOutcome.Metrics — so they remain comparable to an
	// unsupervised run's.
	Metrics *metrics.Registry

	// hook, when set, runs at every op boundary before the op; the
	// test suite uses it to inject worker panics.
	hook func(shard, op int)
}

// normalized returns the config with defaults applied.
func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.OpsPerShard <= 0 {
		c.OpsPerShard = maxUnboundedOps
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 250
	}
	if c.Ring <= 0 {
		c.Ring = 4
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.WatchdogThreshold <= 0 {
		c.WatchdogThreshold = 8
	}
	if len(c.CrashKinds) == 0 {
		c.CrashKinds = []chaos.CrashKind{chaos.CrashCore, chaos.CrashKernelPanic, chaos.CrashTornDomainMap}
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = par.DefaultBackoffBase
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = par.DefaultBackoffCap
	}
	return c
}

// ShardOutcome is one shard's final product.
type ShardOutcome struct {
	// Shard is the shard index.
	Shard int
	// Health is the shard's final health snapshot.
	Health ShardHealth
	// Result is the sealed soak result (trace included when healthy);
	// nil for a quarantined shard, whose wrecked state is not sealed.
	Result *chaos.SoakResult
	// Metrics is the shard's private workload registry — byte-
	// comparable to an unsupervised same-seed run's.
	Metrics *metrics.Registry
}

// Report is the completed run: final health, per-shard outcomes, and
// the merged serve-layer metrics.
type Report struct {
	// Health is the final fleet health report (serve-layer metrics
	// snapshot included).
	Health *Health
	// Shards holds each shard's outcome in shard order.
	Shards []ShardOutcome
	// Metrics is the merged serve-layer registry (health counters and
	// the serve/recovery-latency-ns histogram); identical to
	// Config.Metrics when that was provided.
	Metrics *metrics.Registry
	// RingDir is where the checkpoint rings live(d); informational.
	RingDir string
}

// Run serves the supervised soak fleet until every shard drains — by
// op budget, Duration, or context cancellation (the SIGTERM path) —
// or is quarantined. Cancellation is graceful: each shard takes a
// final checkpoint and seals its result before Run returns. The error
// covers setup failures only; shard-level outcomes, quarantines
// included, are in the Report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.normalized()
	if ctx == nil {
		ctx = context.Background()
	}
	ringDir := cfg.RingDir
	if ringDir == "" {
		tmp, err := os.MkdirTemp("", "vdom-serve-ring-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		ringDir = tmp
	}

	sups := make([]*Supervisor, cfg.Shards)
	for i := range sups {
		s, err := newSupervisor(cfg, ringDir, i)
		if err != nil {
			return nil, fmt.Errorf("serve: booting shard %d: %w", i, err)
		}
		sups[i] = s
	}

	var deadline time.Time
	if cfg.Duration > 0 {
		deadline = time.Now().Add(cfg.Duration)
	}

	// The health reporter reads every supervisor's snapshot while the
	// shard goroutines run; each snapshot is taken under the shard's
	// mutex, so the periodic report is race-free.
	done := make(chan struct{})
	var wg sync.WaitGroup
	if cfg.HealthEvery > 0 && cfg.HealthSink != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(cfg.HealthEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					cfg.HealthSink(buildHealth(cfg.Seed, shardHealths(sups), nil))
				}
			}
		}()
	}

	par.Do(cfg.Shards, cfg.Shards, func(i int) { sups[i].serve(ctx, deadline) })
	close(done)
	wg.Wait()

	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	rep := &Report{Metrics: reg, RingDir: ringDir}
	rep.Shards = make([]ShardOutcome, len(sups))
	for i, s := range sups {
		reg.Merge(s.serveReg)
		rep.Shards[i] = ShardOutcome{Shard: i, Health: s.healthSnapshot(), Result: s.result, Metrics: s.reg}
	}
	rep.Health = buildHealth(cfg.Seed, shardHealths(sups), reg)
	if cfg.HealthSink != nil {
		cfg.HealthSink(rep.Health)
	}
	return rep, nil
}

// shardHealths snapshots every supervisor's health in shard order.
func shardHealths(sups []*Supervisor) []ShardHealth {
	out := make([]ShardHealth, len(sups))
	for i, s := range sups {
		out[i] = s.healthSnapshot()
	}
	return out
}
