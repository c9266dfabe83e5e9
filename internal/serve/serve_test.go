package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vdom/internal/chaos"
	"vdom/internal/metrics"
	"vdom/internal/par"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// soakTemplate is the shared workload template: every fault class
// enabled, mirroring the crash-soak suite's mix.
func soakTemplate() chaos.SoakConfig {
	return chaos.SoakConfig{
		Chaos: chaos.Config{
			DropIPI:        0.05,
			DelayIPI:       0.05,
			StaleTLB:       0.03,
			ASIDExhaustion: 0.02,
			ASIDLimit:      tlb.ASID(24),
			VDSAllocFail:   0.10,
			PdomExhaustion: 0.05,
			SpuriousFault:  0.02,
		},
	}
}

// reference runs the unsupervised, uninterrupted soak for one shard's
// seed and asserts it is healthy.
func reference(t *testing.T, base Config, shard int) (*chaos.SoakResult, *metrics.Registry) {
	t.Helper()
	cfg := base.Soak
	cfg.Chaos.Seed = base.Seed + uint64(shard)
	cfg.Ops = base.OpsPerShard
	cfg.Record = true
	reg := metrics.New()
	cfg.Metrics = reg
	res := chaos.Soak(cfg)
	if len(res.Unrecovered) != 0 || len(res.Violations) != 0 {
		t.Fatalf("reference shard %d unhealthy: %v %v", shard, res.Unrecovered, res.Violations)
	}
	return res, reg
}

// assertBitIdentical compares one supervised shard outcome against its
// unsupervised reference: trace bytes, end-state map, fault counters,
// and the workload metrics JSON.
func assertBitIdentical(t *testing.T, sh ShardOutcome, ref *chaos.SoakResult, refReg *metrics.Registry) {
	t.Helper()
	if sh.Result == nil {
		t.Fatalf("shard %d: no sealed result (state %v)", sh.Shard, sh.Health.State)
	}
	if len(sh.Result.Unrecovered) != 0 || len(sh.Result.Violations) != 0 {
		t.Fatalf("shard %d unhealthy: %v %v", sh.Shard, sh.Result.Unrecovered, sh.Result.Violations)
	}
	if !bytes.Equal(replay.Encode(sh.Result.Trace), replay.Encode(ref.Trace)) {
		t.Errorf("shard %d: supervised trace differs from unsupervised reference", sh.Shard)
	}
	for k, v := range ref.Trace.End {
		if sh.Result.Trace.End[k] != v {
			t.Errorf("shard %d end state %q: supervised %d, reference %d", sh.Shard, k, sh.Result.Trace.End[k], v)
		}
	}
	if fmt.Sprint(sh.Result.Injected) != fmt.Sprint(ref.Injected) ||
		fmt.Sprint(sh.Result.Recovered) != fmt.Sprint(ref.Recovered) {
		t.Errorf("shard %d: fault counters diverged", sh.Shard)
	}
	var refJSON, gotJSON bytes.Buffer
	if err := refReg.WriteJSON(&refJSON); err != nil {
		t.Fatal(err)
	}
	if err := sh.Metrics.WriteJSON(&gotJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON.Bytes(), gotJSON.Bytes()) {
		t.Errorf("shard %d: workload metrics diverged across supervision", sh.Shard)
	}
}

// TestServeLongRunCarriesTransientStaleness regression-tests the dirty-
// boundary case: over a long run some crash boundaries land while
// dropped-shootdown staleness is legitimately in flight, so the
// post-recovery audit is non-empty. Recovery must compare it against the
// pre-crash baseline (a faithful restore reproduces the staleness) and
// keep serving — an empty-audit requirement would quarantine a healthy
// shard. The seed/op count here reproduced exactly that quarantine
// before the baseline comparison existed.
func TestServeLongRunCarriesTransientStaleness(t *testing.T) {
	cfg := Config{
		Shards:          1,
		Seed:            42,
		Soak:            soakTemplate(),
		OpsPerShard:     15000,
		CheckpointEvery: 100,
		Ring:            4,
		CrashEvery:      150,
		MaxRetries:      3,
		BackoffBase:     time.Nanosecond,
		BackoffCap:      time.Nanosecond,
		Pressure:        chaos.PressureConfig{SnapWriteFail: 0.2, SnapCorrupt: 0.2},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := rep.Shards[0].Health
	if h.State != Drained {
		t.Fatalf("shard state %v (last error %q), want drained", h.State, h.LastError)
	}
	if h.Recoveries != h.Crashes || h.Crashes < 50 {
		t.Errorf("crashes=%d recoveries=%d: want equal and a long crash history", h.Crashes, h.Recoveries)
	}
	if rep.Metrics.Counter("serve/staleness-carried") == 0 {
		t.Errorf("no recovery carried transient staleness — the dirty-boundary path was not exercised")
	}
	ref, refReg := reference(t, cfg, 0)
	assertBitIdentical(t, rep.Shards[0], ref, refReg)
}

// TestServeSupervisedBitIdentical is the tentpole acceptance check: a
// supervised fleet under injected crashes of every kind AND harness
// pressure (checkpoint-write failures, checkpoint corruption) must end
// with every shard recovered and bit-identical — trace bytes, end
// state, fault counters, workload metrics JSON — to the uninterrupted
// unsupervised run of the same seed.
func TestServeSupervisedBitIdentical(t *testing.T) {
	cfg := Config{
		Shards:          2,
		Seed:            0x5e12e,
		Soak:            soakTemplate(),
		OpsPerShard:     600,
		CheckpointEvery: 100,
		Ring:            8,
		CrashEvery:      150,
		BackoffBase:     time.Nanosecond,
		Pressure:        chaos.PressureConfig{SnapWriteFail: 0.25, SnapCorrupt: 0.25},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := rep.Health
	if h.Quarantined != 0 || h.Drained != cfg.Shards {
		t.Fatalf("fleet not fully drained: %d quarantined, %d drained", h.Quarantined, h.Drained)
	}
	if h.Crashes == 0 {
		t.Fatalf("no crash faults were injected (CrashEvery=%d over %d ops)", cfg.CrashEvery, cfg.OpsPerShard)
	}
	if h.Recoveries < h.Crashes {
		t.Errorf("recoveries (%d) < crashes (%d)", h.Recoveries, h.Crashes)
	}
	if h.Metrics == nil || h.Metrics.Counters["serve/recoveries"] != uint64(h.Recoveries) {
		t.Errorf("serve-layer metrics missing or inconsistent with health rollup")
	}
	for i, sh := range rep.Shards {
		ref, refReg := reference(t, cfg, i)
		assertBitIdentical(t, sh, ref, refReg)
	}
}

// TestServeCorruptRingFallback corrupts EVERY cadence checkpoint on
// disk (SnapCorrupt=1): each recovery must detect the corruption via
// the container CRCs, fall back through the ring, land on the pressure-
// free baseline entry, and still finish bit-identical.
func TestServeCorruptRingFallback(t *testing.T) {
	cfg := Config{
		Shards:          1,
		Seed:            0xfa11,
		Soak:            soakTemplate(),
		OpsPerShard:     600,
		CheckpointEvery: 100,
		Ring:            8,
		CrashEvery:      200,
		BackoffBase:     time.Nanosecond,
		Pressure:        chaos.PressureConfig{SnapCorrupt: 1.0},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := rep.Health
	if h.Quarantined != 0 || h.Drained != 1 {
		t.Fatalf("shard not drained: %+v", rep.Shards[0].Health)
	}
	if h.Crashes == 0 || h.Recoveries == 0 {
		t.Fatalf("expected injected crashes and recoveries, got %d/%d", h.Crashes, h.Recoveries)
	}
	if h.RingFallbacks == 0 {
		t.Errorf("every checkpoint was corrupted yet no ring fallback was counted")
	}
	if h.CorruptedCheckpoints == 0 {
		t.Errorf("pressure corrupted no checkpoints at probability 1")
	}
	ref, refReg := reference(t, cfg, 0)
	assertBitIdentical(t, rep.Shards[0], ref, refReg)
}

// TestServePanicIsolation injects a worker panic at an op boundary via
// the test hook: the panic must become a typed ShardFailure (never
// process death), answered by a checkpoint recovery, and the shard must
// still finish bit-identical to the reference.
func TestServePanicIsolation(t *testing.T) {
	fired := false
	cfg := Config{
		Shards:          1,
		Seed:            0xb00f,
		Soak:            soakTemplate(),
		OpsPerShard:     600,
		CheckpointEvery: 100,
		Ring:            8,
		BackoffBase:     time.Nanosecond,
		hook: func(shard, op int) {
			if op == 151 && !fired {
				fired = true
				panic("injected worker panic")
			}
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sh := rep.Shards[0]
	if sh.Health.PanicFailures != 1 {
		t.Fatalf("PanicFailures = %d, want 1", sh.Health.PanicFailures)
	}
	if sh.Health.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1 (the panic recovery)", sh.Health.Recoveries)
	}
	if sh.Health.State != Drained {
		t.Fatalf("state = %v, want drained", sh.Health.State)
	}
	if !strings.Contains(sh.Health.LastError, "injected worker panic") {
		t.Errorf("LastError does not carry the panic value: %q", sh.Health.LastError)
	}
	ref, refReg := reference(t, cfg, 0)
	assertBitIdentical(t, sh, ref, refReg)
}

// TestServeQuarantineAfterRetries destroys the shard's entire ring from
// inside a panicking hook: every recovery attempt must fail, walk the
// deterministic backoff schedule, and escalate to quarantine after
// MaxRetries consecutive failures — with the failure preserved for
// post-mortem and the process alive.
func TestServeQuarantineAfterRetries(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Shards:          1,
		Seed:            0xdead,
		Soak:            soakTemplate(),
		OpsPerShard:     600,
		CheckpointEvery: 100,
		Ring:            8,
		RingDir:         dir,
		MaxRetries:      3,
		BackoffBase:     time.Nanosecond,
		hook: func(shard, op int) {
			if op == 250 {
				snaps, _ := filepath.Glob(filepath.Join(dir, "shard0-*.snap"))
				for _, p := range snaps {
					os.WriteFile(p, []byte("not a snapshot"), 0o644)
				}
				panic("ring destroyed")
			}
		},
	}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sh := rep.Shards[0]
	if sh.Health.State != Quarantined {
		t.Fatalf("state = %v, want quarantined", sh.Health.State)
	}
	if sh.Result != nil {
		t.Errorf("quarantined shard sealed a result")
	}
	if sh.Health.RecoveryFailures < cfg.MaxRetries {
		t.Errorf("RecoveryFailures = %d, want >= %d", sh.Health.RecoveryFailures, cfg.MaxRetries)
	}
	if sh.Health.Retries != cfg.MaxRetries-1 {
		t.Errorf("Retries = %d, want %d (backoff sleeps before quarantine)", sh.Health.Retries, cfg.MaxRetries-1)
	}
	if !strings.Contains(sh.Health.LastError, "quarantined") {
		t.Errorf("LastError does not name the quarantine: %q", sh.Health.LastError)
	}
	if rep.Health.Quarantined != 1 {
		t.Errorf("fleet health quarantined = %d, want 1", rep.Health.Quarantined)
	}
	if got := rep.Metrics.Counter("serve/quarantines"); got != 1 {
		t.Errorf("serve/quarantines = %d, want 1", got)
	}
}

// TestServeDrainOnCancel cancels an unbounded run mid-flight: every
// shard must drain gracefully — final checkpoint appended, result
// sealed — exactly as the SIGTERM path does.
func TestServeDrainOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sink := make(chan *Health, 64)
	cfg := Config{
		Shards:      2,
		Seed:        0xca7,
		Soak:        soakTemplate(),
		HealthEvery: 5 * time.Millisecond,
		HealthSink:  func(h *Health) { sink <- h },
	}
	// Cancel once every shard has visibly made progress (a fixed sleep is
	// flaky under -race, where shard boot alone can take tens of ms); the
	// deadline is a backstop so a stuck run cannot hang the test.
	go func() {
		deadline := time.After(5 * time.Second)
		for {
			select {
			case h := <-sink:
				progressed := len(h.Shards) == cfg.Shards
				for _, sh := range h.Shards {
					if sh.Ops == 0 {
						progressed = false
					}
				}
				if progressed {
					cancel()
					return
				}
			case <-deadline:
				cancel()
				return
			}
		}
	}()
	rep, err := Run(ctx, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.Health.Drained != 2 {
		t.Fatalf("drained = %d, want 2: %+v", rep.Health.Drained, rep.Health)
	}
	for _, sh := range rep.Shards {
		if sh.Result == nil {
			t.Errorf("shard %d: cancelled shard sealed no result", sh.Shard)
		}
		if sh.Health.Ops == 0 {
			t.Errorf("shard %d: made no progress before cancel", sh.Shard)
		}
		// Baseline plus the drain checkpoint, at minimum.
		if sh.Health.CheckpointWrites < 2 {
			t.Errorf("shard %d: %d checkpoint writes, want >= 2 (baseline + drain)", sh.Shard, sh.Health.CheckpointWrites)
		}
	}
	if len(sink) == 0 {
		t.Errorf("health sink received no reports")
	}
}

// TestHealthJSON pins the health report's shape: schema tag, state
// names, and stable rendering.
func TestHealthJSON(t *testing.T) {
	h := buildHealth(7, []ShardHealth{
		{Shard: 0, Seed: 7, State: Running},
		{Shard: 1, Seed: 8, State: Quarantined, LastError: "gone"},
	}, metrics.New())
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("health JSON does not parse: %v", err)
	}
	if m["schema"] != HealthSchema {
		t.Errorf("schema = %v, want %q", m["schema"], HealthSchema)
	}
	shards := m["shards"].([]any)
	if st := shards[0].(map[string]any)["state"]; st != "running" {
		t.Errorf("state rendered as %v, want running", st)
	}
	if st := shards[1].(map[string]any)["state"]; st != "quarantined" {
		t.Errorf("state rendered as %v, want quarantined", st)
	}
	if m["quarantined"].(float64) != 1 || m["running"].(float64) != 1 {
		t.Errorf("state rollups wrong: %v", buf.String())
	}
}

// TestBackoffSchedule pins the deterministic, jitter-free retry curve
// the supervisor sleeps on, with a configured base and cap surviving
// normalization.
func TestBackoffSchedule(t *testing.T) {
	cfg := Config{BackoffBase: 10 * time.Millisecond, BackoffCap: 60 * time.Millisecond}.normalized()
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond,
		60 * time.Millisecond, 60 * time.Millisecond,
	}
	for i, w := range want {
		if got := par.Backoff(cfg.BackoffBase, cfg.BackoffCap, i+1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}
