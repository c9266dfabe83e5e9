package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vdom/internal/chaos"
)

// BenchmarkRollingCheckpoint measures the supervised checkpoint path —
// snapshot capture + encode + atomic ring append with pruning — at
// steady state, across ring capacities.
func BenchmarkRollingCheckpoint(b *testing.B) {
	for _, ringCap := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("ring%d", ringCap), func(b *testing.B) {
			cfg := Config{
				Shards:      1,
				Seed:        1,
				Soak:        soakTemplate(),
				OpsPerShard: 1 << 20,
				Ring:        ringCap,
				RingDir:     b.TempDir(),
			}.normalized()
			s, err := newSupervisor(cfg, cfg.RingDir, 0)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 300; i++ {
				s.soak.Step()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.checkpoint(300)
			}
			b.StopTimer()
			if s.h.CheckpointWriteFails != 0 {
				b.Fatalf("%d checkpoint writes failed", s.h.CheckpointWriteFails)
			}
		})
	}
}

// BenchmarkSupervisedRecovery measures the full supervised recovery —
// ring walk, decode, restore, injector re-arm, tail replay, re-audit,
// watchdog re-arm — from a mid-run crash.
func BenchmarkSupervisedRecovery(b *testing.B) {
	cfg := Config{
		Shards:      1,
		Seed:        2,
		Soak:        soakTemplate(),
		OpsPerShard: 1 << 20,
		Ring:        4,
		RingDir:     b.TempDir(),
		BackoffBase: time.Nanosecond,
	}.normalized()
	s, err := newSupervisor(cfg, cfg.RingDir, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		s.soak.Step()
	}
	s.checkpoint(300)
	for i := 0; i < 100; i++ {
		s.soak.Step()
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.soak.Crash(chaos.CrashKernelPanic)
		s.recover(ctx, s.soak.AuditNow())
	}
	b.StopTimer()
	if s.state() != Running || s.h.RecoveryFailures != 0 {
		b.Fatalf("recovery unhealthy: state %v, %d failures", s.state(), s.h.RecoveryFailures)
	}
	if b.Elapsed() > 0 && b.N > 0 {
		b.ReportMetric(float64(s.h.TailEvents)/float64(b.N), "tail-events/op")
	}
}
