package chaos

import (
	"errors"
	"reflect"
	"testing"

	"vdom/internal/replay"
)

func soakCfg(seed uint64) SoakConfig {
	return SoakConfig{
		Chaos: Config{
			Seed: seed, DropIPI: 0.05, DelayIPI: 0.05, StaleTLB: 0.03,
			ASIDExhaustion: 0.02, ASIDLimit: 24, VDSAllocFail: 0.10,
			PdomExhaustion: 0.05, SpuriousFault: 0.02,
		},
		Ops:    800,
		Record: true,
	}
}

// TestSoakRecordReplay drives a fault-heavy soak with recording on, on
// every kernel the soak drives, and replays the trace: the injector
// rebuilt from the header must produce the identical fault stream, so
// the replay matches cycle-for-cycle.
func TestSoakRecordReplay(t *testing.T) {
	for _, kern := range []string{replay.KernelVDom, replay.KernelDPTI} {
		t.Run(kern, func(t *testing.T) {
			cfg := soakCfg(7)
			cfg.Kernel = kern
			if kern == replay.KernelDPTI {
				cfg.Chaos = dptiFaults(7)
			}
			res := Soak(cfg)
			if res.Trace == nil {
				t.Fatal("Record was set but SoakResult.Trace is nil")
			}
			if len(res.Trace.Events) == 0 {
				t.Fatal("recording captured no events")
			}
			if res.Trace.Header.Workload != SoakWorkload || res.Trace.Header.Kernel != kern {
				t.Fatalf("header workload/kernel = %q/%q, want %q/%q",
					res.Trace.Header.Workload, res.Trace.Header.Kernel, SoakWorkload, kern)
			}

			// The trace must survive the binary codec (this is what gets
			// dumped to disk for CI artifacts).
			dec, err := replay.Decode(replay.Encode(res.Trace))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			rr, err := ReplayTrace(dec, replay.Options{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rr.Divergence != nil {
				t.Fatalf("replay diverged: %s", rr.Divergence)
			}
			if rr.Cycles != res.Trace.End["clock"] {
				t.Fatalf("replayed clock %d != recorded %d", rr.Cycles, res.Trace.End["clock"])
			}
			if rr.Events != len(res.Trace.Events) {
				t.Fatalf("replayed %d of %d events", rr.Events, len(res.Trace.Events))
			}
		})
	}
}

// TestSoakReplayWithoutInjectorDiverges is the negative control: the
// same trace replayed bare (no injector) must not silently pass — the
// faults the recording absorbed are gone, so costs shift.
func TestSoakReplayWithoutInjectorDiverges(t *testing.T) {
	res := Soak(soakCfg(7))
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	rr, err := replay.Run(res.Trace, replay.Options{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rr.Divergence == nil {
		t.Fatal("replay without the injector reported no divergence; the fault stream had no observable effect")
	}
}

// TestFailTrace checks the minimal-reproducer extraction rules.
func TestFailTrace(t *testing.T) {
	res := Soak(soakCfg(7))
	if len(res.Unrecovered) != 0 {
		t.Fatalf("expected a healthy run, got %d unrecovered ops", len(res.Unrecovered))
	}
	if ft := res.FailTrace(); ft != nil {
		t.Fatalf("healthy run produced a fail trace (%d events)", len(ft.Events))
	}

	// Synthesize a failure mid-run: the reproducer is the prefix.
	res.Unrecovered = append(res.Unrecovered, "op 3: synthetic")
	res.FirstFailEvent = 5
	ft := res.FailTrace()
	if ft == nil || len(ft.Events) != 5 {
		t.Fatalf("fail trace = %v, want 5-event prefix", ft)
	}
	if ft.End != nil {
		t.Fatal("truncated fail trace must not carry an end state")
	}
}

// TestReplayTraceRoutesByConfig pins ReplayTrace's one routing rule: a
// recording whose header carries no injector config replays exactly as
// replay.Run does, except a chaos-soak recording, which must carry one
// and is refused rather than replayed with no injector.
func TestReplayTraceRoutesByConfig(t *testing.T) {
	res := Soak(SoakConfig{Chaos: Config{Seed: 99}, Ops: 300, Record: true})
	plain := *res.Trace
	plain.Header.Extra = nil
	plain.Header.Workload = "plain"
	got, err := ReplayTrace(&plain, replay.Options{})
	if err != nil {
		t.Fatalf("ReplayTrace(plain): %v", err)
	}
	want, err := replay.Run(&plain, replay.Options{})
	if err != nil {
		t.Fatalf("replay.Run(plain): %v", err)
	}
	if got.Divergence != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("plain trace: ReplayTrace = %+v, replay.Run = %+v", got, want)
	}

	bare := plain
	bare.Header.Workload = SoakWorkload
	if _, err := ReplayTrace(&bare, replay.Options{}); !errors.Is(err, replay.ErrBadRecord) {
		t.Fatalf("chaos-soak trace with no injector config: err = %v, want ErrBadRecord", err)
	}
}
