package snapshot_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdom/internal/chaos"
	"vdom/internal/metrics"
	"vdom/internal/replay"
	"vdom/internal/snapshot"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// soakCfg is the shared crash-soak configuration: every fault class
// enabled, small enough to run each crash kind under -race.
func soakCfg(seed uint64) chaos.SoakConfig {
	return chaos.SoakConfig{
		Chaos: chaos.Config{
			Seed:           seed,
			DropIPI:        0.05,
			DelayIPI:       0.05,
			StaleTLB:       0.03,
			ASIDExhaustion: 0.02,
			ASIDLimit:      tlb.ASID(24),
			VDSAllocFail:   0.10,
			PdomExhaustion: 0.05,
			SpuriousFault:  0.02,
		},
		Ops:    600,
		Record: true,
	}
}

// TestCrashRecoverBitIdentical is the tentpole acceptance check: for
// each crash kind, checkpoint → crash → watchdog/audit detection →
// restore + tail replay must yield a run whose trace (end state, final
// clock, and domain-map digest included) is byte-identical to the
// uninterrupted run of the same seed, with identical fault counters and
// metrics. The DPTI rows run the same driver on the DPTI kernel (its
// machine/kernel fault subset). DPTI has no domain map to tear, so its
// torn-domain-map strike falls back to a residency wipe and the
// watchdog, not the auditor, must detect it.
func TestCrashRecoverBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		kernel     string
		kind       chaos.CrashKind
		detectedBy string
	}{
		{"vdom", chaos.CrashCore, "watchdog"},
		{"vdom", chaos.CrashKernelPanic, "watchdog"},
		{"vdom", chaos.CrashTornDomainMap, "audit"},
		{"dpti", chaos.CrashCore, "watchdog"},
		{"dpti", chaos.CrashKernelPanic, "watchdog"},
		{"dpti", chaos.CrashTornDomainMap, "watchdog"},
	} {
		kind, name := tc.kind, tc.kind.String()
		if tc.kernel != "vdom" {
			name = tc.kernel + "/" + name
		}
		cfgFor := func(seed uint64) chaos.SoakConfig {
			cfg := soakCfg(seed)
			cfg.Kernel = tc.kernel
			if tc.kernel == "dpti" {
				cfg.Chaos.VDSAllocFail, cfg.Chaos.PdomExhaustion = 0, 0
			}
			return cfg
		}
		t.Run(name, func(t *testing.T) {
			seed := uint64(0x5eed + kind)
			refCfg := cfgFor(seed)
			refMetrics := metrics.New()
			refCfg.Metrics = refMetrics
			ref := chaos.Soak(refCfg)
			if len(ref.Unrecovered) != 0 || len(ref.Violations) != 0 {
				t.Fatalf("reference run unhealthy: %d unrecovered, %d violations", len(ref.Unrecovered), len(ref.Violations))
			}

			crashCfg := cfgFor(seed)
			crashMetrics := metrics.New()
			crashCfg.Metrics = crashMetrics
			out, err := chaos.CrashSoak(crashCfg, chaos.CrashConfig{Kind: kind, AtOp: 351, CheckpointEvery: 100})
			if err != nil {
				t.Fatalf("CrashSoak: %v", err)
			}
			if out.DetectedBy != tc.detectedBy {
				t.Errorf("%s detected by %q, want %q", kind, out.DetectedBy, tc.detectedBy)
			}
			if out.TailEvents == 0 {
				t.Errorf("recovery replayed no tail events")
			}
			if out.CheckpointOp != 300 {
				t.Errorf("recovered from checkpoint at op %d, want 300", out.CheckpointOp)
			}
			if len(out.PostViolations) != 0 {
				t.Errorf("recovered system failed audit: %v", out.PostViolations)
			}
			res := out.Result
			if len(res.Unrecovered) != 0 || len(res.Violations) != 0 {
				t.Fatalf("crash run unhealthy: %v %v", res.Unrecovered, res.Violations)
			}

			refBytes := replay.Encode(ref.Trace)
			gotBytes := replay.Encode(res.Trace)
			if !bytes.Equal(refBytes, gotBytes) {
				t.Fatalf("recovered trace differs from uninterrupted run (%d vs %d bytes)", len(gotBytes), len(refBytes))
			}
			for k, v := range ref.Trace.End {
				if res.Trace.End[k] != v {
					t.Errorf("end state %q: recovered %d, uninterrupted %d", k, res.Trace.End[k], v)
				}
			}
			if fmt.Sprint(ref.Injected) != fmt.Sprint(res.Injected) ||
				fmt.Sprint(ref.Recovered) != fmt.Sprint(res.Recovered) {
				t.Errorf("fault counters diverged:\nref %v %v\ngot %v %v", ref.Injected, ref.Recovered, res.Injected, res.Recovered)
			}

			var refJSON, gotJSON bytes.Buffer
			if err := refMetrics.WriteJSON(&refJSON); err != nil {
				t.Fatal(err)
			}
			if err := crashMetrics.WriteJSON(&gotJSON); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(refJSON.Bytes(), gotJSON.Bytes()) {
				t.Errorf("metrics snapshots differ across recovery")
			}
		})
	}
}

// TestCrashRecoverDirtyBoundary strikes every crash kind at an op
// boundary where dropped-shootdown staleness is legitimately in flight:
// the live audit just before the crash is non-empty. A faithful restore
// reproduces that staleness, so recovery must succeed with a
// post-recovery audit equal to the pre-crash one, and the run must stay
// byte-identical to the uninterrupted soak.
func TestCrashRecoverDirtyBoundary(t *testing.T) {
	const atOp = 1337
	cfg := soakCfg(42)
	cfg.Ops = 3000
	ref := chaos.Soak(cfg)

	pre := chaos.StartSoak(cfg)
	for pre.NextOp() < atOp {
		pre.Step()
	}
	before := pre.AuditNow()
	if len(before) == 0 {
		t.Fatalf("pre-crash audit at op %d is clean; the dirty boundary is not exercised", atOp)
	}

	for _, kind := range []chaos.CrashKind{chaos.CrashCore, chaos.CrashKernelPanic, chaos.CrashTornDomainMap} {
		t.Run(kind.String(), func(t *testing.T) {
			out, err := chaos.CrashSoak(cfg, chaos.CrashConfig{Kind: kind, AtOp: atOp})
			if err != nil {
				t.Fatalf("CrashSoak: %v", err)
			}
			if fmt.Sprint(out.PostViolations) != fmt.Sprint(before) {
				t.Errorf("post-recovery audit differs from the pre-crash audit:\ngot  %v\nwant %v", out.PostViolations, before)
			}
			if !bytes.Equal(replay.Encode(out.Result.Trace), replay.Encode(ref.Trace)) {
				t.Errorf("recovered trace differs from the uninterrupted soak")
			}
		})
	}
}

// TestSnapshotContainerRoundTrip checks the container codec alone:
// sections, order, meta, and payloads all survive Encode/Decode.
func TestSnapshotContainerRoundTrip(t *testing.T) {
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 2},
		Clock:  12345, EventIndex: 42,
	}}
	st.AddSection("alpha", []byte("hello"))
	st.AddSection("beta", nil)
	got, err := snapshot.Decode(snapshot.Encode(st))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Meta.Clock != 12345 || got.Meta.EventIndex != 42 || got.Meta.Header.Cores != 2 {
		t.Errorf("meta mismatch: %+v", got.Meta)
	}
	if len(got.Sections) != 2 || got.Sections[0].Name != "alpha" || string(got.Sections[0].Data) != "hello" {
		t.Errorf("sections mismatch: %+v", got.Sections)
	}
	if d, ok := got.Section("beta"); !ok || len(d) != 0 {
		t.Errorf("beta section lost")
	}
}

// TestDecodeTypedErrors pins each decode failure mode to its sentinel.
func TestDecodeTypedErrors(t *testing.T) {
	st := &snapshot.State{Meta: snapshot.Meta{Clock: 7}}
	st.AddSection("x", []byte("payload"))
	valid := snapshot.Encode(st)

	if _, err := snapshot.Decode([]byte("nope")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}
	bad := append([]byte(nil), valid...)
	bad[4] = 99 // version varint
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrBadVersion) {
		t.Errorf("bad version: got %v", err)
	}
	bad[4] = 1 // vdom-snap/v1 (gob payloads): no longer read
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrBadVersion) {
		t.Errorf("v1 container: got %v", err)
	}
	if _, err := snapshot.Decode(valid[:len(valid)-3]); !errors.Is(err, snapshot.ErrTruncated) {
		t.Errorf("truncated: got %v", err)
	}
	bad = append([]byte(nil), valid...)
	bad[len(bad)-1] ^= 0xff // last payload byte
	if _, err := snapshot.Decode(bad); !errors.Is(err, snapshot.ErrBadChecksum) {
		t.Errorf("bad checksum: got %v", err)
	}
	if _, err := snapshot.Decode(append(append([]byte(nil), valid...), 0xaa)); !errors.Is(err, snapshot.ErrBadRecord) {
		t.Errorf("trailing bytes: got %v", err)
	}
}

// FuzzSnapshotDecode asserts Decode never panics, whatever the input.
func FuzzSnapshotDecode(f *testing.F) {
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 1},
		Clock:  99, EventIndex: 3,
	}}
	st.AddSection("chaos/injector", []byte{1, 2, 3, 4})
	valid := snapshot.Encode(st)
	f.Add(valid)
	for _, n := range []int{0, 3, 4, 5, len(valid) / 2, len(valid) - 1} {
		if n <= len(valid) {
			f.Add(valid[:n])
		}
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)/2] ^= 0x40
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := snapshot.Decode(data)
		if err == nil && st == nil {
			t.Fatal("nil state with nil error")
		}
	})
}

// BenchmarkCheckpoint measures full-System capture+encode throughput in
// snapshot bytes per second.
func BenchmarkCheckpoint(b *testing.B) {
	s := chaos.StartSoak(soakCfg(7))
	for i := 0; i < 500; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures decode+restore throughput in snapshot bytes
// per second (no tail replay).
func BenchmarkRestore(b *testing.B) {
	s := chaos.StartSoak(soakCfg(7))
	for i := 0; i < 500; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := snapshot.Decode(snap)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := snapshot.Restore(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTailRecovery measures the full recovery path — decode,
// restore, and trace-tail replay — reporting replayed events per second.
func BenchmarkTailRecovery(b *testing.B) {
	cfg := soakCfg(7)
	s := chaos.StartSoak(cfg)
	for i := 0; i < 300; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	for s.NextOp() <= cfg.Ops {
		s.Step()
	}
	var events int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := s.Recover(snap)
		if err != nil {
			b.Fatal(err)
		}
		events += rec.TailEvents
	}
	b.StopTimer()
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// TestRestoreNamesSectionAndOffset pins the restore-error contract: a
// section whose payload passes the CRC but is cut short — at every
// prefix length — must fail with an error that names the section,
// carries its container offset, and stays errors.Is-matchable against
// ErrBadRecord and the wire error underneath. It covers every section of
// a mid-soak VDom checkpoint; the libmpk, EPK and DPTI sections are
// covered by the backend conformance suite's TestConformanceSnapshotTruncation.
func TestRestoreNamesSectionAndOffset(t *testing.T) {
	cfg := soakCfg(11)
	s := chaos.StartSoak(cfg)
	for i := 0; i < 50; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for s.NextOp() <= cfg.Ops {
		s.Step()
	}
	tail := s.Finish().Trace
	restore := func(cut []byte) error {
		st, err := snapshot.Decode(cut)
		if err != nil {
			t.Fatalf("cut container must still decode (CRC-valid), got %v", err)
		}
		_, _, err = snapshot.Restore(st)
		return err
	}
	for _, name := range []string{"mm/as", "kernel", "hw/machine", "core/manager", chaos.InjectorSection} {
		t.Run(name, func(t *testing.T) {
			run := restore
			if name == chaos.InjectorSection {
				// Restore leaves the injector to the crash harness, whose
				// recovery decodes it before touching the System.
				run = func(cut []byte) error {
					_, err := chaos.RecoverFromArtifacts(cut, tail)
					return err
				}
			}
			checkSectionPrefixes(t, snap, name, run)
		})
	}
}

// checkSectionPrefixes cuts the named section of an encoded snapshot to
// every proper prefix, re-encodes (so the CRC covers the cut payload),
// and requires run to reject each with an ErrBadRecord that names the
// section and its container offset and wraps a wire error.
func checkSectionPrefixes(t *testing.T, snap []byte, name string, run func(cut []byte) error) {
	t.Helper()
	st, err := snapshot.Decode(snap)
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i := range st.Sections {
		if st.Sections[i].Name == name {
			idx = i
		}
	}
	if idx < 0 || len(st.Sections[idx].Data) == 0 {
		t.Fatalf("section %q missing or empty", name)
	}
	full := st.Sections[idx].Data
	for n := 0; n < len(full); n++ {
		st.Sections[idx].Data = full[:n]
		cut := snapshot.Encode(st)
		dec, err := snapshot.Decode(cut)
		if err != nil {
			t.Fatalf("prefix %d: cut container must still decode (CRC-valid), got %v", n, err)
		}
		off := dec.Sections[idx].Offset
		rerr := run(cut)
		switch {
		case rerr == nil:
			t.Fatalf("prefix %d/%d of %q restored successfully", n, len(full), name)
		case !errors.Is(rerr, snapshot.ErrBadRecord) || !errors.Is(rerr, wire.ErrTruncated) && !errors.Is(rerr, wire.ErrBadRecord):
			t.Fatalf("prefix %d: errors.Is(%v, ErrBadRecord and a wire error) = false", n, rerr)
		case !strings.Contains(rerr.Error(), fmt.Sprintf("section %q at offset %d", name, off)):
			t.Fatalf("prefix %d: error does not name section %q at offset %d: %v", n, name, off, rerr)
		}
	}
}

// BenchmarkRingAppend measures the atomic checkpoint append (write,
// fsync, rename, prune) at steady state.
func BenchmarkRingAppend(b *testing.B) {
	s := chaos.StartSoak(soakCfg(13))
	for i := 0; i < 100; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	r, err := snapshot.NewRing(b.TempDir(), "bench", 4)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Append(i, snap); err != nil {
			b.Fatal(err)
		}
	}
}
