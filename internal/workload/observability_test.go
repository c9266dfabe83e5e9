package workload

import (
	"bytes"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/metrics"
)

// TestMetricsAttributionExact is the observability layer's core
// invariant: for every Table 4 system and pattern, the registry's
// per-(layer, op) cycle attribution sums to exactly the harness's
// independently measured grand total — nothing double-counted, nothing
// dropped.
func TestMetricsAttributionExact(t *testing.T) {
	for _, sys := range []PatternSystem{
		PatternVDomSecure, PatternVDomFast, PatternVDomEvict,
		PatternLibmpk, PatternEPK, PatternDPTI,
	} {
		for _, pat := range []Pattern{Sequential, SwitchTriggering} {
			reg := metrics.New()
			res := RunPattern(PatternConfig{
				Arch: cycles.X86, System: sys, Pattern: pat,
				NumVdoms: 20, Rounds: 3, Metrics: reg,
			})
			if res.TotalCycles == 0 {
				t.Errorf("%v/%v: zero total", sys, pat)
			}
			if reg.TotalCycles() != res.TotalCycles {
				t.Errorf("%v/%v: registry attributes %d cycles, harness measured %d (diff %d)",
					sys, pat, reg.TotalCycles(), res.TotalCycles,
					int64(reg.TotalCycles())-int64(res.TotalCycles))
			}
			if err := reg.Snapshot().CheckConsistency(); err != nil {
				t.Errorf("%v/%v: %v", sys, pat, err)
			}
		}
	}
}

// TestPatternMetricsOffUnchanged: attaching a registry must observe, not
// perturb — the measured averages are identical with metrics on and off.
func TestPatternMetricsOffUnchanged(t *testing.T) {
	cfg := PatternConfig{Arch: cycles.X86, System: PatternVDomSecure,
		Pattern: SwitchTriggering, NumVdoms: 16, Rounds: 3}
	off := RunPattern(cfg)
	cfg.Metrics = metrics.New()
	cfg.Trace = metrics.NewTrace()
	on := RunPattern(cfg)
	if off.AvgCycles != on.AvgCycles || off.AvgTouchCycles != on.AvgTouchCycles ||
		off.Activations != on.Activations || off.TotalCycles != on.TotalCycles {
		t.Errorf("metrics changed results: off=%+v on=%+v", off, on)
	}
}

// TestPatternObservabilityDeterministic: two identical runs produce
// byte-identical snapshot and trace JSON.
func TestPatternObservabilityDeterministic(t *testing.T) {
	run := func() ([]byte, []byte) {
		reg := metrics.New()
		tr := metrics.NewTrace()
		RunPattern(PatternConfig{Arch: cycles.X86, System: PatternVDomFast,
			Pattern: SwitchTriggering, NumVdoms: 20, Rounds: 3,
			Metrics: reg, Trace: tr})
		var m, j bytes.Buffer
		if err := reg.WriteJSON(&m); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return m.Bytes(), j.Bytes()
	}
	m1, t1 := run()
	m2, t2 := run()
	if !bytes.Equal(m1, m2) {
		t.Error("metrics snapshots differ between identical runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Error("traces differ between identical runs")
	}
	if len(t1) == 0 || !bytes.Contains(t1, []byte("traceEvents")) {
		t.Error("trace output empty or malformed")
	}
}

// TestHttpdSimTrace: the discrete-event scheduler's timeline reaches the
// trace sink, deterministically.
func TestHttpdSimTrace(t *testing.T) {
	run := func() []byte {
		tr := metrics.NewTrace()
		RunHttpd(HttpdConfig{Arch: cycles.X86, System: VDom, Clients: 2,
			RequestsPerClient: 2, Trace: tr})
		var b bytes.Buffer
		if err := tr.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	b1 := run()
	if !bytes.Contains(b1, []byte("httpd-worker-0")) {
		t.Error("no scheduler spans for httpd workers in trace")
	}
	if !bytes.Equal(b1, run()) {
		t.Error("httpd sim trace not deterministic")
	}
}
