package workload

import (
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/metrics"
	"vdom/internal/replay"
)

// TestRecordPatternRows pins the Table 4 rows the golden-trace corpus
// does not record — the fast and evicting VDom rows, the projected POWER
// row, DPTI on ARM, and every ablation knob — under both access
// patterns. Each row runs with a metrics registry and a Chrome trace
// attached (observation must not perturb the result), must reproduce
// its exact activation count and cycle totals, and must replay from its
// patternHeader recording with zero divergence and a replayed clock
// equal to the harness's TotalCycles.
func TestRecordPatternRows(t *testing.T) {
	type want struct {
		activations int
		total       uint64
		avg, touch  float64
	}
	rows := []struct {
		name string
		cfg  PatternConfig
		seq  want
		trig want
	}{
		{"vdom-fast-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomFast},
			want{40, 41217, 114, 17}, want{40, 70797, 339, 82}},
		{"vdom-evict-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomEvict},
			want{40, 161601, 1123.8, 164}, want{40, 161601, 1123.8, 164}},
		{"vdom-evict-arm", PatternConfig{Arch: cycles.ARM, System: PatternVDomEvict},
			want{40, 310148, 1828, 244}, want{40, 310148, 1828, 244}},
		{"vdom-secure-power", PatternConfig{Arch: cycles.Power, System: PatternVDomSecure},
			want{40, 90759, 270, 4}, want{40, 90759, 270, 4}},
		{"dpti-arm", PatternConfig{Arch: cycles.ARM, System: PatternDPTI},
			want{40, 656100, 435, 154}, want{40, 656100, 435, 154}},
		{"vdom-noasid-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomSecure, NoASID: true},
			want{40, 67292, 149, 199}, want{40, 108092, 374, 374}},
		{"dpti-noasid-x86", PatternConfig{Arch: cycles.X86, System: PatternDPTI, NoASID: true},
			want{40, 460166, 310, 514}, want{40, 460166, 310, 514}},
		{"vdom-strictlru-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomEvict, StrictLRU: true},
			want{40, 334321, 2851, 164}, want{40, 317629, 2851, 164}},
		{"vdom-nopmdopt-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomEvict, NoPMDOpt: true},
			want{40, 277395, 2226.6, 164}, want{40, 277395, 2226.6, 164}},
		// The flush threshold only matters once evictions take the
		// page-by-page path, so this row also disables the PMD fast path.
		{"vdom-flush1024-x86", PatternConfig{Arch: cycles.X86, System: PatternVDomEvict, NoPMDOpt: true, FlushThresholdPages: 1024},
			want{40, 371495, 3174.6, 100}, want{40, 371495, 3174.6, 100}},
	}
	for _, r := range rows {
		for _, p := range []Pattern{Sequential, SwitchTriggering} {
			w := r.seq
			if p == SwitchTriggering {
				w = r.trig
			}
			cfg := r.cfg
			cfg.Pattern, cfg.NumVdoms, cfg.Rounds = p, 20, 2
			name := r.name + "-" + p.String()
			t.Run(name, func(t *testing.T) {
				rec := replay.NewRecorder(patternHeader(cfg, name))
				run := cfg
				run.Metrics, run.Trace, run.Record = metrics.New(), metrics.NewTrace(), rec
				got := RunPattern(run)
				if got.Activations != w.activations || got.TotalCycles != w.total ||
					got.AvgCycles != w.avg || got.AvgTouchCycles != w.touch {
					t.Errorf("got (activations %d, total %d, avg %v, touch %v), want (%d, %d, %v, %v)",
						got.Activations, got.TotalCycles, got.AvgCycles, got.AvgTouchCycles,
						w.activations, w.total, w.avg, w.touch)
				}
				res, err := replay.Run(rec.Finish(), replay.Options{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if res.Divergence != nil {
					t.Fatalf("replay diverged: %s", res.Divergence)
				}
				if res.Cycles != got.TotalCycles {
					t.Errorf("replayed clock %d, harness total %d", res.Cycles, got.TotalCycles)
				}
			})
		}
	}
}
