package workload

import (
	"errors"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/metrics"
	"vdom/internal/replay"
	"vdom/internal/tap"
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

// TestAppRecordReplaysOwnHeader records every httpd, PMO and MySQL run
// under every System through the run's own header and replays it: a
// supported combination must replay with no divergence, so the header
// describes exactly the platform the run booted. Original has no domain
// backend and refuses a recording up front; MySQL's single-domain
// lowerbound is not modelled and reports Supported: false.
func TestAppRecordReplaysOwnHeader(t *testing.T) {
	// Each app runs one small configuration under sys, recording through
	// record(its header); it reports whether the combination is
	// supported.
	apps := []struct {
		name string
		run  func(sys System, record func(replay.Header) *replay.Recorder) bool
	}{
		{"httpd", func(sys System, record func(replay.Header) *replay.Recorder) bool {
			cfg := HttpdConfig{Arch: cycles.X86, System: sys, Clients: 4, RequestsPerClient: 2, Workers: 4, Cores: 4}
			cfg.Record = record(httpdHeader(cfg, "httpd"))
			RunHttpd(cfg)
			return true
		}},
		{"pmo", func(sys System, record func(replay.Header) *replay.Recorder) bool {
			cfg := PMOConfig{Arch: cycles.X86, System: sys, Threads: 2, OpsPerThread: 40, NumPMOs: 8, Cores: 4}
			cfg.Record = record(pmoHeader(cfg, "pmo"))
			RunPMO(cfg)
			return true
		}},
		{"mysql", func(sys System, record func(replay.Header) *replay.Recorder) bool {
			cfg := MySQLConfig{Arch: cycles.X86, System: sys, Clients: 2, QueriesPerClient: 4, StatementsPerQuery: 6, Cores: 2}
			cfg.Record = record(mysqlHeader(cfg, "mysql"))
			return RunMySQL(cfg).Supported
		}},
	}
	for _, app := range apps {
		for _, sys := range []System{Original, VDom, EPK, Libmpk, VDomLowerbound} {
			t.Run(app.name+"-"+sys.String(), func(t *testing.T) {
				var rec *replay.Recorder
				record := func(h replay.Header) *replay.Recorder {
					rec = replay.NewRecorder(h)
					return rec
				}
				if sys == Original {
					defer func() {
						r := recover()
						if r == nil {
							return // the run was not refused: reported below
						}
						if err, _ := r.(error); !errors.Is(err, ErrUnrecordable) {
							t.Fatalf("recording an original run: recovered %v, want ErrUnrecordable", r)
						}
						if rec.Len() != 0 {
							t.Errorf("refused recording captured %d events", rec.Len())
						}
					}()
				}
				ok := app.run(sys, record)
				if sys == Original {
					t.Fatal("recording an original run was not refused")
				}
				if wantOK := !(app.name == "mysql" && sys == VDomLowerbound); ok != wantOK {
					t.Fatalf("Supported = %v, want %v", ok, wantOK)
				}
				if !ok {
					return
				}
				tr := rec.Finish()
				if len(tr.Events) == 0 {
					t.Fatal("recorded no events")
				}
				res, err := replay.Run(tr, replay.Options{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if res.Divergence != nil {
					t.Fatalf("replay of %d events diverged: %s", len(tr.Events), res.Divergence)
				}
			})
		}
	}
}

// TestCorpusThreadIDs checks that every trace of the corpus that boots a
// machine names real tasks: a non-zero event tid must be one a spawn
// earlier in the trace created, and no op that acts on a thread may carry
// tid 0. The standalone EPK cost model has no tasks and is skipped.
func TestCorpusThreadIDs(t *testing.T) {
	perThread := map[tap.Op]bool{
		tap.OpMmap: true, tap.OpMunmap: true, tap.OpMprotect: true, tap.OpAccess: true,
		tap.OpDispatch: true, tap.OpPopulate: true, tap.OpVdomMprotect: true,
		tap.OpVdrAlloc: true, tap.OpVdrFree: true, tap.OpVdrRead: true, tap.OpVdrWrite: true,
		tap.OpNewVDS: true, tap.OpEpkSwitch: true, tap.OpDptiEnter: true, tap.OpDptiExit: true,
	}
	for _, spec := range TraceCorpus() {
		t.Run(spec.Name, func(t *testing.T) {
			tr := spec.Record()
			sys, err := replay.Boot(tr.Header)
			if err != nil {
				t.Fatal(err)
			}
			if sys.Machine == nil {
				t.Skip("standalone cost model: no tasks")
			}
			spawned := map[uint64]bool{}
			for i, e := range tr.Events {
				switch {
				case e.Op == tap.OpSpawn:
					spawned[e.TID] = true
				case e.TID != 0 && !spawned[e.TID]:
					t.Fatalf("event %d (%s) names tid %d, which no earlier spawn created", i, e.Op, e.TID)
				case e.TID == 0 && perThread[e.Op]:
					t.Fatalf("event %d (%s) acts on a thread but carries tid 0", i, e.Op)
				}
			}
		})
	}
}
