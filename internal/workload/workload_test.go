package workload

import (
	"errors"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/libmpk"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

func TestSystemString(t *testing.T) {
	names := map[System]string{
		Original: "original", VDom: "VDom", EPK: "EPK",
		Libmpk: "libmpk", VDomLowerbound: "lowerbound",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

// TestLibmpkAcquireUnknownKeyPanics checks that activating a vkey libmpk
// never allocated fails loudly: only pushback (every key held) is worth a
// busy-wait retry, and an unknown vkey would otherwise spin forever.
func TestLibmpkAcquireUnknownKeyPanics(t *testing.T) {
	sys, err := replay.Boot(replay.Header{
		Version: replay.FormatVersion, Kernel: replay.KernelLibmpk,
		Arch: "x86", Cores: 1, Workload: "acquire",
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := newPlatform(sys)
	lock := pl.env.NewResource(1)
	task := sys.Proc.NewTask(0)
	var got any
	pl.env.Go("worker", func(p *sim.Proc) {
		defer func() { got = recover() }()
		libmpkAcquire(pl.sched, p, lock, sys.Libmpk, task, libmpk.Vkey(999), hw.PermReadWrite)
	})
	pl.env.Run()
	if err, ok := got.(error); !ok || !errors.Is(err, libmpk.ErrUnknownKey) {
		t.Fatalf("recovered %v, want a panic wrapping libmpk.ErrUnknownKey", got)
	}
	if n := sys.Libmpk.Stats.BusyWaits; n != 0 {
		t.Fatalf("%d busy-wait retries on a misuse outcome", n)
	}
}

func TestClockAndCores(t *testing.T) {
	if ClockHz(cycles.X86) != 2.1e9 || ClockHz(cycles.ARM) != 1.2e9 {
		t.Error("clock rates wrong")
	}
	if DefaultCores(cycles.X86) != 52 || DefaultCores(cycles.ARM) != 4 {
		t.Error("core counts wrong")
	}
}

func TestEPKDomainsReuseFreedIDs(t *testing.T) {
	d := newEPKDomains(nil)
	a := d.alloc()
	b := d.alloc()
	d.release(a)
	if c := d.alloc(); c != a {
		t.Errorf("freed id not reused: got %d, want %d", c, a)
	}
	if b == a {
		t.Error("duplicate ids")
	}
}

// --- httpd (Figures 1 and 5) ---

func httpdRun(t *testing.T, sys System, clients int, bytes uint64) HttpdResult {
	t.Helper()
	return RunHttpd(HttpdConfig{
		Arch: cycles.X86, System: sys, Clients: clients,
		RequestsPerClient: 10, FileBytes: bytes,
	})
}

func TestHttpdVDomOverheadSmall(t *testing.T) {
	base := httpdRun(t, Original, 16, 1024)
	prot := httpdRun(t, VDom, 16, 1024)
	ov := float64(prot.Makespan)/float64(base.Makespan) - 1
	// Paper: ≤2.18% across sizes on X86.
	if ov < 0 || ov > 0.03 {
		t.Errorf("VDom httpd overhead = %.2f%%, want under 3%%", ov*100)
	}
	if prot.VDomStats.WrVdrCalls == 0 {
		t.Error("VDom run made no wrvdr calls")
	}
}

func TestHttpdOrderingMatchesFig5(t *testing.T) {
	base := httpdRun(t, Original, 24, 16384)
	vdom := httpdRun(t, VDom, 24, 16384)
	epk := httpdRun(t, EPK, 24, 16384)
	lm := httpdRun(t, Libmpk, 24, 16384)
	// Figure 5: original ≥ VDom > EPK > libmpk at high concurrency.
	if !(base.ReqPerSec >= vdom.ReqPerSec*0.999) {
		t.Errorf("original (%.0f) slower than VDom (%.0f)", base.ReqPerSec, vdom.ReqPerSec)
	}
	if !(vdom.ReqPerSec > epk.ReqPerSec) {
		t.Errorf("VDom (%.0f) not faster than EPK (%.0f)", vdom.ReqPerSec, epk.ReqPerSec)
	}
	if !(epk.ReqPerSec > lm.ReqPerSec) {
		t.Errorf("EPK (%.0f) not faster than libmpk (%.0f)", epk.ReqPerSec, lm.ReqPerSec)
	}
}

func TestHttpdThroughputScalesWithClients(t *testing.T) {
	lo := httpdRun(t, Original, 4, 1024)
	hi := httpdRun(t, Original, 32, 1024)
	if hi.ReqPerSec < 4*lo.ReqPerSec {
		t.Errorf("throughput did not scale: %.0f → %.0f req/s", lo.ReqPerSec, hi.ReqPerSec)
	}
	// Absolute calibration: ≈1.3×10⁴ req/s near saturation (paper Fig 5).
	sat := httpdRun(t, Original, 40, 1024)
	if sat.ReqPerSec < 8000 || sat.ReqPerSec > 22000 {
		t.Errorf("saturated throughput %.0f req/s, want ≈1.3×10⁴", sat.ReqPerSec)
	}
}

func TestHttpdFig1BreakdownShape(t *testing.T) {
	// Figure 1: libmpk overhead on 25-thread httpd is dominated by busy
	// waiting and TLB shootdowns, and grows with concurrency.
	cfg := func(clients int) HttpdConfig {
		return HttpdConfig{Arch: cycles.X86, System: Libmpk, Clients: clients,
			RequestsPerClient: 15, FileBytes: 16384, Workers: 25}
	}
	low := RunHttpd(cfg(4))
	high := RunHttpd(cfg(28))
	if high.LibmpkStats.BusyWaitCycles <= low.LibmpkStats.BusyWaitCycles {
		t.Error("busy waiting did not grow with concurrency")
	}
	if high.LibmpkStats.BusyWaitCycles < high.LibmpkStats.MgmtCycles {
		t.Error("busy waiting should dominate metadata management at high concurrency")
	}
	base := RunHttpd(HttpdConfig{Arch: cycles.X86, System: Original, Clients: 28,
		RequestsPerClient: 15, FileBytes: 16384, Workers: 25})
	ov := float64(high.Makespan)/float64(base.Makespan) - 1
	if ov < 0.10 {
		t.Errorf("libmpk overhead at 28 clients = %.1f%%, want substantial (paper ≈60%%)", ov*100)
	}
}

func TestHttpdARM(t *testing.T) {
	base := RunHttpd(HttpdConfig{Arch: cycles.ARM, System: Original, Clients: 8, RequestsPerClient: 5, FileBytes: 1024})
	prot := RunHttpd(HttpdConfig{Arch: cycles.ARM, System: VDom, Clients: 8, RequestsPerClient: 5, FileBytes: 1024})
	ov := float64(prot.Makespan)/float64(base.Makespan) - 1
	if ov < 0 || ov > 0.06 {
		t.Errorf("ARM VDom overhead = %.2f%%, want small (paper ≤2.65%%)", ov*100)
	}
	// Absolute calibration: ≈250 req/s at saturation on the Pi.
	sat := RunHttpd(HttpdConfig{Arch: cycles.ARM, System: Original, Clients: 24, RequestsPerClient: 5, FileBytes: 1024})
	if sat.ReqPerSec < 120 || sat.ReqPerSec > 500 {
		t.Errorf("ARM saturated throughput %.0f req/s, want ≈250", sat.ReqPerSec)
	}
}

// --- MySQL (Figure 6) ---

func TestMySQLVDomNearBaseline(t *testing.T) {
	base := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Original, Clients: 24, QueriesPerClient: 8})
	prot := RunMySQL(MySQLConfig{Arch: cycles.X86, System: VDom, Clients: 24, QueriesPerClient: 8})
	ov := float64(prot.Makespan)/float64(base.Makespan) - 1
	if ov < 0 || ov > 0.02 {
		t.Errorf("VDom MySQL overhead = %.2f%%, want well under 2%% (paper 0.47%%)", ov*100)
	}
}

func TestMySQLEPKTax(t *testing.T) {
	base := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Original, Clients: 24, QueriesPerClient: 8})
	epk := RunMySQL(MySQLConfig{Arch: cycles.X86, System: EPK, Clients: 24, QueriesPerClient: 8})
	ov := float64(epk.Makespan)/float64(base.Makespan) - 1
	if ov < 0.04 || ov > 0.11 {
		t.Errorf("EPK MySQL overhead = %.2f%%, want ≈7%% (paper 7.33%%)", ov*100)
	}
}

func TestMySQLLibmpkCapped(t *testing.T) {
	if r := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Libmpk, Clients: 20, QueriesPerClient: 4}); r.Supported {
		t.Error("libmpk claimed to support >14 concurrent clients")
	}
	r := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Libmpk, Clients: 8, QueriesPerClient: 8})
	if !r.Supported || r.QueriesPerS == 0 {
		t.Errorf("libmpk under 14 clients failed: %+v", r)
	}
}

func TestMySQLThroughputSaturates(t *testing.T) {
	r24 := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Original, Clients: 24, QueriesPerClient: 8})
	r48 := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Original, Clients: 48, QueriesPerClient: 8})
	if r48.QueriesPerS <= r24.QueriesPerS {
		t.Errorf("no scaling: %.0f → %.0f q/s", r24.QueriesPerS, r48.QueriesPerS)
	}
	if r48.QueriesPerS > 2.2*r24.QueriesPerS {
		t.Errorf("no saturation visible: %.0f → %.0f q/s", r24.QueriesPerS, r48.QueriesPerS)
	}
	// Absolute calibration: ≈5.5×10³ q/s at 48 clients (paper Fig 6).
	if r48.QueriesPerS < 3500 || r48.QueriesPerS > 8000 {
		t.Errorf("X86 throughput at 48 clients = %.0f q/s, want ≈5.5×10³", r48.QueriesPerS)
	}
}

// --- PMO String Replace (Figure 7) ---

func pmoOverhead(t *testing.T, cfg PMOConfig) float64 {
	t.Helper()
	base := cfg
	base.System = Original
	b := RunPMO(base)
	r := RunPMO(cfg)
	return float64(r.Makespan)/float64(b.Makespan) - 1
}

func TestPMOFig7Orderings(t *testing.T) {
	mk := func(sys System, mode PMOMode, lm libmpk.PageMode, threads int) PMOConfig {
		return PMOConfig{Arch: cycles.X86, System: sys, Mode: mode, LibmpkMode: lm,
			Threads: threads, OpsPerThread: 1200}
	}
	lower := pmoOverhead(t, mk(VDomLowerbound, PMOSwitch, 0, 4))
	swo := pmoOverhead(t, mk(VDom, PMOSwitch, 0, 4))
	ev := pmoOverhead(t, mk(VDom, PMOEvict, 0, 4))
	epk := pmoOverhead(t, mk(EPK, PMOSwitch, 0, 4))
	mpk2 := pmoOverhead(t, mk(Libmpk, PMOSwitch, libmpk.Huge2M, 4))
	mpk4 := pmoOverhead(t, mk(Libmpk, PMOSwitch, libmpk.Page4K, 4))

	// Paper averages: lowerbound 2.06%, VDS switch 7.03%, eviction
	// 16.21%, EPK 8.71%; libmpk far above and growing with threads.
	if lower > swo || swo > ev {
		t.Errorf("ordering broken: lower=%.1f%% switch=%.1f%% evict=%.1f%%",
			lower*100, swo*100, ev*100)
	}
	if swo < 0.04 || swo > 0.12 {
		t.Errorf("VDS switch overhead = %.1f%%, want ≈7%%", swo*100)
	}
	if ev < 0.10 || ev > 0.25 {
		t.Errorf("eviction overhead = %.1f%%, want ≈16%%", ev*100)
	}
	if epk < 0.04 || epk > 0.14 {
		t.Errorf("EPK overhead = %.1f%%, want ≈9%%", epk*100)
	}
	if mpk2 < ev {
		t.Errorf("libmpk 2M (%.1f%%) should exceed VDom eviction (%.1f%%)", mpk2*100, ev*100)
	}
	if mpk4 < 3*mpk2 {
		t.Errorf("libmpk 4K (%.1f%%) should dwarf 2M (%.1f%%)", mpk4*100, mpk2*100)
	}
}

func TestPMOLibmpkGrowsWithThreads(t *testing.T) {
	mk := func(threads int) PMOConfig {
		return PMOConfig{Arch: cycles.X86, System: Libmpk, LibmpkMode: libmpk.Huge2M,
			Threads: threads, OpsPerThread: 1200}
	}
	ov1 := pmoOverhead(t, mk(1))
	ov8 := pmoOverhead(t, mk(8))
	// Paper: 17.73% at 1 thread → 977.77% at 8.
	if ov1 < 0.10 || ov1 > 0.30 {
		t.Errorf("1-thread libmpk 2M overhead = %.1f%%, want ≈18%%", ov1*100)
	}
	if ov8 < 10*ov1 {
		t.Errorf("8-thread overhead (%.0f%%) did not explode vs 1-thread (%.0f%%)", ov8*100, ov1*100)
	}
}

func TestPMOVDomFlatAcrossThreads(t *testing.T) {
	mk := func(threads int) PMOConfig {
		return PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOSwitch,
			Threads: threads, OpsPerThread: 1200}
	}
	ov1 := pmoOverhead(t, mk(1))
	ov8 := pmoOverhead(t, mk(8))
	if ov8 > 2.5*ov1+0.02 {
		t.Errorf("VDom switch overhead grew with threads: %.1f%% → %.1f%%", ov1*100, ov8*100)
	}
}

func TestPMOARM(t *testing.T) {
	base := RunPMO(PMOConfig{Arch: cycles.ARM, System: Original, Threads: 2, OpsPerThread: 800})
	swo := RunPMO(PMOConfig{Arch: cycles.ARM, System: VDom, Mode: PMOSwitch, Threads: 2, OpsPerThread: 800})
	ev := RunPMO(PMOConfig{Arch: cycles.ARM, System: VDom, Mode: PMOEvict, Threads: 2, OpsPerThread: 800})
	ovS := float64(swo.Makespan)/float64(base.Makespan) - 1
	ovE := float64(ev.Makespan)/float64(base.Makespan) - 1
	// Paper: 6.15% (switch) and 13.31% (eviction) on ARM.
	if ovS > ovE {
		t.Errorf("ARM: switch (%.1f%%) should beat eviction (%.1f%%)", ovS*100, ovE*100)
	}
	if ovS < 0.02 || ovS > 0.15 {
		t.Errorf("ARM switch overhead = %.1f%%, want ≈6%%", ovS*100)
	}
}

// --- Table 4 patterns ---

func TestPatternTable4Shape(t *testing.T) {
	cell := func(sys PatternSystem, pat Pattern, n int) float64 {
		return RunPattern(PatternConfig{Arch: cycles.X86, System: sys, Pattern: pat, NumVdoms: n, Rounds: 5}).AvgCycles
	}
	// Within hardware capacity everything is a register write.
	if c := cell(PatternVDomSecure, Sequential, 3); c < 95 || c > 115 {
		t.Errorf("X86s seq 3 = %.0f, want ≈104", c)
	}
	if c := cell(PatternVDomFast, Sequential, 3); c < 62 || c > 76 {
		t.Errorf("X86f seq 3 = %.0f, want ≈69", c)
	}
	// Beyond capacity, switch-triggering costs a VDS switch per access.
	trig := cell(PatternVDomSecure, SwitchTriggering, 64)
	if trig < 450 || trig > 700 {
		t.Errorf("X86s trig 64 = %.0f, want ≈550-770", trig)
	}
	seq := cell(PatternVDomSecure, Sequential, 64)
	if seq >= trig {
		t.Errorf("seq (%.0f) not cheaper than trig (%.0f)", seq, trig)
	}
	// Eviction mode: thousands of cycles per activation beyond capacity.
	ev := cell(PatternVDomEvict, Sequential, 29)
	if ev < 900 || ev > 2200 {
		t.Errorf("X86e seq 29 = %.0f, want ≈1500", ev)
	}
	// libmpk collapses beyond capacity.
	lm := cell(PatternLibmpk, Sequential, 32)
	if lm < 22000 || lm > 40000 {
		t.Errorf("libmpk seq 32 = %.0f, want ≈30000", lm)
	}
	if fit := cell(PatternLibmpk, Sequential, 3); fit < 90 || fit > 120 {
		t.Errorf("libmpk seq 3 = %.0f, want ≈102", fit)
	}
	// EPK stays cheap sequentially, pays VMFUNC when triggered.
	etrig := cell(PatternEPK, SwitchTriggering, 64)
	eseq := cell(PatternEPK, Sequential, 64)
	if eseq > 250 || etrig < 600 {
		t.Errorf("EPK seq/trig 64 = %.0f/%.0f, want ≈162/830", eseq, etrig)
	}
}

func TestPatternVDomComparableToEPK(t *testing.T) {
	// §7.5: "switching VDS ... is faster than libmpk and comparable to
	// EPK".
	v := RunPattern(PatternConfig{Arch: cycles.X86, System: PatternVDomSecure, Pattern: SwitchTriggering, NumVdoms: 64, Rounds: 5}).AvgCycles
	e := RunPattern(PatternConfig{Arch: cycles.X86, System: PatternEPK, Pattern: SwitchTriggering, NumVdoms: 64, Rounds: 5}).AvgCycles
	l := RunPattern(PatternConfig{Arch: cycles.X86, System: PatternLibmpk, Pattern: SwitchTriggering, NumVdoms: 64, Rounds: 5}).AvgCycles
	if v > 2*e {
		t.Errorf("VDom trig (%.0f) not comparable to EPK (%.0f)", v, e)
	}
	if v > l/10 {
		t.Errorf("VDom trig (%.0f) not ≫ faster than libmpk (%.0f)", v, l)
	}
}

// --- Table 3 ---

func TestTable3Anchors(t *testing.T) {
	rows := Table3()
	want := map[string][2]float64{ // [X86, ARM], ±25%
		"empty API call return":           {6.7, 16.5},
		"empty syscall return":            {173.4, 268.3},
		"update PKRU or DACR":             {25.6, 18.1},
		"fast wrvdr API call return":      {68.8, 406},
		"secure wrvdr API call return":    {104, 406},
		"secure wrvdr with 4KB eviction":  {1639, 2274},
		"secure wrvdr with 64MB eviction": {8097, 11778},
		"secure wrvdr with VDS switch":    {583, 723},
	}
	got := map[string]Table3Row{}
	for _, r := range rows {
		got[r.Operation] = r
	}
	for op, w := range want {
		r, ok := got[op]
		if !ok {
			t.Errorf("missing row %q", op)
			continue
		}
		if r.X86 < w[0]*0.75 || r.X86 > w[0]*1.25 {
			t.Errorf("%s X86 = %.1f, paper %.1f (want ±25%%)", op, r.X86, w[0])
		}
		if r.ARM < w[1]*0.75 || r.ARM > w[1]*1.25 {
			t.Errorf("%s ARM = %.1f, paper %.1f (want ±25%%)", op, r.ARM, w[1])
		}
	}
	// 2MB eviction: the paper's inversion (2MB cheaper than 4KB) is a
	// measurement artefact we do not chase; require same magnitude.
	for _, r := range rows {
		if r.Operation == "secure wrvdr with 2MB eviction" {
			if r.X86 < 1200 || r.X86 > 2600 {
				t.Errorf("2MB eviction X86 = %.1f, want ≈1600-1900", r.X86)
			}
		}
	}
}

// --- Table 5 ---

func TestMemSyncGrowsWithVDSes(t *testing.T) {
	ov2, ok2 := MemSyncOverhead(cycles.X86, 2)
	ov8, ok8 := MemSyncOverhead(cycles.X86, 8)
	ov32, ok32 := MemSyncOverhead(cycles.X86, 32)
	if !ok2 || !ok8 || !ok32 {
		t.Fatal("X86 configurations must all be defined")
	}
	if !(ov2 < ov8 && ov8 < ov32) {
		t.Errorf("overhead not monotone: %.1f%% %.1f%% %.1f%%", ov2*100, ov8*100, ov32*100)
	}
	if ov2 < 0.02 || ov2 > 0.08 {
		t.Errorf("2-VDS overhead = %.1f%%, want ≈3.8%%", ov2*100)
	}
	if ov32 < 0.15 || ov32 > 0.90 {
		t.Errorf("32-VDS overhead = %.1f%%, want tens of percent (paper 56.1%%)", ov32*100)
	}
}

func TestMemSyncARMUndefinedBeyondCores(t *testing.T) {
	if _, ok := MemSyncOverhead(cycles.ARM, 8); ok {
		t.Error("ARM 8-VDS run should be undefined (4 cores)")
	}
	ov, ok := MemSyncOverhead(cycles.ARM, 2)
	if !ok || ov <= 0 {
		t.Errorf("ARM 2-VDS = (%.1f%%, %v)", ov*100, ok)
	}
}

// --- UnixBench (§7.3) ---

func TestUnixBenchNearBaseline(t *testing.T) {
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		for _, parallel := range []bool{false, true} {
			r := RunUnixBench(arch, parallel)
			if r.Index < 97.0 || r.Index > 102.0 {
				t.Errorf("%v parallel=%v index = %.1f%%, paper reports 98.5-101.8%%",
					arch, parallel, r.Index)
			}
			for _, s := range r.Scores {
				if s.Relative < 93 || s.Relative > 102 {
					t.Errorf("%v %s = %.1f%%, implausible", arch, s.Test, s.Relative)
				}
			}
		}
	}
}

// --- LTP (§7.1) ---

func TestLTPPassesOnBothKernels(t *testing.T) {
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		for _, vdomOn := range []bool{false, true} {
			r := RunLTP(arch, vdomOn)
			if r.Failed != 0 {
				t.Errorf("%v vdom=%v: %d failures: %v", arch, vdomOn, r.Failed, r.Failures)
			}
			if r.Passed < 15 {
				t.Errorf("%v vdom=%v: only %d cases ran", arch, vdomOn, r.Passed)
			}
		}
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	a := RunHttpd(HttpdConfig{Arch: cycles.X86, System: Libmpk, Clients: 12, RequestsPerClient: 5, FileBytes: 16384})
	b := RunHttpd(HttpdConfig{Arch: cycles.X86, System: Libmpk, Clients: 12, RequestsPerClient: 5, FileBytes: 16384})
	if a.Makespan != b.Makespan || a.LibmpkStats != b.LibmpkStats {
		t.Error("httpd run not reproducible")
	}
	p1 := RunPMO(PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOEvict, Threads: 4, OpsPerThread: 500})
	p2 := RunPMO(PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOEvict, Threads: 4, OpsPerThread: 500})
	if p1.Makespan != p2.Makespan {
		t.Error("PMO run not reproducible")
	}
}

func TestHttpdKeepAliveAmortizesHandshakes(t *testing.T) {
	mk := func(sys System, keepAlive bool) HttpdResult {
		return RunHttpd(HttpdConfig{Arch: cycles.X86, System: sys, Clients: 8,
			RequestsPerClient: 20, FileBytes: 16384, KeepAlive: keepAlive})
	}
	base := mk(Original, true)
	prot := mk(VDom, true)
	// Keep-alive throughput far exceeds per-request connections (the
	// handshake amortizes over 20 transfers).
	perReq := mk(Original, false)
	if base.ReqPerSec < 4*perReq.ReqPerSec {
		t.Errorf("keep-alive %f req/s not ≫ per-request %f", base.ReqPerSec, perReq.ReqPerSec)
	}
	// VDom's relative overhead stays small under keep-alive too.
	ov := float64(prot.Makespan)/float64(base.Makespan) - 1
	if ov < 0 || ov > 0.05 {
		t.Errorf("VDom keep-alive overhead = %.2f%%", ov*100)
	}
}

func TestPMOShapeStableAcrossSeeds(t *testing.T) {
	// The Figure 7 orderings must not depend on the RNG seed.
	for _, seed := range []uint64{1, 777, 424242} {
		base := RunPMO(PMOConfig{Arch: cycles.X86, System: Original, Threads: 4, OpsPerThread: 800, Seed: seed})
		sw := RunPMO(PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOSwitch, Threads: 4, OpsPerThread: 800, Seed: seed})
		ev := RunPMO(PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOEvict, Threads: 4, OpsPerThread: 800, Seed: seed})
		ovS := float64(sw.Makespan)/float64(base.Makespan) - 1
		ovE := float64(ev.Makespan)/float64(base.Makespan) - 1
		if !(ovS < ovE) {
			t.Errorf("seed %d: switch (%.1f%%) not cheaper than evict (%.1f%%)", seed, ovS*100, ovE*100)
		}
		if ovS < 0.03 || ovS > 0.15 || ovE < 0.08 || ovE > 0.30 {
			t.Errorf("seed %d: overheads out of band: %.1f%% / %.1f%%", seed, ovS*100, ovE*100)
		}
	}
}

func TestPMOOnPowerProjection(t *testing.T) {
	// With 30 usable domains per VDS, the 64-PMO working set needs only
	// 3 address spaces; switch-mode overhead drops below the 16-domain
	// hardware's.
	base := RunPMO(PMOConfig{Arch: cycles.Power, System: Original, Threads: 2, OpsPerThread: 800})
	sw := RunPMO(PMOConfig{Arch: cycles.Power, System: VDom, Mode: PMOSwitch, Threads: 2, OpsPerThread: 800})
	ov := float64(sw.Makespan)/float64(base.Makespan) - 1
	if ov < 0 || ov > 0.25 {
		t.Errorf("Power PMO switch overhead = %.1f%%", ov*100)
	}
	x86sw := RunPMO(PMOConfig{Arch: cycles.X86, System: VDom, Mode: PMOSwitch, Threads: 2, OpsPerThread: 800})
	x86base := RunPMO(PMOConfig{Arch: cycles.X86, System: Original, Threads: 2, OpsPerThread: 800})
	x86ov := float64(x86sw.Makespan)/float64(x86base.Makespan) - 1
	// Fewer cross-space misses on Power: switch counts must be lower.
	if sw.VDomStats.VDSSwitches >= x86sw.VDomStats.VDSSwitches {
		t.Errorf("Power switches (%d) not fewer than X86 (%d)",
			sw.VDomStats.VDSSwitches, x86sw.VDomStats.VDSSwitches)
	}
	_ = x86ov
}

func TestMySQLConnectionChurn(t *testing.T) {
	base := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Original, Clients: 8, QueriesPerClient: 12})
	steady := RunMySQL(MySQLConfig{Arch: cycles.X86, System: VDom, Clients: 8, QueriesPerClient: 12})
	churn := RunMySQL(MySQLConfig{Arch: cycles.X86, System: VDom, Clients: 8, QueriesPerClient: 12, ChurnEvery: 3})
	// Churn adds work but must stay a small fraction (the paper's
	// thread-cache path is cheap under VDom: freed vdoms release their
	// pdoms immediately).
	ovSteady := float64(steady.Makespan)/float64(base.Makespan) - 1
	ovChurn := float64(churn.Makespan)/float64(base.Makespan) - 1
	if ovChurn < ovSteady {
		t.Errorf("churn (%f) cheaper than steady (%f)?", ovChurn, ovSteady)
	}
	if ovChurn > 0.02 {
		t.Errorf("churn overhead = %.2f%%, want under 2%%", ovChurn*100)
	}
	// libmpk churns too (under its client cap).
	lm := RunMySQL(MySQLConfig{Arch: cycles.X86, System: Libmpk, Clients: 8, QueriesPerClient: 12, ChurnEvery: 3})
	if !lm.Supported || lm.QueriesPerS == 0 {
		t.Errorf("libmpk churn run failed: %+v", lm)
	}
}

func TestCtxSwitchCyclesMatchPaper(t *testing.T) {
	vanilla, vdomProc, vds := CtxSwitchCycles(cycles.X86)
	if vanilla < 400 || vanilla > 450 {
		t.Errorf("vanilla switch_mm = %.0f, want ≈426", vanilla)
	}
	slow := vdomProc/vanilla - 1
	if slow < 0.05 || slow > 0.07 {
		t.Errorf("VDom slowdown = %.2f%%, want ≈6%%", slow*100)
	}
	if vds < 730 || vds > 820 {
		t.Errorf("VDS switch = %.0f, want ≈771.7", vds)
	}
	va, vp, vv := CtxSwitchCycles(cycles.ARM)
	if vp/va-1 < 0.07 || vp/va-1 > 0.085 {
		t.Errorf("ARM slowdown = %.2f%%, want ≈7.63%%", (vp/va-1)*100)
	}
	if vv < 1460 || vv > 1630 {
		t.Errorf("ARM VDS switch = %.0f, want ≈1545", vv)
	}
}

func TestPatternStrings(t *testing.T) {
	if Sequential.String() != "seq" || SwitchTriggering.String() != "trig" {
		t.Error("Pattern strings wrong")
	}
	names := map[PatternSystem]string{
		PatternVDomSecure: "VDom-secure", PatternVDomFast: "VDom-fast",
		PatternVDomEvict: "VDom-evict", PatternLibmpk: "libmpk", PatternEPK: "EPK",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if PatternSystem(99).String() == "" || System(99).String() == "" {
		t.Error("unknown values must still print")
	}
}
