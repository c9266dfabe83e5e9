package bench

import (
	"fmt"
	"io"
	"math"

	"vdom/internal/cycles"
	"vdom/internal/libmpk"
	"vdom/internal/par"
	"vdom/internal/workload"
)

// Compare runs the calibration-critical experiments and prints measured
// values side by side with the paper's published numbers and the relative
// deviation — the quantitative answer to "does the reproduction hold".
func Compare(w io.Writer, o Options) {
	dev := func(ours, paper float64) string {
		if paper == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.0f%%", (ours/paper-1)*100)
	}

	// --- Table 3 ---
	t := &Table{
		Title:   "Compare: Table 3 (cycles)",
		Columns: []string{"operation", "X86 ours", "X86 paper", "dev", "ARM ours", "ARM paper", "dev"},
	}
	var worstT3 float64
	for _, r := range workload.Table3Parallel(o.workers()) {
		ref, ok := paperTable3[r.Operation]
		if !ok {
			continue
		}
		armOurs, armPaper, armDev := "undefined", "undefined", "-"
		if r.ARMDefined && ref[1] > 0 {
			armOurs, armPaper, armDev = f1(r.ARM), f1(ref[1]), dev(r.ARM, ref[1])
			worstT3 = math.Max(worstT3, math.Abs(r.ARM/ref[1]-1))
		}
		t.Row(r.Operation, f1(r.X86), f1(ref[0]), dev(r.X86, ref[0]), armOurs, armPaper, armDev)
		if ref[0] > 0 {
			worstT3 = math.Max(worstT3, math.Abs(r.X86/ref[0]-1))
		}
	}
	o.Render(w, t)
	fmt.Fprintf(w, "worst Table 3 deviation: %.0f%%\n\n", worstT3*100)

	// --- Table 4, headline cells ---
	t4 := &Table{
		Title:   "Compare: Table 4 headline cells (cycles per activation)",
		Columns: []string{"cell", "ours", "paper", "dev"},
	}
	cell := func(sys workload.PatternSystem, pat workload.Pattern, n int, arch cycles.Arch) func() float64 {
		return func() float64 {
			return workload.RunPattern(workload.PatternConfig{
				Arch: arch, System: sys, Pattern: pat, NumVdoms: n,
				Rounds: o.patternRounds()}).AvgCycles
		}
	}
	t4cases := []struct {
		name  string
		ours  func() float64
		paper float64
	}{
		{"X86s seq, 3 vdoms", cell(workload.PatternVDomSecure, workload.Sequential, 3, cycles.X86), paperTable4["VDom X86s seq"][0]},
		{"X86s trig, 64 vdoms", cell(workload.PatternVDomSecure, workload.SwitchTriggering, 64, cycles.X86), paperTable4["VDom X86s trig"][6]},
		{"X86e seq, 32 vdoms", cell(workload.PatternVDomEvict, workload.Sequential, 32, cycles.X86), paperTable4["VDom X86e seq"][5]},
		{"libmpk seq, 64 vdoms", cell(workload.PatternLibmpk, workload.Sequential, 64, cycles.X86), paperTable4["libmpk seq"][6]},
		{"EPK trig, 64 vdoms", cell(workload.PatternEPK, workload.SwitchTriggering, 64, cycles.X86), paperTable4["EPK trig"][6]},
		{"ARMe seq, 32 vdoms", cell(workload.PatternVDomEvict, workload.Sequential, 32, cycles.ARM), paperTable4["VDom ARMe seq"][5]},
	}
	t4jobs := make([]func() float64, len(t4cases))
	for i := range t4cases {
		t4jobs[i] = t4cases[i].ours
	}
	for i, ours := range par.Map(o.workers(), t4jobs) {
		c := t4cases[i]
		t4.Row(c.name, f0(ours), f0(c.paper), dev(ours, c.paper))
	}
	o.Render(w, t4)
	fmt.Fprintln(w)

	// --- Application headlines ---
	th := &Table{
		Title:   "Compare: application overheads (%)",
		Columns: []string{"claim", "ours", "paper", "dev"},
	}
	httpdOv := func(arch cycles.Arch, bytes uint64) float64 {
		base := workload.RunHttpd(workload.HttpdConfig{Arch: arch, System: workload.Original,
			Clients: 24, RequestsPerClient: o.httpdRequests(), FileBytes: bytes})
		prot := workload.RunHttpd(workload.HttpdConfig{Arch: arch, System: workload.VDom,
			Clients: 24, RequestsPerClient: o.httpdRequests(), FileBytes: bytes})
		return (float64(prot.Makespan)/float64(base.Makespan) - 1) * 100
	}
	mysqlOv := func(sys workload.System) float64 {
		base := workload.RunMySQL(workload.MySQLConfig{Arch: cycles.X86, System: workload.Original,
			Clients: 24, QueriesPerClient: o.mysqlQueries()})
		prot := workload.RunMySQL(workload.MySQLConfig{Arch: cycles.X86, System: sys,
			Clients: 24, QueriesPerClient: o.mysqlQueries()})
		return (float64(prot.Makespan)/float64(base.Makespan) - 1) * 100
	}
	pmoOv := func(sys workload.System, mode workload.PMOMode, lm libmpk.PageMode, threads int) float64 {
		base := workload.RunPMO(workload.PMOConfig{Arch: cycles.X86, System: workload.Original,
			Threads: threads, OpsPerThread: o.pmoOps()})
		r := workload.RunPMO(workload.PMOConfig{Arch: cycles.X86, System: sys, Mode: mode,
			LibmpkMode: lm, Threads: threads, OpsPerThread: o.pmoOps()})
		return (float64(r.Makespan)/float64(base.Makespan) - 1) * 100
	}
	rows := []struct {
		name  string
		ours  func() float64
		paper float64
	}{
		{"httpd VDom X86 128KB", func() float64 { return httpdOv(cycles.X86, 128<<10) }, 2.18},
		{"MySQL VDom X86", func() float64 { return mysqlOv(workload.VDom) }, 0.47},
		{"MySQL EPK X86", func() float64 { return mysqlOv(workload.EPK) }, 7.33},
		{"PMO VDS switch (4 thr)", func() float64 { return pmoOv(workload.VDom, workload.PMOSwitch, libmpk.Page4K, 4) }, 7.03},
		{"PMO eviction (4 thr)", func() float64 { return pmoOv(workload.VDom, workload.PMOEvict, libmpk.Page4K, 4) }, 16.21},
		{"PMO libmpk 2MB (8 thr)", func() float64 { return pmoOv(workload.Libmpk, workload.PMOSwitch, libmpk.Huge2M, 8) }, 977.77},
	}
	appJobs := make([]func() float64, len(rows))
	for i := range rows {
		appJobs[i] = rows[i].ours
	}
	for i, ours := range par.Map(o.workers(), appJobs) {
		r := rows[i]
		th.Row(r.name, f1(ours), f1(r.paper), dev(ours, r.paper))
	}
	o.Render(w, th)
	fmt.Fprintln(w)

	// --- Context switch ---
	tc := &Table{
		Title:   "Compare: context switch (§7.5)",
		Columns: []string{"claim", "ours", "paper", "dev"},
	}
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		vanilla, vdomProc, vds := workload.CtxSwitchCycles(arch)
		slow := (vdomProc/vanilla - 1) * 100
		paperSlow := 6.0
		paperVDS := 771.7
		if arch == cycles.ARM {
			paperSlow, paperVDS = 7.63, 1545.1
		}
		tc.Row(fmt.Sprintf("%v switch_mm slowdown %%", arch), f1(slow), f1(paperSlow), dev(slow, paperSlow))
		tc.Row(fmt.Sprintf("%v VDS switch cycles", arch), f1(vds), f1(paperVDS), dev(vds, paperVDS))
	}
	o.Render(w, tc)
}
