// Package bench regenerates every table and figure of the VDom paper's
// evaluation section: Figure 1 (libmpk overhead breakdown), Table 3
// (operation cycles), Table 4 (domain access patterns), Table 5 (memory
// synchronization), Figures 5–7 (httpd, MySQL, PMO), the UnixBench
// comparison (§7.3), and the context-switch measurements (§7.5), plus
// ablation sweeps over VDom's design choices. Results render as aligned
// text or CSV.
//
// It covers the paper's §7 (evaluation) tables and figures and is the
// "Bench harness" row of the DESIGN.md §3 module map. Options.Metrics and
// Options.Trace thread the unified observability layer through the
// instrumented experiments (Table 4, chaos soak); see OBSERVABILITY.md.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"vdom/internal/cycles"
	"vdom/internal/metrics"
	"vdom/internal/par"
	"vdom/internal/workload"
)

// Options control iteration counts and output rendering.
type Options struct {
	// Quick reduces iteration counts for fast smoke runs; results keep
	// their shape but average over fewer operations.
	Quick bool
	// Format selects text (default) or CSV rendering.
	Format Format

	// Metrics, when non-nil, accumulates every instrumented cell's
	// counters and cycle attribution across the run (Table 4 and the
	// chaos soak are instrumented today). The rendered tables are
	// byte-identical with or without it: metrics observe costs, they
	// never change them. The harness also maintains the
	// "bench/total-cycles" counter — the sum of every cell's
	// independently measured grand total — which equals the registry's
	// attributed TotalCycles when attribution is exact.
	Metrics *metrics.Registry
	// Trace, when non-nil, collects Chrome-trace decision spans from
	// instrumented experiments for Perfetto (see OBSERVABILITY.md).
	Trace *metrics.Trace

	// Parallel is the worker-pool width for the experiment grids: every
	// grid cell (one isolated System each) is fanned out across at most
	// this many goroutines, and results are collected in cell order, so
	// the rendered output — including metrics snapshots and traces — is
	// byte-identical for every value. 0 selects runtime.GOMAXPROCS(0);
	// 1 forces the sequential reference execution.
	Parallel int

	// TraceDir is where Record writes and Replay reads the domain-op
	// trace corpus (default testdata/traces, the golden corpus).
	TraceDir string
	// DivergenceOut, when set, makes Replay write a JSON divergence
	// report (empty list for a clean run) to this path.
	DivergenceOut string
	// SoakReport, when set, makes the chaos experiment write a
	// machine-readable JSON soak report to this path.
	SoakReport string
	// Kernel selects which kernel backend the chaos experiment soaks:
	// "vdom" (default) or "dpti". Other registered backends have no
	// chaos driver today.
	Kernel string
	// TraceDump, when set, turns on soak recording and dumps each
	// failing chaos shard's minimal replayable trace into this
	// directory. The snapshot experiment also dumps failing shards'
	// reproducer checkpoints (crash-shardN.snap) there.
	TraceDump string

	// SnapPath and TailPath point the recover subcommand at a crash
	// reproducer: an encoded vdom-snap/v2 checkpoint and the recorded
	// trace whose tail rolls it forward (see RECOVERY.md).
	SnapPath string
	TailPath string

	// Scenario points the scenario experiment (and serve -scenario) at a
	// vdom-scenario/v1 spec file; see SCENARIOS.md.
	Scenario string

	// Ctx, when non-nil, bounds the long-running experiments (chaos,
	// snapshot, serve) by wall clock: cancellation aborts between soak
	// ops with a typed error, so a wedged run can never hang a CI job.
	// The serve experiment also drains on it (the SIGTERM path).
	Ctx context.Context
	// Serve parameterizes the serve subcommand; see ServeOptions.
	Serve ServeOptions

	// FleetRun, when non-nil, shards every distributable experiment
	// grid across a fleet of worker subprocesses instead of the
	// in-process pool; output stays byte-identical (see FLEET.md). The
	// fleet's recovery ladder and its aggregated report live here.
	FleetRun *FleetRun
}

// ctx resolves Options.Ctx, defaulting to the background context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// workers resolves Parallel to a concrete pool width.
func (o Options) workers() int { return par.Workers(o.Parallel) }

// cell is one grid cell's harvested result: its rendered value plus the
// observability state the cell collected privately. Each parallel worker
// fills cells for disjoint indices; the collector merges them in index
// order so worker count never reaches the output. Cells computed by a
// fleet worker subprocess arrive with their registry decoded into snap
// (instead of reg) and any grid-specific payload in aux; fail carries a
// cell-level failure (non-empty only for cells a fleet quarantined or a
// cancelled soak shard).
type cell struct {
	text  string
	total uint64
	reg   *metrics.Registry
	snap  *metrics.Snapshot
	tr    *metrics.Trace
	aux   []byte
	fail  string
}

// newCellSinks returns fresh per-cell observability sinks mirroring which
// of the run-wide sinks are enabled.
func (o Options) newCellSinks() (*metrics.Registry, *metrics.Trace) {
	var reg *metrics.Registry
	var tr *metrics.Trace
	if o.Metrics.Enabled() {
		reg = metrics.New()
	}
	if o.Trace.Enabled() {
		tr = metrics.NewTrace()
	}
	return reg, tr
}

// collect folds one cell's observability state into the run-wide sinks.
// A locally computed cell merges its live registry; a fleet-computed
// cell merges its decoded snapshot — metrics.MergeSnapshot is lossless
// against Merge, so the two paths yield byte-identical run snapshots.
func (o Options) collect(c cell) {
	o.Metrics.Add("bench/total-cycles", c.total)
	o.Metrics.Merge(c.reg)
	o.Metrics.MergeSnapshot(c.snap)
	o.Trace.Append(c.tr)
}

func (o Options) httpdRequests() int {
	if o.Quick {
		return 8
	}
	return 40
}

func (o Options) mysqlQueries() int {
	if o.Quick {
		return 6
	}
	return 25
}

func (o Options) pmoOps() int {
	if o.Quick {
		return 600
	}
	return 3000
}

func (o Options) patternRounds() int {
	if o.Quick {
		return 4
	}
	return 12
}

// Fig1 reproduces Figure 1: the overhead breakdown of libmpk on httpd
// (per-key 4 KiB domains, 25 server threads, 16 KiB transfers) across
// concurrent client counts.
func Fig1(w io.Writer, o Options) {
	t := &Table{
		Title:   "Figure 1: overhead breakdown of libmpk on httpd (25 threads, 16KB)",
		Columns: []string{"clients", "total ovh", "busy waiting", "TLB shootdown", "memory+metadata mgmt"},
	}
	for _, c := range o.mapGrid("fig1", 0) {
		t.Row(strings.Split(c.text, rowSep)...)
	}
	o.Render(w, t)
}

// Table3 reproduces Table 3: average cycles of common operations.
func Table3(w io.Writer, o Options) {
	t := &Table{
		Title:   "Table 3: average cycles of common operations",
		Columns: []string{"Operation", "X86 Cycles", "ARM Cycles"},
	}
	for _, r := range workload.Table3Parallel(o.workers()) {
		arm := "undefined"
		if r.ARMDefined {
			arm = f1(r.ARM)
		}
		t.Row(r.Operation, f1(r.X86), arm)
	}
	o.Render(w, t)
}

// table4Counts are the vdom counts of Table 4's columns.
var table4Counts = []int{3, 4, 15, 16, 29, 32, 64, 70}

// Table4 reproduces Table 4: average cycles of wrvdr (and counterparts) on
// sequential and switch-triggering accesses of 2 MiB vdoms.
func Table4(w io.Writer, o Options) {
	cols := []string{"# of vdoms"}
	for _, n := range table4Counts {
		cols = append(cols, fmt.Sprint(n))
	}
	t := &Table{
		Title:   "Table 4: average cycles per activation, 2MB (512-page) vdoms",
		Columns: cols,
	}
	// One cell per (row, vdom count); every cell builds an isolated
	// System and collects into private sinks, merged below in cell order.
	nc := len(table4Counts)
	results := o.mapGrid("table4", 0)
	for ri, s := range table4Rows {
		row := []string{s.label}
		for ci := range table4Counts {
			c := results[ri*nc+ci]
			o.collect(c)
			row = append(row, c.text)
		}
		t.Row(row...)
	}
	o.Render(w, t)
}

// Table5 reproduces Table 5: 4 KiB allocation+synchronization overhead
// across VDS counts.
func Table5(w io.Writer, o Options) {
	t := &Table{
		Title:   "Table 5: alloc+sync overhead across numbers of VDSes",
		Columns: []string{"# of VDSes", "2", "4", "8", "16", "32"},
	}
	results := o.mapGrid("table5", 0)
	for ai, arch := range table5Arches {
		cells := []string{fmt.Sprintf("%v overhead (%%)", arch)}
		for _, c := range results[ai*len(table5Counts) : (ai+1)*len(table5Counts)] {
			cells = append(cells, c.text)
		}
		t.Row(cells...)
	}
	o.Render(w, t)
}

// fig5Systems are Figure 5's lines, plus the lowerbound configuration the
// paper's §7.6 prose reports (all keys in one domain: 0.86–1.03%).
var fig5Systems = []workload.System{
	workload.Original, workload.VDom, workload.VDomLowerbound,
	workload.EPK, workload.Libmpk,
}

// Fig5 reproduces Figure 5: httpd throughput for original, VDom (plus the
// single-domain lowerbound), EPK, and libmpk across architectures, file
// sizes, and client counts.
func Fig5(w io.Writer, o Options) {
	fmt.Fprintln(w, "Figure 5: httpd throughput (requests/second)")
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		clientCounts := fig5Clients(arch)
		for _, size := range fig5Sizes {
			cols := []string{"clients"}
			for _, s := range fig5Systems {
				cols = append(cols, s.String())
			}
			t := &Table{
				Title:   fmt.Sprintf("%v %dKB", arch, size/1024),
				Columns: cols,
			}
			results := o.mapGrid(fmt.Sprintf("fig5:%v:%d", arch, size), 0)
			for ci, c := range clientCounts {
				cells := []string{fmt.Sprint(c)}
				for _, r := range results[ci*len(fig5Systems) : (ci+1)*len(fig5Systems)] {
					cells = append(cells, r.text)
				}
				t.Row(cells...)
			}
			fmt.Fprintln(w)
			o.Render(w, t)
		}
	}
}

// Fig6 reproduces Figure 6: MySQL throughput for the four systems.
func Fig6(w io.Writer, o Options) {
	fmt.Fprintln(w, "Figure 6: MySQL throughput (queries/second)")
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		clientCounts := fig6Clients(arch)
		cols := []string{"clients"}
		for _, s := range fig6Systems {
			cols = append(cols, s.String())
		}
		t := &Table{Title: arch.String(), Columns: cols}
		results := o.mapGrid(fmt.Sprintf("fig6:%v", arch), 0)
		for ci, c := range clientCounts {
			cells := []string{fmt.Sprint(c)}
			for _, r := range results[ci*len(fig6Systems) : (ci+1)*len(fig6Systems)] {
				cells = append(cells, r.text)
			}
			t.Row(cells...)
		}
		fmt.Fprintln(w)
		o.Render(w, t)
	}
}

// Fig7 reproduces Figure 7: String Replace overheads for the six
// configurations across thread counts.
func Fig7(w io.Writer, o Options) {
	fmt.Fprintln(w, "Figure 7: String Replace overhead (%) on 64 x 2MB PMOs")
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		threads := fig7Threads(arch)
		cols := []string{"threads"}
		for _, th := range threads {
			cols = append(cols, fmt.Sprint(th))
		}
		t := &Table{Title: arch.String(), Columns: cols}
		results := o.mapGrid(fmt.Sprintf("fig7:%v", arch), 0)
		for vi, v := range fig7Variants {
			cells := []string{v.name}
			for _, r := range results[vi*len(threads) : (vi+1)*len(threads)] {
				cells = append(cells, r.text)
			}
			t.Row(cells...)
		}
		fmt.Fprintln(w)
		o.Render(w, t)
	}
}

// UnixBench reproduces §7.3: relative UnixBench scores of the VDom kernel.
func UnixBench(w io.Writer, o Options) {
	t := &Table{
		Title:   "UnixBench (§7.3): VDom kernel score relative to vanilla (100% = equal)",
		Columns: []string{"arch", "suite", "index", "worst test"},
	}
	for _, c := range o.mapGrid("unixbench", 0) {
		t.Row(strings.Split(c.text, rowSep)...)
	}
	o.Render(w, t)
}

// CtxSwitch reproduces §7.5's context-switch measurements.
func CtxSwitch(w io.Writer, o Options) {
	t := &Table{
		Title: "Context switch (§7.5): switch_mm cycles",
		Columns: []string{"arch", "vanilla kernel", "VDom kernel (non-VDom proc)",
			"slowdown", "switch to a VDS"},
	}
	for _, arch := range []cycles.Arch{cycles.X86, cycles.ARM} {
		vanilla, vdomProc, vds := workload.CtxSwitchCycles(arch)
		t.Row(arch.String(), f1(vanilla), f1(vdomProc),
			fmt.Sprintf("%.2f%%", (vdomProc/vanilla-1)*100), f1(vds))
	}
	o.Render(w, t)
}

// Tables runs the full table grid (Tables 3, 4, and 5) — the workhorse
// experiment the parallel engine targets: ~110 isolated cells fanned out
// across o.Parallel workers with byte-identical output for any width.
func Tables(w io.Writer, o Options) {
	Table3(w, o)
	fmt.Fprintln(w)
	Table4(w, o)
	fmt.Fprintln(w)
	Table5(w, o)
}

// All runs every experiment in order.
func All(w io.Writer, o Options) {
	sections := []func(){
		func() { Fig1(w, o) },
		func() { Table1(w, o) },
		func() { Table2(w, o) },
		func() { Table3(w, o) },
		func() { Table4(w, o) },
		func() { Table5(w, o) },
		func() { Fig5(w, o) },
		func() { Fig6(w, o) },
		func() { Fig7(w, o) },
		func() { UnixBench(w, o) },
		func() { CtxSwitch(w, o) },
		func() { Ablations(w, o) },
		// Matrix is appended last so the earlier sections' output stays a
		// byte-identical prefix of older releases' `all` output.
		func() { Matrix(w, o) },
	}
	for i, s := range sections {
		if i > 0 {
			fmt.Fprintln(w)
		}
		s()
	}
}
