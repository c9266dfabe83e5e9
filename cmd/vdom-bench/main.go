// Command vdom-bench regenerates the tables and figures of the VDom
// paper's evaluation section on the simulated platform.
//
// Usage:
//
//	vdom-bench [-quick] [-format text|csv] [-seed N] [-parallel N]
//	           [-metrics out.json] [-trace-out out.trace.json]
//	           [-trace-dir DIR] [-divergence-out out.json]
//	           [-soak-report out.json] [-trace-dump DIR]
//	           [-kernel NAME] [-scenario FILE]
//	           [-snap FILE] [-tail FILE] [-timeout D]
//	           [-duration D] [-shards N] [-ops-per-shard N]
//	           [-checkpoint-every N] [-ring N] [-ring-dir DIR]
//	           [-max-retries N] [-crash-every N] [-crash-kind KIND]
//	           [-snap-write-fail P] [-snap-corrupt P]
//	           [-health-out FILE] [-health-every D]
//	           [-require-recoveries N] [-perf-out FILE] [-against FILE]
//	           [-perf-threshold F] [-fleet N] [-fleet-report FILE]
//	           [-fleet-faults SPEC] [-fleet-kill N]
//	           [-fleet-cell-timeout D] [experiment]
//
// Experiments: fig1, table1, table2, table3, table4, table5, tables, fig5,
// fig6, fig7, unixbench, ctxswitch, ablation, matrix, chaos, snapshot,
// serve, recover, record, replay, scenario, perf, compare, all (default).
// The `worker` subcommand is not an experiment: it serves the
// vdom-fleet/v1 worker protocol on stdin/stdout for a coordinating
// vdom-bench process and is normally spawned by -fleet, never by hand.
//
// -fleet N shards every distributable experiment grid across N worker
// subprocesses (this binary re-exec'd as `vdom-bench worker`) instead of
// the in-process pool; rendered output stays byte-identical to any
// -parallel run — worker death (kill -9, panic, heartbeat stall past
// -fleet-cell-timeout) is absorbed by reassignment with bounded retries,
// and cells that fail persistently are quarantined and reported.
// -fleet-report writes the machine-readable vdom-fleet-report/v1 outcome;
// the run exits non-zero only when the quarantine list is non-empty.
// -fleet-faults enables the seeded transport-fault injector (e.g.
// "seed=42,corrupt=0.01,truncate=0.005,duplicate=0.01,delay=0.05") and
// -fleet-kill N SIGKILLs one busy worker after N merged cells — both are
// CI chaos hooks that must not change a byte of output. With -fleet, a
// -require-recoveries N asserts the fleet self-healed at least N times.
// See FLEET.md for the frame spec and the recovery ladder.
//
// `scenario` runs a declared vdom-scenario/v1 workload (see SCENARIOS.md):
// -scenario names the spec file, -kernel narrows the kernel sweep to one
// registered backend (default: the spec's kernel set, else every
// registered backend), and -trace-dir captures each cell's vdom-trace/v1
// recording. `serve -scenario` schedules the spec as a supervised fleet,
// taking the fleet shape from the spec's crash stanza and the fault mix
// from its first faulted phase; explicit serve flags win over the stanza.
//
// `perf` runs the fixed performance suite (internal/perf, PERFORMANCE.md):
// four machine-normalized rates written as a vdom-perf/v1 JSON report to
// -perf-out (stdout when unset). With -against, the normalized rates are
// diffed against a committed baseline (the repository pins BENCH_7.json)
// and the run exits non-zero if any benchmark dropped by more than
// -perf-threshold (default 15%). -quick cuts repetitions for a CI smoke
// run without changing what one iteration measures.
//
// `record` re-records the domain-op trace corpus (one scaled-down run per
// paper workload and kernel kind, see REPLAY.md) into -trace-dir; `replay`
// re-executes every trace there and verifies the runs are bit-identical
// to their recordings, exiting non-zero on divergence. The chaos and
// snapshot experiments accept -soak-report and -trace-dump to archive a
// JSON soak report and failing shards' replayable trace dumps; `snapshot`
// additionally dumps reproducer checkpoints, and `recover` re-runs a
// recovery standalone from a -snap checkpoint plus -tail trace (see
// RECOVERY.md). -kernel selects the chaos and snapshot soak driver:
// vdom (the default) or dpti. -timeout bounds chaos, snapshot, and serve by wall
// clock: chaos and snapshot exit non-zero if the budget expires mid-run,
// while serve treats expiry like SIGTERM and drains gracefully.
//
// `serve` runs the supervised soak service (see RECOVERY.md): a fleet of
// crash-soaking shards under continuous supervision, each with a rolling
// on-disk checkpoint ring (-ring entries, one checkpoint every
// -checkpoint-every ops), seeded crash injection (-crash-every,
// -crash-kind), harness pressure (-snap-write-fail, -snap-corrupt),
// automatic watchdog/audit detection, retry/backoff recovery
// (quarantining a shard after -max-retries consecutive failures), and a
// periodic JSON health report (-health-out, -health-every). The run is
// bounded by -duration, -ops-per-shard, or -timeout; SIGTERM/SIGINT
// drains gracefully, checkpointing every shard before exit.
// -require-recoveries N makes CI assert the service actually self-healed
// at least N times.
//
// -parallel N fans the experiment grids out across N worker goroutines,
// one isolated simulated System per cell; it defaults to runtime.NumCPU().
// Output is byte-identical for every -parallel value — the flag trades
// wall-clock time only.
//
// With -metrics, the instrumented experiments (table4, chaos) publish
// their counters, per-(layer, operation) cycle attribution, and
// domain-activation cost histograms into a registry written as JSON when
// the run finishes. With -trace-out, the same experiments emit a Chrome
// trace-event file loadable in Perfetto (https://ui.perfetto.dev). Both
// flags are observation-only: the rendered tables are byte-identical with
// or without them. See OBSERVABILITY.md for the metric catalogue and the
// snapshot schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vdom"
	"vdom/internal/bench"
	"vdom/internal/fleet"
	"vdom/internal/metrics"
	"vdom/internal/perf"
)

// registeredKernel reports whether name is a registered kernel backend.
func registeredKernel(name string) bool {
	for _, k := range vdom.Kernels() {
		if k == name {
			return true
		}
	}
	return false
}

func main() {
	quick := flag.Bool("quick", false, "reduced iteration counts for a fast run")
	format := flag.String("format", "text", "output format: text or csv")
	seed := flag.Uint64("seed", 42, "PRNG seed for the chaos and snapshot experiments (replayable)")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot (counters, cycle attribution, histograms) to this JSON file")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON file (load at ui.perfetto.dev) to this path")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for the experiment grids (output is byte-identical for any value)")
	traceDir := flag.String("trace-dir", "", "trace corpus directory for record/replay (default testdata/traces)")
	divergenceOut := flag.String("divergence-out", "", "replay: write a JSON divergence report to this file")
	soakReport := flag.String("soak-report", "", "chaos/snapshot: write a machine-readable JSON soak report to this file")
	kernelName := flag.String("kernel", "", "kernel backend: narrows the scenario sweep to one registered kernel; selects the chaos and crash (snapshot) soak driver (vdom or dpti, default vdom)")
	scenarioPath := flag.String("scenario", "", "scenario/serve: the vdom-scenario/v1 spec file to run (see SCENARIOS.md)")
	traceDump := flag.String("trace-dump", "", "chaos/snapshot: dump failing shards' replayable traces (and reproducer checkpoints) into this directory")
	snapPath := flag.String("snap", "", "recover: the vdom-snap/v2 checkpoint to restore")
	tailPath := flag.String("tail", "", "recover: the recorded trace whose tail rolls the checkpoint forward")
	timeout := flag.Duration("timeout", 0, "wall-clock budget: expiry cancels chaos/snapshot between ops (non-zero exit) and drains serve gracefully")
	duration := flag.Duration("duration", 0, "serve: run length in wall-clock time (0 with -ops-per-shard 0: until SIGTERM or -timeout)")
	shards := flag.Int("shards", 0, "serve: fleet width (0: default 4)")
	opsPerShard := flag.Int("ops-per-shard", 0, "serve: op budget per shard (0: unbounded)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "serve: rolling-checkpoint cadence in ops (0: default 250)")
	ring := flag.Int("ring", 0, "serve: checkpoint-ring capacity per shard (0: default 4)")
	ringDir := flag.String("ring-dir", "", "serve: directory for the checkpoint rings (default: a temp dir, removed on exit)")
	maxRetries := flag.Int("max-retries", 0, "serve: consecutive recovery failures before a shard is quarantined (0: default 3)")
	crashEvery := flag.Int("crash-every", 0, "serve: mean ops between injected crash faults (0: none)")
	crashKind := flag.String("crash-kind", "all", "serve: injected crash fault: core-crash, kernel-panic, torn-domain-map, or all")
	snapWriteFail := flag.Float64("snap-write-fail", 0, "serve: probability a checkpoint write fails transiently")
	snapCorrupt := flag.Float64("snap-corrupt", 0, "serve: probability a written checkpoint corrupts on disk (caught by CRC at recovery)")
	healthOut := flag.String("health-out", "", "serve: write the JSON health report here (rewritten every -health-every, finalized on exit)")
	healthEvery := flag.Duration("health-every", 5*time.Second, "serve: health report cadence")
	requireRecoveries := flag.Int("require-recoveries", 0, "serve: fail unless at least this many recoveries completed (CI self-healing assertion)")
	fleetN := flag.Int("fleet", 0, "shard experiment grids across N vdom-bench worker subprocesses (0: in-process pool; output stays byte-identical, see FLEET.md)")
	fleetReport := flag.String("fleet-report", "", "fleet: write the machine-readable vdom-fleet-report/v1 JSON to this file")
	fleetFaults := flag.String("fleet-faults", "", "fleet: seeded transport-fault injection spec, e.g. seed=42,corrupt=0.01,truncate=0.005,duplicate=0.01,delay=0.05")
	fleetKill := flag.Int("fleet-kill", 0, "fleet: chaos hook — SIGKILL one busy worker after N merged cells (0: off)")
	fleetCellTimeout := flag.Duration("fleet-cell-timeout", 0, "fleet: reassign a cell whose worker heartbeat stalls this long (0: default 60s)")
	perfOut := flag.String("perf-out", "", "perf: write the vdom-perf/v1 report to this file (default: stdout)")
	against := flag.String("against", "", "perf: compare against this committed vdom-perf/v1 baseline (e.g. BENCH_7.json), exiting non-zero on regression")
	perfThreshold := flag.Float64("perf-threshold", 0.15, "perf: normalized-rate drop beyond which -against fails")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vdom-bench [flags] [experiment]\n\n")
		fmt.Fprintf(os.Stderr, "flags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\nexperiments:\n")
		fmt.Fprintf(os.Stderr, "  fig1       libmpk overhead breakdown on httpd (Figure 1)\n")
		fmt.Fprintf(os.Stderr, "  table1     the VDom API surface (Table 1)\n")
		fmt.Fprintf(os.Stderr, "  table2     ported sandbox defenses (Table 2)\n")
		fmt.Fprintf(os.Stderr, "  table3     cycles of common operations (Table 3)\n")
		fmt.Fprintf(os.Stderr, "  table4     domain access patterns (Table 4)\n")
		fmt.Fprintf(os.Stderr, "  table5     memory synchronization across VDSes (Table 5)\n")
		fmt.Fprintf(os.Stderr, "  tables     the full table grid: Tables 3, 4, and 5\n")
		fmt.Fprintf(os.Stderr, "  fig5       httpd throughput (Figure 5)\n")
		fmt.Fprintf(os.Stderr, "  fig6       MySQL throughput (Figure 6)\n")
		fmt.Fprintf(os.Stderr, "  fig7       PMO String Replace overheads (Figure 7)\n")
		fmt.Fprintf(os.Stderr, "  unixbench  kernel impact on non-VDom programs (§7.3)\n")
		fmt.Fprintf(os.Stderr, "  ctxswitch  context switch costs (§7.5)\n")
		fmt.Fprintf(os.Stderr, "  ablation   design-choice ablations\n")
		fmt.Fprintf(os.Stderr, "  matrix     kernel x arch activation-cost matrix over every registered backend\n")
		fmt.Fprintf(os.Stderr, "  chaos      seeded fault-injection soak with audit summary (-seed to replay)\n")
		fmt.Fprintf(os.Stderr, "  snapshot   crash-fault soak: checkpoint, crash, restore + tail replay, bit-identity verdict (-seed)\n")
		fmt.Fprintf(os.Stderr, "  serve      supervised soak service: rolling checkpoints, crash injection, self-healing recovery (-duration, -shards, ...)\n")
		fmt.Fprintf(os.Stderr, "  recover    standalone recovery from a -snap checkpoint and -tail trace reproducer\n")
		fmt.Fprintf(os.Stderr, "  record     record the domain-op trace corpus to -trace-dir\n")
		fmt.Fprintf(os.Stderr, "  replay     replay every trace under -trace-dir, verifying bit-identical behaviour\n")
		fmt.Fprintf(os.Stderr, "  scenario   run a declared vdom-scenario/v1 workload (-scenario FILE, -kernel, -trace-dir; see SCENARIOS.md)\n")
		fmt.Fprintf(os.Stderr, "  perf       fixed perf suite: machine-normalized vdom-perf/v1 report, optional -against baseline diff\n")
		fmt.Fprintf(os.Stderr, "  compare    measured-vs-paper deviation report\n")
		fmt.Fprintf(os.Stderr, "  all        everything (default)\n")
		fmt.Fprintf(os.Stderr, "\nsubcommands:\n")
		fmt.Fprintf(os.Stderr, "  worker     serve the vdom-fleet/v1 worker protocol on stdin/stdout (spawned by -fleet)\n")
	}
	flag.Parse()

	if bad := nonpositiveWidthFlags(flag.CommandLine); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "vdom-bench: -%s must be positive when set\n", strings.Join(bad, ", -"))
		flag.Usage()
		os.Exit(2)
	}

	f, err := bench.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdom-bench:", err)
		os.Exit(2)
	}
	if *kernelName != "" && !registeredKernel(*kernelName) {
		fmt.Fprintln(os.Stderr, "vdom-bench:",
			&vdom.UnknownKernelError{Name: *kernelName, Known: vdom.Kernels()})
		os.Exit(2)
	}
	o := bench.Options{
		Quick: *quick, Format: f, Parallel: *parallel,
		TraceDir: *traceDir, DivergenceOut: *divergenceOut,
		SoakReport: *soakReport, TraceDump: *traceDump,
		SnapPath: *snapPath, TailPath: *tailPath,
		Kernel: *kernelName, Scenario: *scenarioPath,
	}
	if *metricsOut != "" {
		o.Metrics = metrics.New()
	}
	if *traceOut != "" {
		o.Trace = metrics.NewTrace()
	}
	o.Serve = bench.ServeOptions{
		Duration: *duration, Shards: *shards, OpsPerShard: *opsPerShard,
		CheckpointEvery: *checkpointEvery, Ring: *ring, RingDir: *ringDir,
		MaxRetries: *maxRetries, CrashEvery: *crashEvery, CrashKind: *crashKind,
		SnapWriteFail: *snapWriteFail, SnapCorrupt: *snapCorrupt,
		HealthOut: *healthOut, HealthEvery: *healthEvery,
		RequireRecoveries: *requireRecoveries,
	}
	exp := "all"
	if flag.NArg() > 0 {
		exp = flag.Arg(0)
	}
	if flag.NArg() > 1 {
		// Catch `vdom-bench chaos -seed 7`: flag parsing stops at the
		// first positional argument, so trailing flags would be silently
		// ignored — fail loudly instead.
		fmt.Fprintf(os.Stderr, "vdom-bench: unexpected arguments after %q: %v (flags go before the experiment: vdom-bench -seed 7 chaos)\n", exp, flag.Args()[1:])
		os.Exit(2)
	}
	// -timeout bounds the long-running experiments by wall clock; serve
	// additionally drains gracefully on SIGTERM/SIGINT, checkpointing
	// every shard before exit.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if exp == "serve" {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	o.Ctx = ctx

	if exp == "worker" {
		// Serve the fleet worker protocol: assignments in on stdin, results
		// out on stdout, everything human on stderr. The worker id arrives
		// in the environment from the coordinator's spawn.
		id := 0
		if s := os.Getenv("VDOM_FLEET_WORKER"); s != "" {
			id, _ = strconv.Atoi(s)
		}
		if err := fleet.Worker(os.Stdin, os.Stdout, fleet.WorkerConfig{ID: id},
			bench.Executor(bench.Options{Ctx: ctx})); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: worker:", err)
			os.Exit(1)
		}
		return
	}

	var fleetRun *bench.FleetRun
	if *fleetN > 0 && exp != "serve" {
		faults, err := parseFleetFaults(*fleetFaults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench:", err)
			os.Exit(2)
		}
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: locating worker binary:", err)
			os.Exit(1)
		}
		fleetRun = &bench.FleetRun{
			Workers:     *fleetN,
			Spawn:       fleet.SpawnProcess([]string{exe, "worker"}),
			Faults:      faults,
			CellTimeout: *fleetCellTimeout,
			KillAfter:   *fleetKill,
			Logf: func(format string, args ...any) {
				// Coordinator lines already carry a "fleet:" prefix.
				fmt.Fprintf(os.Stderr, "vdom-bench: "+format+"\n", args...)
			},
		}
		o.FleetRun = fleetRun
	}

	w := os.Stdout
	switch exp {
	case "fig1":
		bench.Fig1(w, o)
	case "table1":
		bench.Table1(w, o)
	case "table2":
		bench.Table2(w, o)
	case "table3":
		bench.Table3(w, o)
	case "table4":
		bench.Table4(w, o)
	case "table5":
		bench.Table5(w, o)
	case "tables":
		bench.Tables(w, o)
	case "fig5":
		bench.Fig5(w, o)
	case "fig6":
		bench.Fig6(w, o)
	case "fig7":
		bench.Fig7(w, o)
	case "unixbench":
		bench.UnixBench(w, o)
	case "ctxswitch":
		bench.CtxSwitch(w, o)
	case "ablation":
		bench.Ablations(w, o)
	case "matrix":
		bench.Matrix(w, o)
	case "chaos":
		if err := bench.ChaosSeed(w, o, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: chaos artifacts:", err)
			os.Exit(1)
		}
	case "snapshot":
		if err := bench.SnapshotSoak(w, o, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: snapshot:", err)
			os.Exit(1)
		}
	case "serve":
		if err := bench.Serve(w, o, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: serve:", err)
			os.Exit(1)
		}
	case "recover":
		if err := bench.Recover(w, o); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: recover:", err)
			os.Exit(1)
		}
	case "record":
		if err := bench.Record(w, o); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: record:", err)
			os.Exit(1)
		}
	case "replay":
		diverged, err := bench.Replay(w, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: replay:", err)
			os.Exit(1)
		}
		if diverged > 0 {
			os.Exit(1)
		}
	case "scenario":
		if err := bench.Scenario(w, o); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: scenario:", err)
			os.Exit(1)
		}
	case "perf":
		if err := runPerf(w, *quick, *perfOut, *against, *perfThreshold); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: perf:", err)
			os.Exit(1)
		}
	case "compare":
		bench.Compare(w, o)
	case "all":
		bench.All(w, o)
	default:
		fmt.Fprintf(os.Stderr, "vdom-bench: unknown experiment %q\n", exp)
		flag.Usage()
		os.Exit(2)
	}

	if *metricsOut != "" {
		if err := writeFile(*metricsOut, o.Metrics.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: writing metrics:", err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, o.Trace.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "vdom-bench: writing trace:", err)
			os.Exit(1)
		}
	}
	if fleetRun != nil {
		rep := fleetRun.Report()
		if *fleetReport != "" {
			if err := writeFile(*fleetReport, rep.WriteJSON); err != nil {
				fmt.Fprintln(os.Stderr, "vdom-bench: writing fleet report:", err)
				os.Exit(1)
			}
		}
		if rep.Degraded {
			fmt.Fprintln(os.Stderr, "vdom-bench: fleet: degraded to in-process pool (no worker could be spawned)")
		}
		if *requireRecoveries > 0 && rep.Recoveries < *requireRecoveries {
			fmt.Fprintf(os.Stderr, "vdom-bench: fleet: %d recoveries, -require-recoveries %d not met\n",
				rep.Recoveries, *requireRecoveries)
			os.Exit(1)
		}
		if !rep.Healthy() {
			fmt.Fprintf(os.Stderr, "vdom-bench: fleet: %d cell(s) quarantined after exhausting retries\n",
				len(rep.Quarantined))
			os.Exit(1)
		}
	}
}

// nonpositiveWidthFlags returns the width-style flags (-parallel,
// -shards, -fleet) that were explicitly set to a nonpositive value on
// fs, sorted by flag name. Defaults are exempt: only a value the user
// actually passed is rejected, so `-shards 0` stops silently meaning
// "the default" while an untouched default keeps working.
func nonpositiveWidthFlags(fs *flag.FlagSet) []string {
	width := map[string]bool{"parallel": true, "shards": true, "fleet": true}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		if !width[f.Name] {
			return
		}
		g, ok := f.Value.(flag.Getter)
		if !ok {
			return
		}
		if v, ok := g.Get().(int); ok && v <= 0 {
			bad = append(bad, f.Name)
		}
	})
	sort.Strings(bad)
	return bad
}

// parseFleetFaults parses the -fleet-faults spec: a comma-separated
// key=value list with keys seed, corrupt, truncate, duplicate, delay,
// and delay-step (a duration). An empty spec means no injection.
func parseFleetFaults(s string) (fleet.FaultConfig, error) {
	var c fleet.FaultConfig
	if s == "" {
		return c, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("-fleet-faults: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		case "corrupt":
			c.Corrupt, err = parseProb(v)
		case "truncate":
			c.Truncate, err = parseProb(v)
		case "duplicate":
			c.Duplicate, err = parseProb(v)
		case "delay":
			c.Delay, err = parseProb(v)
		case "delay-step":
			c.DelayStep, err = time.ParseDuration(v)
		default:
			return c, fmt.Errorf("-fleet-faults: unknown key %q (have seed, corrupt, truncate, duplicate, delay, delay-step)", k)
		}
		if err != nil {
			return c, fmt.Errorf("-fleet-faults: bad %s value %q: %v", k, v, err)
		}
	}
	return c, nil
}

// parseProb parses a probability in [0, 1].
func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability out of [0, 1]")
	}
	return p, nil
}

// runPerf runs the fixed perf suite (see internal/perf and
// PERFORMANCE.md): it writes the vdom-perf/v1 report to outPath (stdout
// when empty) and, when a baseline is given, diffs normalized rates
// against it, returning an error if any benchmark regressed beyond
// threshold.
func runPerf(w io.Writer, quick bool, outPath, baselinePath string, threshold float64) error {
	rep, err := perf.Run(perf.Options{Quick: quick})
	if err != nil {
		return err
	}
	if outPath == "" {
		if err := rep.WriteJSON(w); err != nil {
			return err
		}
	} else if err := writeFile(outPath, rep.WriteJSON); err != nil {
		return err
	}
	if baselinePath == "" {
		return nil
	}
	base, err := perf.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perf: comparing against %s (threshold %.0f%%)\n", baselinePath, threshold*100)
	cur := make(map[string]perf.Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		cur[b.Name] = b
	}
	for _, want := range base.Benchmarks {
		got, ok := cur[want.Name]
		if !ok {
			fmt.Fprintf(w, "  %-14s MISSING (baseline %.4g %s)\n", want.Name, want.Normalized, want.Unit)
			continue
		}
		fmt.Fprintf(w, "  %-14s %.4g -> %.4g %s (%+.1f%%)\n", want.Name,
			want.Normalized, got.Normalized, want.Unit,
			(got.Normalized/want.Normalized-1)*100)
	}
	if regs := perf.Compare(base, rep, threshold); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(w, "  REGRESSION %s: %.4g -> %.4g (-%.1f%% > %.0f%%)\n",
				r.Name, r.Baseline, r.Current, r.Drop*100, threshold*100)
		}
		return fmt.Errorf("%d benchmark(s) regressed beyond %.0f%%", len(regs), threshold*100)
	}
	return nil
}

// writeFile streams write(f) into path, creating or truncating it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
