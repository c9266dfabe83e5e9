// Package perf is the committed performance harness: a fixed benchmark
// suite whose results are normalized by a machine calibration loop,
// serialized as versioned vdom-perf/v1 JSON, and compared against a
// baseline committed in the repository (BENCH_7.json) so CI can fail on
// regressions without pinning to one physical machine.
//
// The suite is intentionally small and fixed — four rates that together
// cover the hot paths PERFORMANCE.md tracks:
//
//   - replay: recorded domain-op events re-executed and verified per
//     second (internal/replay over the golden table4 corpus trace);
//   - table4: Table-4 domain activations (MMU accesses that trigger a
//     permission-register rewrite) per second across the paper's three
//     systems (VDom, libmpk, EPK) at 64 vdoms;
//   - parallel-grid: isolated experiment-grid cells (one simulated
//     System each) completed per second under the internal/par worker
//     pool;
//   - checkpoint: vdom-snap/v2 capture+encode throughput in bytes per
//     second on a mid-soak chaos system.
//
// Every benchmark's per-iteration workload is fixed — Options.Quick
// reduces only the number of timed repetitions and iterations, never the
// work one iteration does — so a quick CI run and a full baseline run
// measure the same quantity and are directly comparable.
//
// # Machine normalization
//
// Raw rates depend on the host. The unit of "machine speed" is a fixed,
// deterministic loop mixing dependent ALU work, cache-missing loads and
// stores over an 8 MiB buffer, and periodic heap allocation (see
// calibrationLoop), measured in calibration steps per second. A calibration burst runs interleaved
// before every timed repetition of every benchmark, the repetitions are
// round-robined across the suite (rep 1 of each benchmark, then rep 2 of
// each, ...), and two machine properties are estimated independently by
// min-of-N: each benchmark's best raw rate, and the run's best
// calibration rate. The report then scales every raw rate onto the
// pinned reference machine (RefCalibration steps/sec):
//
//	normalized = best-raw * RefCalibration / best-calibration
//
// The structure is deliberate. On shared hosts, contention arrives in
// episodes lasting seconds — long enough to swallow all of one
// benchmark's back-to-back repetitions, short enough that round-robined
// repetitions spread across the whole run give min-of-N a clean window
// for every benchmark and for the calibration. Best-casing the raw rate
// and the calibration independently is what makes the ratio stable:
// both converge to fixed machine properties, whereas best-casing a
// per-repetition raw/calibration ratio would systematically select
// repetitions whose burst happened to run slow. Compare judges
// regressions on normalized rates only. See PERFORMANCE.md for the
// methodology's limits (memory-bound and parallel benchmarks normalize
// imperfectly) and for how to refresh the baseline.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"vdom/internal/chaos"
	"vdom/internal/cycles"
	"vdom/internal/par"
	"vdom/internal/replay"
	"vdom/internal/tlb"
	"vdom/internal/workload"
)

// Version is the JSON schema identifier written into every report.
const Version = "vdom-perf/v1"

// RefCalibration is the pinned reference-machine speed: calibration-loop
// steps per second (each step is a xorshift advance plus one
// cache-missing load). The exact value is arbitrary — it only fixes the
// unit normalized rates are quoted in — and must never change while
// committed baselines exist, or every baseline silently rescales.
const RefCalibration = 250e6

// sink defeats dead-code elimination of the calibration loop. Never read
// it for meaning.
var sink uint64

// Report is one suite run: the vdom-perf/v1 JSON document.
type Report struct {
	Version string `json:"version"`
	GoOS    string `json:"goos"`
	GoArch  string `json:"goarch"`
	GoVer   string `json:"go"`
	CPUs    int    `json:"cpus"`
	Quick   bool   `json:"quick"`

	// Calibration is the host's speed in calibration steps per second —
	// the fastest burst observed across the run's interleaved
	// repetitions — and Scale is RefCalibration/Calibration, the factor
	// that turns every raw rate into its normalized one.
	Calibration float64 `json:"calibration_steps_per_sec"`
	Scale       float64 `json:"scale"`

	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one measured rate of the fixed suite.
type Benchmark struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	// Iters is the per-repetition iteration count and Repeats the number
	// of timed repetitions; the reported rates come from the fastest
	// repetition (min-of-N), the standard defense against scheduler and
	// frequency noise on shared hosts.
	Iters   int `json:"iters"`
	Repeats int `json:"repeats"`
	// Raw is units per second on this machine (best repetition).
	// Normalized is Raw projected onto the reference machine
	// (Raw * Report.Scale) — the figure Compare judges.
	Raw        float64 `json:"raw"`
	Normalized float64 `json:"normalized"`
}

// Options tune a suite run without changing what it measures.
type Options struct {
	// Quick cuts repetitions and iteration counts for a CI smoke run.
	// The per-iteration workload is identical, so quick and full rates
	// are comparable (quick is just noisier).
	Quick bool
	// Repeats overrides the repetition count (0: 16 full, 12 quick).
	Repeats int
}

func (o Options) repeats() int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	if o.Quick {
		return 12
	}
	return 16
}

func (o Options) scaled(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// calSteps is the calibration loop length per timed repetition: long
// enough to amortize timer overhead, short enough to repeat several
// times.
const calSteps = 1 << 22

// calBufWords sizes the calibration loop's scan buffer: 8 MiB, past any
// last-level cache, so every step touches DRAM.
const calBufWords = 1 << 20

// calBuf is the calibration scan buffer, built once by initCal before
// any timed burst.
var calBuf []uint64

func initCal() {
	if calBuf != nil {
		return
	}
	calBuf = make([]uint64, calBufWords)
	for i := range calBuf {
		calBuf[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
}

// calSink keeps calibrationLoop's allocations reachable within a burst
// so the compiler cannot stack-allocate or elide them.
var calSink []byte

// calibrationLoop advances a xorshift64 state n times; each step also
// reads and writes a pseudo-random word of the 8 MiB scan buffer, and
// every 64th step allocates a small heap object. It is the fixed unit of
// "machine speed", chosen to resemble the suite's own instruction mix:
// dependent ALU work, cache-missing loads and stores, and real allocator
// and GC traffic. The closer the mix, the more of the host's contention
// — CPU steal, memory bandwidth, allocator slow paths — hits the
// calibration and the benchmarks proportionally and cancels in the
// normalized rate; a pure register loop would be blind to everything but
// CPU speed.
func calibrationLoop(n int) uint64 {
	x := uint64(0x9E3779B97F4A7C15)
	var s uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (calBufWords - 1)
		s += calBuf[j]
		calBuf[j^1] = s
		if i&63 == 0 {
			calSink = make([]byte, 64)
			calSink[0] = byte(x)
		}
	}
	return x + s + uint64(calSink[0])
}

// Calibrate measures the host's speed in calibration steps per second,
// taking the fastest of reps timed runs.
func Calibrate(reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	initCal()
	best := time.Duration(1<<63 - 1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		sink += calibrationLoop(calSteps)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return calSteps / best.Seconds()
}

// benchmark is one suite entry: setup returns (units per iteration, the
// iteration body). Units are whatever the Unit string says — events,
// accesses, cells, bytes.
type benchmark struct {
	name  string
	unit  string
	setup func(o Options) (units float64, iter func() error, err error)
}

// burstSteps is the per-repetition calibration burst: ~10ms on the
// reference machine, long enough to sample the repetition's contention.
const burstSteps = calSteps / 4

// oneRep times a single (calibration burst, iters×iter) pair, folds the
// repetition's raw rate into the benchmark record if it beats the best
// so far, and returns the burst's calibration rate. Raw rates and
// calibration rates are best-cased *independently* across the run: each
// is a noisy under-estimate of a stable machine property, so min-of-N
// converges both, whereas best-casing their ratio per repetition would
// systematically inflate it (a repetition whose burst ran slow looks
// anomalously fast after normalization).
func oneRep(b *Benchmark, units float64, iter func() error, iters int) (cal float64, err error) {
	// Collect before timing (as testing.B does): a collection falling
	// inside the window would otherwise charge accumulated GC debt to
	// this repetition.
	runtime.GC()
	start := time.Now()
	sink += calibrationLoop(burstSteps)
	cal = burstSteps / time.Since(start).Seconds()
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := iter(); err != nil {
			return 0, err
		}
	}
	if rate := units * float64(iters) / time.Since(start).Seconds(); rate > b.Raw {
		b.Raw = rate
	}
	return cal, nil
}

// suite is the fixed benchmark list. Order is the report order.
func suite() []benchmark {
	return []benchmark{
		{name: "replay", unit: "events/sec", setup: setupReplay},
		{name: "table4", unit: "accesses/sec", setup: setupTable4},
		{name: "parallel-grid", unit: "cells/sec", setup: setupGrid},
		{name: "checkpoint", unit: "bytes/sec", setup: setupCheckpoint},
	}
}

// setupReplay records the golden table4 corpus trace once and replays it
// (boot, re-execute, verify every event) per iteration.
func setupReplay(Options) (float64, func() error, error) {
	var tr *replay.Trace
	for _, spec := range workload.TraceCorpus() {
		if spec.Name == "table4-vdom-x86" {
			tr = spec.Record()
			break
		}
	}
	if tr == nil {
		return 0, nil, fmt.Errorf("perf: corpus trace table4-vdom-x86 not found")
	}
	iter := func() error {
		res, err := replay.Run(tr, replay.Options{})
		if err != nil {
			return err
		}
		if res.Divergence != nil {
			return fmt.Errorf("perf: replay diverged: %s", res.Divergence)
		}
		return nil
	}
	return float64(len(tr.Events)), iter, nil
}

// setupTable4 runs Table 4's headline cells — the switch-triggering
// activation pattern at 64 vdoms on VDom, libmpk, and EPK — counting
// domain activations (each one an MMU access that rewrites the
// permission register or its baseline equivalent).
func setupTable4(Options) (float64, func() error, error) {
	cfgs := []workload.PatternConfig{
		{Arch: cycles.X86, System: workload.PatternVDomSecure,
			Pattern: workload.SwitchTriggering, NumVdoms: 64, Rounds: 6},
		{Arch: cycles.X86, System: workload.PatternLibmpk,
			Pattern: workload.Sequential, NumVdoms: 64, Rounds: 6},
		{Arch: cycles.X86, System: workload.PatternEPK,
			Pattern: workload.SwitchTriggering, NumVdoms: 64, Rounds: 6},
	}
	units := 0
	for _, cfg := range cfgs {
		units += workload.RunPattern(cfg).Activations
	}
	iter := func() error {
		for _, cfg := range cfgs {
			workload.RunPattern(cfg)
		}
		return nil
	}
	return float64(units), iter, nil
}

// setupGrid fans a fixed Table-4-style grid — (system, pattern, vdom
// count) cells, one isolated System each — across the internal/par
// worker pool, measuring completed cells per second at full pool width.
func setupGrid(Options) (float64, func() error, error) {
	type cellSpec struct {
		sys workload.PatternSystem
		pat workload.Pattern
		n   int
	}
	var specs []cellSpec
	for _, sys := range []workload.PatternSystem{
		workload.PatternVDomSecure, workload.PatternVDomEvict,
		workload.PatternLibmpk, workload.PatternEPK,
	} {
		for _, pat := range []workload.Pattern{workload.Sequential, workload.SwitchTriggering} {
			for _, n := range []int{4, 16, 32, 64} {
				specs = append(specs, cellSpec{sys, pat, n})
			}
		}
	}
	jobs := make([]func() struct{}, len(specs))
	for i := range jobs {
		s := specs[i]
		jobs[i] = func() struct{} {
			workload.RunPattern(workload.PatternConfig{
				Arch: cycles.X86, System: s.sys, Pattern: s.pat,
				NumVdoms: s.n, Rounds: 3,
			})
			return struct{}{}
		}
	}
	iter := func() error {
		par.Map(0, jobs)
		return nil
	}
	return float64(len(jobs)), iter, nil
}

// setupCheckpoint steps a seeded chaos soak to mid-run and measures full
// System capture+encode (vdom-snap/v2) throughput in snapshot bytes per
// second.
func setupCheckpoint(Options) (float64, func() error, error) {
	s := chaos.StartSoak(chaos.SoakConfig{
		Chaos: chaos.Config{
			Seed:           7,
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
	})
	for i := 0; i < 500; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		return 0, nil, err
	}
	iter := func() error {
		_, err := s.Checkpoint()
		return err
	}
	return float64(len(snap)), iter, nil
}

// iterCounts fixes each benchmark's per-repetition iteration count
// (full, quick). The counts only trade noise against wall clock; rates
// are per-iteration and comparable across them.
var iterCounts = map[string][2]int{
	"replay":        {40, 20},
	"table4":        {8, 5},
	"parallel-grid": {4, 2},
	"checkpoint":    {60, 30},
}

// Run executes the fixed suite and returns the vdom-perf/v1 report.
func Run(o Options) (*Report, error) {
	rep := &Report{
		Version: Version,
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
		GoVer:   runtime.Version(),
		CPUs:    runtime.NumCPU(),
		Quick:   o.Quick,
	}
	initCal()
	// Set every benchmark up first, then round-robin the repetitions:
	// rep 1 of each benchmark, rep 2 of each, ... Contention episodes on
	// shared hosts last seconds — long enough to swallow all of one
	// benchmark's back-to-back repetitions but not the whole suite — so
	// spreading each benchmark's repetitions across the full run lets
	// min-of-N find a clean window for every benchmark.
	type prepared struct {
		units float64
		iter  func() error
	}
	var runs []prepared
	reps := o.repeats()
	for _, b := range suite() {
		units, iter, err := b.setup(o)
		if err != nil {
			return nil, fmt.Errorf("perf: %s: %w", b.name, err)
		}
		n := iterCounts[b.name]
		runs = append(runs, prepared{units, iter})
		rep.Benchmarks = append(rep.Benchmarks, Benchmark{
			Name: b.name, Unit: b.unit,
			Iters: o.scaled(n[0], n[1]), Repeats: reps,
		})
	}
	for r := 0; r < reps; r++ {
		for i := range runs {
			b := &rep.Benchmarks[i]
			cal, err := oneRep(b, runs[i].units, runs[i].iter, b.Iters)
			if err != nil {
				return nil, fmt.Errorf("perf: %s: %w", b.Name, err)
			}
			if cal > rep.Calibration {
				rep.Calibration = cal
			}
		}
	}
	rep.Scale = RefCalibration / rep.Calibration
	for i := range rep.Benchmarks {
		rep.Benchmarks[i].Normalized = rep.Benchmarks[i].Raw * rep.Scale
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON with a trailing newline
// (the committed-baseline format).
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadFile loads a vdom-perf/v1 report, rejecting other versions.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("perf: %s: version %q, want %q", path, r.Version, Version)
	}
	return &r, nil
}

// Regression is one benchmark whose normalized rate fell below the
// baseline by more than the threshold, or that vanished from the suite.
type Regression struct {
	Name string
	// Baseline and Current are normalized rates (units/sec on the
	// reference machine); Drop is 1 - Current/Baseline.
	Baseline float64
	Current  float64
	Drop     float64
}

// Compare checks cur against base benchmark-by-benchmark on normalized
// rates and returns the regressions: benchmarks slower than
// base*(1-threshold), and baseline benchmarks missing from cur.
// Improvements never fail — refresh the baseline to bank them (see
// PERFORMANCE.md).
func Compare(base, cur *Report, threshold float64) []Regression {
	current := make(map[string]Benchmark, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		current[b.Name] = b
	}
	var regs []Regression
	for _, want := range base.Benchmarks {
		got, ok := current[want.Name]
		if !ok {
			regs = append(regs, Regression{Name: want.Name, Baseline: want.Normalized, Drop: 1})
			continue
		}
		if want.Normalized <= 0 {
			continue
		}
		if drop := 1 - got.Normalized/want.Normalized; drop > threshold {
			regs = append(regs, Regression{
				Name: want.Name, Baseline: want.Normalized,
				Current: got.Normalized, Drop: drop,
			})
		}
	}
	return regs
}
