package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"vdom/internal/chaos"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/replay"
	"vdom/internal/scenario"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
	"vdom/internal/workload"
)

// result is one unit's simulated outcome. Every field is a pure function
// of the unit's inputs, so it compares exactly against a reference.
type result struct {
	// Ops is the number of simulated operations the unit completed.
	Ops uint64
	// Cycles is the simulated cycle total of those operations.
	Cycles uint64
	// Digest fingerprints the rest of the unit's simulated output.
	Digest uint64
}

// fingerprint folds the whole result into one comparable value.
func (r result) fingerprint() uint64 { return fold(r.Ops, r.Cycles, r.Digest) }

// fold is FNV-1a over a sequence of 64-bit values.
func fold(vs ...uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// digestBytes is FNV-1a over a byte string.
func digestBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// digestEnd fingerprints an end-state map in sorted key order.
func digestEnd(end map[string]uint64) uint64 {
	keys := make([]string, 0, len(end))
	for k := range end {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%d\n", k, end[k])
	}
	return h.Sum64()
}

// unit is one closed-loop step of a workload.
type unit struct {
	// run drives the unit through the simulator's public calls.
	run func(o *obs) (result, error)
	// baseline, when set, computes the unit's expected result a second,
	// independent way; setup requires the two to agree.
	baseline func() (result, error)
}

// benchWorkload is one named, seeded benchmark workload.
type benchWorkload struct {
	name string
	// prepare turns the seed into the workload's inputs, compiling them
	// where the workload has a compile step. It returns the inputs'
	// canonical bytes and the units, in execution order.
	prepare func(seed uint64, o *obs) ([]byte, []unit, error)
}

// workloads stress different layers, so that an optimisation of one is
// exercised by one workload and bypassed by another.
var workloads = []*benchWorkload{
	// The read path: activation, access, TLB, page-table walk, core
	// map/evict/switch; no codecs, no domain churn.
	{name: "table4-sweep", prepare: prepareTable4},
	// The write path: alloc/free/protect, retags, flushes, shootdowns,
	// and one boot per cell.
	{name: "scenario-churn", prepare: prepareScenarios},
	// The codecs: snapshot and replay encode/decode, boot, replay
	// verification and the auditor.
	{name: "crash-recover", prepare: prepareCrash},
}

func workloadByName(name string) (*benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// workloadRand derives a workload's private PRNG stream from the seed.
func workloadRand(seed uint64, name string) *sim.Rand {
	return sim.NewRand(seed ^ replay.DigestString(name))
}

// shuffle permutes s in place (Fisher-Yates on the workload stream).
func shuffle[T any](r *sim.Rand, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// strata returns n integers spread evenly over [lo, hi], one drawn from
// each of n equal strata, in stratum order.
func strata(rng *sim.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := hi - lo + 1
	for i := range out {
		a, b := lo+span*i/n, lo+span*(i+1)/n
		out[i] = a
		if b > a {
			out[i] += rng.Intn(b - a)
		}
	}
	return out
}

// levels is strata in a seeded order. Every seed then gets the same
// spread of a parameter and pairs it differently with the others (Latin
// hypercube sampling), which keeps a pool's totals steady from seed to
// seed.
func levels(rng *sim.Rand, n, lo, hi int) []int {
	out := strata(rng, n, lo, hi)
	shuffle(rng, out)
	return out
}

// ---- table4-sweep ----------------------------------------------------

// table4Systems lists each Table-4 system with the arches it runs on.
var table4Systems = []struct {
	sys    workload.PatternSystem
	arches []cycles.Arch
}{
	{workload.PatternVDomSecure, []cycles.Arch{cycles.X86, cycles.ARM, cycles.Power, cycles.RISCV}},
	{workload.PatternVDomEvict, []cycles.Arch{cycles.X86, cycles.ARM}},
	{workload.PatternLibmpk, []cycles.Arch{cycles.X86}},
	{workload.PatternEPK, []cycles.Arch{cycles.X86}},
	{workload.PatternDPTI, []cycles.Arch{cycles.X86, cycles.ARM}},
}

// table4Counts are the NumVdoms band centres, from below the 15 usable
// pdoms per VDS (and libmpk's key count) to far above it. The seed moves
// each cell's count up to table4JitterPct percent off its centre, so
// every seed covers the same range with different cells. The last band
// stays at the maximum: its cells set unit_ms_p99 and peak memory, and
// they are the same on every seed.
var table4Counts = []int{6, 12, 24, 48, 96, 160, 256}

// table4JitterPct bounds the seeded NumVdoms jitter.
const table4JitterPct = 5

// table4Rounds is the measured rounds per cell (after RunPattern's
// three warm-up rounds).
const table4Rounds = 2

// table4Cell is one generated Table-4 cell.
type table4Cell struct {
	Arch     cycles.Arch
	System   workload.PatternSystem
	Pattern  workload.Pattern
	NumVdoms int
	Rounds   int
}

func genTable4(seed uint64) []table4Cell {
	rng := workloadRand(seed, "table4-sweep")
	var cells []table4Cell
	for _, row := range table4Systems {
		for _, arch := range row.arches {
			for _, pat := range []workload.Pattern{workload.Sequential, workload.SwitchTriggering} {
				for b, n := range table4Counts {
					if b < len(table4Counts)-1 {
						jitter := n * table4JitterPct / 100
						n += rng.Intn(2*jitter+1) - jitter
					}
					cells = append(cells, table4Cell{
						Arch: arch, System: row.sys, Pattern: pat,
						NumVdoms: n, Rounds: table4Rounds,
					})
				}
			}
		}
	}
	return cells
}

func prepareTable4(seed uint64, _ *obs) ([]byte, []unit, error) {
	cells := genTable4(seed)
	inputs, err := json.Marshal(cells)
	if err != nil {
		return nil, nil, err
	}
	units := make([]unit, len(cells))
	for i, c := range cells {
		units[i] = unit{run: func(o *obs) (result, error) {
			r, _ := call(o, "workload.run_pattern", func() (workload.PatternResult, error) {
				return workload.RunPattern(workload.PatternConfig{
					Arch: c.Arch, System: c.System, Pattern: c.Pattern,
					NumVdoms: c.NumVdoms, Rounds: c.Rounds, Metrics: o.reg,
				}), nil
			})
			return result{
				Ops:    uint64(r.Activations),
				Cycles: r.TotalCycles,
				Digest: fold(uint64(r.Activations), r.TotalCycles, uint64(r.AvgCycles*1e6), uint64(r.AvgTouchCycles*1e6)),
			}, nil
		}}
	}
	return inputs, units, nil
}

// ---- scenario-churn --------------------------------------------------

// scenarioSpecs is the number of generated specs; each compiles to five
// cells per kernel.
const scenarioSpecs = 8

// scenarioKernels are the kernels every spec is compiled for.
var scenarioKernels = []string{"vdom", "libmpk", "epk", "dpti"}

// genScenarios builds seeded vdom-scenario/v1 specs: a ramp-up below
// pdom capacity, a burst well above it, and a churn-heavy drain, with
// short fixed or geometric lifetimes and a fault stanza on the burst or
// the drain. Domains per client stay at most 15, the scenario region
// layout's limit. Each parameter is spread over its range with levels.
func genScenarios(seed uint64) []*scenario.Spec {
	rng := workloadRand(seed, "scenario-churn")
	n := scenarioSpecs
	lv := func(lo, hi int) []int { return levels(rng, n, lo, hi) }
	var (
		arm, wide                          = lv(0, 1), lv(0, 1)
		upStart, upEnd, upDoms, upLife     = lv(2, 4), lv(8, 16), lv(2, 6), lv(2, 6)
		burstLife, burstAct, burstChurn    = lv(2, 8), lv(4, 6), lv(4, 6)
		drainClients, drainDoms, drainLife = lv(2, 8), lv(1, 15), lv(1, 3)
		upOps, burstOps, drainOps          = lv(200, 300), lv(200, 300), lv(200, 300)
		dropIPI, staleTLB, vdsFail         = lv(1, 3), lv(1, 3), lv(2, 5)
		pdomExh, spurious                  = lv(1, 3), lv(1, 2)
		// The burst's client and domain counts rise together, so the
		// pool's total of their products, which dominates its host time,
		// is the same on every seed.
		burstStart, burstEnd, burstDoms = strata(rng, n, 16, 32), strata(rng, n, 48, 64), strata(rng, n, 10, 15)
		burstSize                       = levels(rng, n, 0, n-1)
	)
	specs := make([]*scenario.Spec, n)
	for i := range specs {
		b := burstSize[i]
		arch := "x86"
		if arm[i] == 1 {
			arch = "arm"
		}
		sp := &scenario.Spec{
			Format: scenario.FormatName,
			Name:   fmt.Sprintf("churn-%d", i),
			Seed:   rng.Uint64(),
			Arch:   arch,
			Cores:  2 + 2*wide[i],
			Phases: []scenario.Phase{
				{
					Name:             "ramp-up",
					Clients:          scenario.Ramp{Start: upStart[i], End: upEnd[i], Steps: 2},
					Ops:              upOps[i],
					DomainsPerClient: upDoms[i],
					Lifetime:         scenario.Lifetime{Dist: scenario.LifeFixed, MeanOps: upLife[i]},
					Mix:              &scenario.Mix{Activate: 5, Churn: 4, Plain: 1},
				},
				{
					Name:             "burst",
					Clients:          scenario.Ramp{Start: burstStart[b], End: burstEnd[b], Steps: 2},
					Ops:              burstOps[i],
					DomainsPerClient: burstDoms[b],
					Lifetime:         scenario.Lifetime{Dist: scenario.LifeGeometric, MeanOps: burstLife[i]},
					Mix:              &scenario.Mix{Activate: burstAct[i], Churn: burstChurn[i], Plain: 1},
				},
				{
					Name:             "drain",
					Clients:          scenario.Ramp{Start: drainClients[i]},
					Ops:              drainOps[i],
					DomainsPerClient: drainDoms[i],
					Lifetime:         scenario.Lifetime{Dist: scenario.LifeFixed, MeanOps: drainLife[i]},
					Mix:              &scenario.Mix{Activate: 3, Churn: 6, Plain: 1},
				},
			},
		}
		sp.Phases[1+i%2].Faults = &scenario.FaultSpec{
			DropIPI:        0.01 * float64(dropIPI[i]),
			StaleTLB:       0.01 * float64(staleTLB[i]),
			VDSAllocFail:   0.01 * float64(vdsFail[i]),
			PdomExhaustion: 0.01 * float64(pdomExh[i]),
			SpuriousFault:  0.01 * float64(spurious[i]),
		}
		specs[i] = sp
	}
	return specs
}

func prepareScenarios(seed uint64, o *obs) ([]byte, []unit, error) {
	specs := genScenarios(seed)
	var inputs []byte
	var units []unit
	for _, sp := range specs {
		inputs = append(inputs, scenario.Encode(sp)...)
		for _, k := range scenarioKernels {
			plan, err := call(o, "scenario.compile", func() (*scenario.Plan, error) { return scenario.Compile(sp, k) })
			if err != nil {
				return nil, nil, fmt.Errorf("compile %s for %s: %w", sp.Name, k, err)
			}
			for _, c := range plan.Cells {
				units = append(units, unit{run: func(o *obs) (result, error) {
					r, err := call(o, "scenario.run_cell", func() (*scenario.CellResult, error) {
						return scenario.RunCell(c, scenario.CellOptions{Metrics: o.reg})
					})
					if err != nil {
						return result{}, err
					}
					o.count("scenario.ops", r.Ops)
					o.count("scenario.faulted", r.Faulted)
					o.count("chaos.injected", r.Injected)
					o.count("chaos.recovered", r.Recovered)
					return result{
						Ops:    r.Ops,
						Cycles: r.Cycles,
						Digest: fold(r.Activations, r.Churns, r.Reuses, r.Plain, r.Faulted, r.Injected, r.Recovered, r.EndDigest),
					}, nil
				}})
			}
		}
	}
	shuffle(workloadRand(seed, "scenario-churn/order"), units)
	return inputs, units, nil
}

// ---- crash-recover ---------------------------------------------------

// crashUnits is the number of generated crash-recover units.
const crashUnits = 48

// crashCase is one generated crash-recover unit.
type crashCase struct {
	Soak chaos.SoakConfig
	// Kind is the crash struck before op CrashOp; the checkpoint that
	// recovery restores is taken after op CheckpointOp.
	Kind         chaos.CrashKind
	CheckpointOp int
	CrashOp      int
}

// genCrash draws the crash-recover cases, each parameter spread over its
// range with levels; every crash kind gets the same share. Injected
// faults can, rarely, defeat every degradation path (an unrecovered op):
// a case whose plain soak shows one gets a fresh fault seed, so no unit
// of the workload fails by design.
func genCrash(seed uint64) []crashCase {
	rng := workloadRand(seed, "crash-recover")
	n := crashUnits
	lv := func(lo, hi int) []int { return levels(rng, n, lo, hi) }
	var (
		ops, cores, threads, vdoms, arm = lv(120, 240), lv(2, 3), lv(2, 6), lv(16, 40), lv(0, 1)
		dropIPI, delayIPI, staleTLB     = lv(2, 5), lv(2, 5), lv(1, 3)
		asidExh, vdsFail, pdomExh       = lv(0, 2), lv(2, 5), lv(2, 5)
		spurious, ckptAt, crashAt       = lv(1, 2), lv(0, 99), lv(0, 99)
	)
	cases := make([]crashCase, n)
	for i := range cases {
		arch := cycles.X86
		if arm[i] == 1 {
			arch = cycles.ARM
		}
		// The checkpoint falls in the soak's second quarter and the crash
		// after it, by the end of the third quarter.
		ckpt := ops[i]/4 + ckptAt[i]*(ops[i]/4)/100
		c := crashCase{
			Soak: chaos.SoakConfig{
				Chaos: chaos.Config{
					DropIPI:        0.01 * float64(dropIPI[i]),
					DelayIPI:       0.01 * float64(delayIPI[i]),
					StaleTLB:       0.01 * float64(staleTLB[i]),
					ASIDExhaustion: 0.01 * float64(asidExh[i]),
					ASIDLimit:      24,
					VDSAllocFail:   0.01 * float64(vdsFail[i]),
					PdomExhaustion: 0.01 * float64(pdomExh[i]),
					SpuriousFault:  0.01 * float64(spurious[i]),
				},
				Ops:        ops[i],
				Cores:      cores[i],
				Threads:    threads[i],
				Vdoms:      vdoms[i],
				AuditEvery: 32,
				Arch:       arch,
				Record:     true,
			},
			Kind:         chaos.CrashKind(i % 3),
			CheckpointOp: ckpt,
			CrashOp:      ckpt + 1 + crashAt[i]*(3*ops[i]/4-ckpt-1)/100,
		}
		for {
			c.Soak.Chaos.Seed = rng.Uint64()
			if res := chaos.Soak(c.Soak); len(res.Unrecovered) == 0 && len(res.Violations) == 0 {
				break
			}
		}
		cases[i] = c
	}
	return cases
}

func prepareCrash(seed uint64, _ *obs) ([]byte, []unit, error) {
	cases := genCrash(seed)
	inputs, err := json.Marshal(cases)
	if err != nil {
		return nil, nil, err
	}
	units := make([]unit, len(cases))
	for i, c := range cases {
		units[i] = unit{
			run:      func(o *obs) (result, error) { return runCrash(c, o) },
			baseline: func() (result, error) { return runUninterrupted(c) },
		}
	}
	return inputs, units, nil
}

// stepTo drives the soak through op last (inclusive).
func stepTo(o *obs, s *chaos.SoakRun, last int) {
	call(o, "chaos.step", func() (struct{}, error) {
		for s.NextOp() <= last && s.Step() {
		}
		return struct{}{}, nil
	})
}

// runCrash is one crash-recover unit: a recorded soak segment with a
// checkpoint (whose bytes are also decoded and restored on their own, as
// a standby would), a crash, detection, recovery and the rest of the
// soak, then a full encode/decode/boot/replay of the recorded trace.
func runCrash(c crashCase, o *obs) (result, error) {
	cfg := c.Soak
	cfg.Metrics = o.reg
	s, _ := call(o, "chaos.start_soak", func() (*chaos.SoakRun, error) { return chaos.StartSoak(cfg), nil })
	stepTo(o, s, c.CheckpointOp)
	snap, err := call(o, "snapshot.checkpoint", s.Checkpoint)
	if err != nil {
		return result{}, err
	}
	o.count("snapshot.bytes", uint64(len(snap)))
	st, err := call(o, "snapshot.decode", func() (*snapshot.State, error) { return snapshot.Decode(snap) })
	if err != nil {
		return result{}, err
	}
	if _, err := call(o, "snapshot.restore", func() (*replay.System, error) {
		sys, _, err := snapshot.Restore(st)
		return sys, err
	}); err != nil {
		return result{}, err
	}
	stepTo(o, s, c.CrashOp-1)
	// The audit just before the crash is the baseline: an injected stale
	// TLB entry still in flight at this op boundary is part of the state
	// recovery must reproduce, so the recovered system may show it too.
	before, _ := call(o, "chaos.audit", func() ([]chaos.Violation, error) { return s.AuditNow(), nil })
	call(o, "chaos.crash", func() (string, error) { return s.Crash(c.Kind), nil })
	call(o, "chaos.audit", func() ([]chaos.Violation, error) { return s.AuditNow(), nil })
	rec, err := call(o, "chaos.recover", func() (*chaos.Recovery, error) { return s.Recover(snap) })
	if err != nil {
		return result{}, err
	}
	if v := newViolations(before, rec.Violations); len(v) > 0 {
		return result{}, fmt.Errorf("post-recovery audit: %d new violation(s), first: %s", len(v), v[0])
	}
	stepTo(o, s, c.Soak.Ops)
	res, _ := call(o, "chaos.finish", func() (*chaos.SoakResult, error) { return s.Finish(), nil })
	return replayChecked(o, res)
}

// newViolations lists the violations in after that before lacks.
func newViolations(before, after []chaos.Violation) []chaos.Violation {
	seen := map[string]int{}
	for _, v := range before {
		seen[v.String()]++
	}
	var out []chaos.Violation
	for _, v := range after {
		if k := v.String(); seen[k] > 0 {
			seen[k]--
		} else {
			out = append(out, v)
		}
	}
	return out
}

// runUninterrupted runs the same soak without checkpoint or crash; a
// sound recovery leaves the crash run's result identical to it.
func runUninterrupted(c crashCase) (result, error) {
	return replayChecked(&obs{}, chaos.Soak(c.Soak))
}

// replayChecked verifies a finished soak (no unrecovered op, no audit
// finding), then encodes, decodes, boots and replays its trace from the
// first event under the re-armed injector, requiring no divergence.
func replayChecked(o *obs, res *chaos.SoakResult) (result, error) {
	if len(res.Unrecovered) > 0 {
		return result{}, fmt.Errorf("soak: unrecovered: %s", res.Unrecovered[0])
	}
	if len(res.Violations) > 0 {
		return result{}, fmt.Errorf("soak: audit: %s", res.Violations[0])
	}
	data, _ := call(o, "replay.encode", func() ([]byte, error) { return replay.Encode(res.Trace), nil })
	o.count("replay.bytes", uint64(len(data)))
	tr, err := call(o, "replay.decode", func() (*replay.Trace, error) { return replay.Decode(data) })
	if err != nil {
		return result{}, err
	}
	sys, err := call(o, "replay.boot", func() (*replay.System, error) { return replay.Boot(tr.Header) })
	if err != nil {
		return result{}, err
	}
	if cfg, ok := chaos.ConfigFromExtra(tr.Header.Extra); ok {
		chaos.New(cfg).AttachSystem(sys)
	}
	rr, err := call(o, "replay.run_tail", func() (*replay.Result, error) {
		return replay.RunTail(tr, sys, map[uint64]*kernel.Task{}, 0, 0, replay.Options{})
	})
	if err != nil {
		return result{}, err
	}
	if rr.Divergence != nil {
		return result{}, fmt.Errorf("replay diverged: %s", rr.Divergence)
	}
	o.count("replay.events", uint64(rr.Events))
	injected, recovered := sum(res.Injected), sum(res.Recovered)
	o.count("chaos.injected", injected)
	o.count("chaos.recovered", recovered)
	return result{
		Ops:    uint64(res.Ops) + uint64(rr.Events),
		Cycles: uint64(res.Cycles),
		Digest: fold(digestBytes(data), digestEnd(rr.End), rr.Cycles, injected, recovered),
	}, nil
}

func sum(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
