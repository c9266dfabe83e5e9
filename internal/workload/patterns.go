package workload

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
)

// Pattern is a domain access order (Table 4).
type Pattern int

const (
	// Sequential iterates vdom 0..N-1 in order.
	Sequential Pattern = iota
	// SwitchTriggering traverses vdoms with strides so consecutive
	// accesses land in different address-space groups, forcing a VDS
	// (or EPT) switch on nearly every access.
	SwitchTriggering
)

// String names the pattern as Table 4 does.
func (p Pattern) String() string {
	if p == SwitchTriggering {
		return "trig"
	}
	return "seq"
}

// PatternSystem selects the Table 4 row family.
type PatternSystem int

// The Table 4 row families.
const (
	// PatternVDomSecure is VDom with the secure X86 call gate (X86s) or
	// the ARM kernel path.
	PatternVDomSecure PatternSystem = iota
	// PatternVDomFast is VDom with the fast X86 API (X86f).
	PatternVDomFast
	// PatternVDomEvict is VDom restricted to one address space
	// (X86e/ARMe): evictions instead of VDS switches.
	PatternVDomEvict
	// PatternLibmpk is the libmpk baseline.
	PatternLibmpk
	// PatternEPK is the EPK baseline (cycle model).
	PatternEPK
	// PatternDPTI is the per-domain-page-table baseline: activation is a
	// domain Enter (pgd switch), so every switch pays address-space
	// change plus TLB refill instead of a key-register write.
	PatternDPTI
)

// String names the row family.
func (s PatternSystem) String() string {
	switch s {
	case PatternVDomSecure:
		return "VDom-secure"
	case PatternVDomFast:
		return "VDom-fast"
	case PatternVDomEvict:
		return "VDom-evict"
	case PatternLibmpk:
		return "libmpk"
	case PatternEPK:
		return "EPK"
	case PatternDPTI:
		return "DPTI"
	default:
		return fmt.Sprintf("PatternSystem(%d)", int(s))
	}
}

// PatternConfig describes one Table 4 measurement: a single thread
// activating N 2 MiB (512-page) vdoms in a given order and measuring the
// average cycles of each activating wrvdr (or pkey_set / EPT switch).
type PatternConfig struct {
	Arch     cycles.Arch
	System   PatternSystem
	Pattern  Pattern
	NumVdoms int
	// Rounds of measurement after warm-up (default 12 + 3 warm-up).
	Rounds int

	// Ablation knobs (VDom rows; NoASID also applies to DPTI rows).

	// NoASID disables ASID tagging: every pgd switch flushes the TLB.
	NoASID bool
	// StrictLRU disables the HLRU last-pdom heuristic.
	StrictLRU bool
	// NoPMDOpt disables the PMD-disable eviction fast path.
	NoPMDOpt bool
	// FlushThresholdPages overrides the range-flush/ASID-flush cutoff.
	FlushThresholdPages uint64

	// Observability (both optional; nil costs nothing).

	// Metrics, when non-nil, is attached to every instrumented layer of
	// the cell's system, so the registry's cycle attribution sums to
	// exactly the cell's TotalCycles; the runner harvests each layer's
	// event counters when the cell finishes.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives one Chrome-trace decision span per
	// domain-activation outcome (map/evict/switch/migrate for VDom
	// rows, pkey-set / ept-switch for the baselines), timestamped on
	// the cell's cumulative cycle clock.
	Trace *metrics.Trace
	// Record, when non-nil, captures the cell's domain-op stream
	// (internal/replay); the caller attaches it to a header and seals
	// the trace with Finish.
	Record *replay.Recorder
}

// PatternResult is the measured average.
type PatternResult struct {
	Config PatternConfig
	// AvgCycles is the average cost of one activating wrvdr (the Table 4
	// metric).
	AvgCycles float64
	// AvgTouchCycles is the average cost of the memory accesses that
	// follow each activation (TLB refill effects; used by the ASID
	// ablation).
	AvgTouchCycles float64
	Activations    int
	// TotalCycles is the harness's independent grand total: every cycle
	// cost the runner observed, including setup, warm-up, and
	// deactivations. When PatternConfig.Metrics is set, the registry's
	// per-(layer, op) cycle attribution sums to exactly this value.
	TotalCycles uint64
}

// order returns the access order for one round.
func order(p Pattern, n int) []int {
	idx := make([]int, 0, n)
	if p == Sequential {
		for i := 0; i < n; i++ {
			idx = append(idx, i)
		}
		return idx
	}
	// Interleave across address-space groups: position j of group g is
	// visited as (offset j, group g), so consecutive accesses alternate
	// groups whenever more than one group exists.
	group := core.UsablePdomsPerVDS
	groups := (n + group - 1) / group
	for j := 0; j < group; j++ {
		for g := 0; g < groups; g++ {
			d := g*group + j
			if d < n {
				idx = append(idx, d)
			}
		}
	}
	return idx
}

// defaults fills the unset knobs; RunPattern and patternHeader both
// apply it, so a cell and its trace header agree.
func (cfg *PatternConfig) defaults() {
	if cfg.Rounds == 0 {
		cfg.Rounds = 12
	}
}

// patternWarmup is the number of unmeasured rounds before the Rounds
// measured ones.
const patternWarmup = 3

// RunPattern executes one Table 4 cell: it boots the cell's platform
// from its trace header and drives it through the backend's kernel-
// neutral DomainOps adapter. Each domain is a fully populated 2 MiB
// region; every round activates each domain in the pattern's order,
// touches it (VDom and DPTI rows), and deactivates it again.
func RunPattern(cfg PatternConfig) PatternResult {
	cfg.defaults()
	sys, err := replay.Boot(patternHeader(cfg, ""))
	if err != nil {
		panic(err)
	}
	b := backend.Of(sys)
	ops := b.Ops(sys)
	rec := cfg.Record
	if rec != nil {
		rec.AttachSystem(sys)
	}
	// EPK cells are a standalone cost model: no process, no task, and no
	// page-level setup.
	var task *kernel.Task
	if sys.Proc != nil {
		task = sys.Proc.NewTask(0)
		if rec != nil {
			rec.Spawn(task)
		}
		sys.Kernel.SetMetrics(cfg.Metrics)
	}
	b.SetMetrics(sys, cfg.Metrics)

	// grand is the cell's cumulative cycle clock; every observed cost is
	// funnelled through add so PatternResult.TotalCycles and the trace
	// timestamps agree.
	var grand uint64
	add := func(c cycles.Cost, err error) cycles.Cost {
		if err != nil {
			panic(err)
		}
		grand += uint64(c)
		return c
	}
	// span emits a baseline's activation decision; VDom rows trace
	// through the manager's own decision events instead.
	span := func(id uint64, c cycles.Cost) {}
	if tr := cfg.Trace; tr != nil {
		name, tid, arg := "", 0, "domain"
		switch cfg.System {
		case PatternLibmpk:
			name, arg = "pkey-set", "vkey"
		case PatternEPK:
			name = "ept-switch"
		case PatternDPTI:
			name, tid = "dpti-enter", task.TID()
		default:
			sys.Manager.SetTracer(core.DecisionTracer(tr, func() uint64 { return grand }))
		}
		if name != "" {
			span = func(id uint64, c cycles.Cost) {
				tr.Decision(name, tid, grand, uint64(c), map[string]uint64{arg: id})
			}
		}
	}

	// The VDom thread gets one address space per UsablePdomsPerVDS
	// domains plus a spare (the evicting rows get exactly one); the
	// baselines ignore n.
	nas := 1
	if cfg.System != PatternVDomEvict {
		nas = (cfg.NumVdoms+core.UsablePdomsPerVDS-1)/core.UsablePdomsPerVDS + 1
	}
	add(ops.PrepareThread(task, nas))

	// populate pre-faults a domain's pages; it returns a page count, not
	// a cycle cost, so nothing is charged.
	populate := func(t *pagetable.Table, base pagetable.VAddr) {
		if _, err := sys.Proc.AS().Populate(t, base, pagetable.PMDSize); err != nil {
			panic(err)
		}
		if rec != nil {
			rec.Populate(task, base, pagetable.PMDSize, t != sys.Proc.AS().Shadow())
		}
	}

	ids := make([]uint64, cfg.NumVdoms)
	bases := make([]pagetable.VAddr, cfg.NumVdoms)
	next := pagetable.VAddr(0x30_0000_0000)
	for i := range ids {
		base := next
		next += pagetable.PMDSize * 4
		bases[i] = base
		if task != nil {
			add(task.Mmap(base, pagetable.PMDSize, true))
		}
		id, c, err := ops.Alloc(task)
		add(c, err)
		ids[i] = id
		if task == nil {
			continue
		}
		add(ops.Protect(task, base, pagetable.PMDSize, id))
		// Populate the pages in the shadow so evictions work on fully
		// present 512-page domains, as the paper's benchmark does. Each
		// DPTI domain's own table still demand-fills on first touch after
		// an Enter — the page-walk pressure that defines that baseline.
		populate(sys.Proc.AS().Shadow(), base)
		if sys.Manager != nil {
			// Activate once and populate the domain's home VDS so later
			// evictions disable all 512 pages.
			add(ops.Activate(task, id))
			populate(sys.Manager.VDROf(task).Current().Table(), base)
			add(task.Access(base, true))
			add(ops.Deactivate(task, id))
		}
	}

	// Each VDom and DPTI activation is followed by accesses spread across
	// the domain, as the paper's benchmark "accesses" its 2 MiB vdoms;
	// for DPTI they pay the pgd reload and the cold-TLB refill of the
	// fresh address space. libmpk and EPK rows measure the switch alone
	// (libmpk's eviction costs depend on the TLB state accesses leave).
	touches := 4
	if cfg.System == PatternLibmpk || cfg.System == PatternEPK {
		touches = 0
	}
	idx := order(cfg.Pattern, cfg.NumVdoms)
	var total, touchTotal cycles.Cost
	activations := 0
	for r := 0; r < patternWarmup+cfg.Rounds; r++ {
		for _, i := range idx {
			c, err := ops.Activate(task, ids[i])
			span(ids[i], c)
			add(c, err)
			var tc cycles.Cost
			for k := 0; k < touches; k++ {
				step := pagetable.VAddr(k) * (pagetable.PMDSize / pagetable.VAddr(touches))
				tc += add(task.Access(bases[i]+step, true))
			}
			if r >= patternWarmup {
				total += c
				touchTotal += tc
				activations++
			}
			add(ops.Deactivate(task, ids[i]))
		}
	}
	if cfg.Metrics != nil {
		if sys.Proc != nil {
			cfg.Metrics.Accumulate(sys.Machine, sys.Proc.AS(), sys.Kernel)
		}
		// The baselines also publish their own counters. VDom rows emit
		// no core/ counters: the Table 4 metrics snapshots are pinned
		// without them.
		switch {
		case sys.Libmpk != nil:
			sys.Libmpk.Stats.Emit(cfg.Metrics.Add)
		case sys.DPTI != nil:
			sys.DPTI.Stats.Emit(cfg.Metrics.Add)
		case sys.EPK != nil:
			sys.EPK.Stats.Emit(cfg.Metrics.Add)
		}
	}
	return PatternResult{
		Config:         cfg,
		AvgCycles:      float64(total) / float64(activations),
		AvgTouchCycles: float64(touchTotal) / float64(activations),
		Activations:    activations,
		TotalCycles:    grand,
	}
}
