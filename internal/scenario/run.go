package scenario

import (
	"fmt"
	"sort"
	"strings"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
	"vdom/internal/tap"
)

// Cell region layout: every client owns Domains+1 regions of regionPages
// pages each — slots [0, Domains) are protected domain memory, the last
// slot is unprotected scratch the "plain" op mix touches.
const (
	regionBase   = pagetable.VAddr(0x4000_0000)
	clientStride = 0x100_0000
	slotStride   = 0x10_0000
	regionPages  = 4
	regionBytes  = regionPages * pagetable.PageSize
)

// regionAddr is the base address of one client's slot.
func regionAddr(client, slot int) pagetable.VAddr {
	return regionBase + pagetable.VAddr(client*clientStride+slot*slotStride)
}

// CellOptions configures one cell execution.
type CellOptions struct {
	// Metrics, when non-nil, receives the run's per-(layer, op) cycle
	// attribution.
	Metrics *metrics.Registry
	// Record captures the run as a vdom-trace/v1 recording in
	// CellResult.Trace.
	Record bool
}

// CellResult is one executed cell's outcome.
type CellResult struct {
	Cell Cell
	// Ops is the number of main-loop operations executed; Activations,
	// Churns, Plain break them down by mix branch. Reuses counts churn
	// reallocations that fell back to the freed slot id because the
	// kernel's fixed domain capacity was exhausted (EPK's monotonic
	// allocator). Faulted counts operations that returned a typed,
	// tolerated pushback outcome (tap.ClassPushback).
	Ops, Activations, Churns, Reuses, Plain, Faulted uint64
	// Cycles is the summed cost of every operation the cell drove.
	Cycles uint64
	// Injected and Recovered echo the chaos injector's totals (zero for
	// fault-free cells).
	Injected, Recovered uint64
	// EndDigest fingerprints the end state (replay.EndState over the
	// final clock), the value the determinism regression compares across
	// parallel widths.
	EndDigest uint64
	// Trace is the recording when CellOptions.Record was set.
	Trace *replay.Trace
}

// RunCell boots the cell's platform from its forged header and drives
// the seeded client/domain schedule through the backend's DomainOps
// adapter. The run is fully deterministic: every random decision comes
// from the cell's private xoshiro stream, and injected faults come from
// the chaos injector's own stream seeded from the cell seed — so the
// same cell produces identical results at any parallel width, and a
// recorded cell replays bit-identically through chaos.ReplayTrace.
func RunCell(c Cell, opt CellOptions) (*CellResult, error) {
	h := c.Header()
	sys, err := replay.Boot(h)
	if err != nil {
		return nil, err
	}
	b, ok := backend.Get(c.Kernel)
	if !ok {
		return nil, fmt.Errorf("%w: unknown kernel %q", ErrBadRecord, c.Kernel)
	}

	var in *chaos.Injector
	if c.Faults.Any() {
		in = chaos.New(c.Faults.Config(c.Seed))
		in.AttachSystem(sys)
	}
	var rec *replay.Recorder
	if opt.Record {
		rec = replay.NewRecorder(h)
		rec.AttachSystem(sys)
	}
	if sys.Kernel != nil {
		sys.Kernel.SetMetrics(opt.Metrics)
	}
	for _, bk := range backend.All() {
		if bk.Present(sys) {
			bk.SetMetrics(sys, opt.Metrics)
		}
	}

	res := &CellResult{Cell: c}
	// fault tolerates pushback by counting it; any other error aborts
	// the cell.
	fault := func(err error) error {
		if err == nil {
			return nil
		}
		if tap.ClassOf(err) == tap.ClassPushback {
			res.Faulted++
			return nil
		}
		return err
	}

	ops := b.Ops(sys)
	rng := sim.NewRand(c.Seed)
	var clock uint64

	// Spawn one task per client, round-robin over cores, and map every
	// client's domain slots plus the scratch region.
	tasks := make([]*kernel.Task, c.Clients)
	for i := range tasks {
		tk := sys.Proc.NewTask(i % c.Cores)
		if rec != nil {
			rec.Spawn(tk)
		}
		tasks[i] = tk
		for s := 0; s <= c.Domains; s++ {
			cost, err := tk.Mmap(regionAddr(i, s), regionBytes, true)
			clock += uint64(cost)
			if err != nil {
				return nil, fmt.Errorf("scenario: cell %s/%s/%d: mmap client %d slot %d: %v",
					c.Scenario, c.Phase, c.Step, i, s, err)
			}
		}
		cost, err := ops.PrepareThread(tk, c.Domains+1)
		clock += uint64(cost)
		if e := fault(err); e != nil {
			return nil, fmt.Errorf("scenario: prepare thread %d: %v", i, e)
		}
	}

	ids := make([][]uint64, c.Clients)
	life := make([][]int, c.Clients)
	for i := range ids {
		ids[i] = make([]uint64, c.Domains)
		life[i] = make([]int, c.Domains)
	}

	// churn releases a slot's domain (unless this is the initial
	// allocation) and reallocates it. A capacity-exhausted reallocation
	// reuses the freed slot id — on EPK, Free is a cost-model no-op, so
	// the id stays switchable and the cell degrades gracefully instead
	// of dying.
	churn := func(cl, s int, first bool) error {
		tk := tasks[cl]
		old := ids[cl][s]
		if !first {
			cost, err := ops.Free(tk, old)
			clock += uint64(cost)
			if e := fault(err); e != nil {
				return e
			}
			res.Churns++
		}
		id, cost, err := ops.Alloc(tk)
		clock += uint64(cost)
		if err != nil {
			if e := fault(err); e != nil {
				return e
			}
			id = old
			if tap.CodeOf(err) == tap.CodeDomainCapacity && !first {
				res.Reuses++
			}
		}
		ids[cl][s] = id
		cost, err = ops.Protect(tk, regionAddr(cl, s), regionBytes, id)
		clock += uint64(cost)
		if e := fault(err); e != nil {
			return e
		}
		life[cl][s] = drawLife(rng, c.Lifetime)
		return nil
	}

	for cl := 0; cl < c.Clients; cl++ {
		for s := 0; s < c.Domains; s++ {
			if err := churn(cl, s, true); err != nil {
				return nil, fmt.Errorf("scenario: initial alloc client %d slot %d: %v", cl, s, err)
			}
		}
	}

	mixTotal := c.Mix.Activate + c.Mix.Churn + c.Mix.Plain
	for op := 0; op < c.Ops; op++ {
		res.Ops++
		cl := rng.Intn(c.Clients)
		w := rng.Intn(mixTotal)
		switch {
		case w < c.Mix.Activate:
			s := rng.Intn(c.Domains)
			tk := tasks[cl]
			res.Activations++
			cost, err := ops.Activate(tk, ids[cl][s])
			clock += uint64(cost)
			if e := fault(err); e != nil {
				return nil, fmt.Errorf("scenario: activate: %v", e)
			} else if err != nil {
				continue // tolerated fault: nothing became active
			}
			page := rng.Intn(regionPages)
			write := rng.Intn(2) == 1
			cost, err = tk.Access(regionAddr(cl, s)+pagetable.VAddr(page*pagetable.PageSize), write)
			clock += uint64(cost)
			if e := fault(err); e != nil {
				return nil, fmt.Errorf("scenario: access: %v", e)
			}
			cost, err = ops.Deactivate(tk, ids[cl][s])
			clock += uint64(cost)
			if e := fault(err); e != nil {
				return nil, fmt.Errorf("scenario: deactivate: %v", e)
			}
			if life[cl][s] > 0 {
				life[cl][s]--
				if life[cl][s] == 0 {
					if err := churn(cl, s, false); err != nil {
						return nil, fmt.Errorf("scenario: lifetime churn: %v", err)
					}
				}
			}
		case w < c.Mix.Activate+c.Mix.Churn:
			s := rng.Intn(c.Domains)
			if err := churn(cl, s, false); err != nil {
				return nil, fmt.Errorf("scenario: churn: %v", err)
			}
		default:
			res.Plain++
			page := rng.Intn(regionPages)
			write := rng.Intn(2) == 1
			cost, err := tasks[cl].Access(regionAddr(cl, c.Domains)+pagetable.VAddr(page*pagetable.PageSize), write)
			clock += uint64(cost)
			if e := fault(err); e != nil {
				return nil, fmt.Errorf("scenario: plain access: %v", e)
			}
		}
	}

	res.Cycles = clock
	if in != nil {
		res.Injected = in.TotalInjected()
		res.Recovered = in.TotalRecovered()
	}
	res.EndDigest = digestEnd(replay.EndState(clock, sys))
	if rec != nil {
		res.Trace = rec.Finish()
	}
	return res, nil
}

// drawLife samples a slot's remaining activation count from the phase's
// lifetime distribution. All sampling is integer-only so the draw is
// bit-stable across platforms; 0 means the slot lives forever.
func drawLife(rng *sim.Rand, l Lifetime) int {
	mean := l.MeanOps
	switch l.Dist {
	case LifeFixed:
		return mean
	case LifeUniform:
		// Uniform over [1, 2*mean-1]: mean activations on average.
		return 1 + rng.Intn(2*mean-1)
	case LifeGeometric:
		// Geometric with success probability 1/mean, capped at 8*mean to
		// bound the tail.
		n := 1
		for n < 8*mean && rng.Intn(mean) != 0 {
			n++
		}
		return n
	default:
		return 0
	}
}

// digestEnd fingerprints an end-state map: FNV-1a over the sorted
// "key=value" lines.
func digestEnd(end map[string]uint64) uint64 {
	keys := make([]string, 0, len(end))
	for k := range end {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%d\n", k, end[k])
	}
	return replay.DigestString(sb.String())
}
