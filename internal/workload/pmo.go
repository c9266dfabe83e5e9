package workload

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// PMOMode selects which VDom strategy the String Replace benchmark uses
// when a PMO's vdom is not reachable (Figure 7 compares both).
type PMOMode int

const (
	// PMOSwitch lets threads own several VDSes and switch pgd between
	// them (nas sized to hold all PMOs).
	PMOSwitch PMOMode = iota
	// PMOEvict pins each thread to one VDS (nas=1), forcing HLRU
	// evictions.
	PMOEvict
)

// PMOConfig describes one String Replace run (Figure 7): 64 persistent
// memory objects of 2 MiB, each protected by its own domain, with threads
// doing random substring search-and-replace operations.
type PMOConfig struct {
	Arch    cycles.Arch
	System  System
	Threads int
	// OpsPerThread defaults to 4000 (the paper runs 4,000,000; scaled
	// down, steady state is unchanged).
	OpsPerThread int
	// NumPMOs defaults to 64.
	NumPMOs int
	// Mode selects VDS-switch vs eviction for System == VDom.
	Mode PMOMode
	// LibmpkMode selects 4 KiB pages or 2 MiB huge pages for libmpk.
	LibmpkMode libmpk.PageMode
	// Cores defaults to the platform's hardware-thread count.
	Cores int
	Seed  uint64
	// Record, when non-nil, captures the run's domain-op stream
	// (internal/replay).
	Record *replay.Recorder
}

func (c *PMOConfig) defaults() {
	if c.OpsPerThread == 0 {
		c.OpsPerThread = 4000
	}
	if c.NumPMOs == 0 {
		c.NumPMOs = 64
	}
	if c.Cores == 0 {
		c.Cores = DefaultCores(c.Arch)
	}
	if c.Seed == 0 {
		c.Seed = 0x9e0
	}
}

// PMOResult is one run's outcome.
type PMOResult struct {
	Config    PMOConfig
	Ops       int
	Makespan  sim.Time
	VDomStats core.Stats
}

// pmoCosts: one operation is ≈10,000 cycles on the Xeon (§7.6): a 512 B
// substring search plus the replacement write-back.
type pmoCosts struct {
	searchUser  cycles.Cost
	replaceUser cycles.Cost
}

func pmoCostsFor(arch cycles.Arch) pmoCosts {
	switch arch {
	case cycles.ARM:
		return pmoCosts{searchUser: 22_000, replaceUser: 8_000}
	case cycles.Power:
		return pmoCosts{searchUser: 6_000, replaceUser: 2_000}
	default:
		return pmoCosts{searchUser: 7_200, replaceUser: 2_400}
	}
}

const pmoBytes = 2 << 20 // 2 MiB per PMO

// RunPMO executes one String Replace configuration.
func RunPMO(cfg PMOConfig) PMOResult {
	cfg.defaults()
	pl := newPlatform(cfg.Arch, cfg.Cores, cfg.System == VDom || cfg.System == VDomLowerbound, cfg.Seed)
	costs := pmoCostsFor(cfg.Arch)

	var (
		mgr     *core.Manager
		lbm     *libmpk.Manager
		lbmLock *sim.Resource
		esys    *epk.System
	)
	switch cfg.System {
	case VDom, VDomLowerbound:
		mgr = core.Attach(pl.proc, core.DefaultPolicy())
	case Libmpk:
		lbm = libmpk.Attach(pl.proc, nil)
		lbm.SetPageMode(cfg.LibmpkMode)
		lbmLock = pl.env.NewResource(1)
	case EPK:
		esys = epk.New(cfg.NumPMOs, epk.DefaultVMTax())
	}
	if rec := cfg.Record; rec != nil {
		rec.AttachSystem(&replay.System{Kernel: pl.kernel, Proc: pl.proc, Manager: mgr, Libmpk: lbm, EPK: esys})
	}

	// Map and protect the PMOs.
	setup := pl.proc.NewTask(0)
	if cfg.Record != nil {
		cfg.Record.Spawn(setup)
	}
	bases := make([]pagetable.VAddr, cfg.NumPMOs)
	doms := make([]core.VdomID, cfg.NumPMOs)
	keys := make([]libmpk.Vkey, cfg.NumPMOs)
	var lowDom core.VdomID
	if cfg.System == VDomLowerbound {
		if _, err := mgr.VdrAlloc(setup, 0); err != nil {
			panic(err)
		}
		lowDom, _ = mgr.AllocVdom(true)
	}
	for i := range bases {
		bases[i] = pl.mustAlloc(setup, pmoBytes)
		switch cfg.System {
		case VDom:
			doms[i], _ = mgr.AllocVdom(false)
			if _, err := mgr.Mprotect(setup, bases[i], pmoBytes, doms[i]); err != nil {
				panic(err)
			}
		case VDomLowerbound:
			doms[i] = lowDom
			if _, err := mgr.Mprotect(setup, bases[i], pmoBytes, lowDom); err != nil {
				panic(err)
			}
		case Libmpk:
			keys[i], _ = lbm.PkeyAlloc()
			if _, err := lbm.PkeyMprotect(nil, setup, bases[i], pmoBytes, keys[i]); err != nil {
				panic(err)
			}
		}
	}

	// Worker threads.
	nasFor := func() int {
		if cfg.Mode == PMOEvict {
			return 1
		}
		// Enough address spaces to hold every PMO domain at once.
		return (cfg.NumPMOs+core.UsablePdomsPerVDS-1)/core.UsablePdomsPerVDS + 1
	}
	type worker struct {
		task *kernel.Task
		id   int
	}
	workers := make([]*worker, cfg.Threads)
	for i := range workers {
		workers[i] = &worker{task: pl.proc.NewTask((i + 1) % cfg.Cores), id: i}
		if cfg.Record != nil {
			cfg.Record.Spawn(workers[i].task)
		}
		if cfg.System == VDom || cfg.System == VDomLowerbound {
			if _, err := mgr.VdrAlloc(workers[i].task, nasFor()); err != nil {
				panic(err)
			}
		}
	}

	totalOps := cfg.Threads * cfg.OpsPerThread
	for _, w := range workers {
		w := w
		rng := sim.NewRand(cfg.Seed ^ uint64(w.id)<<24)
		pl.env.Go(fmt.Sprintf("pmo-worker-%d", w.id), func(p *sim.Proc) {
			for op := 0; op < cfg.OpsPerThread; op++ {
				pmoIdx := rng.Intn(cfg.NumPMOs)
				strOff := pagetable.VAddr(rng.Intn(pmoBytes/512)) * 512
				runPMOOp(pl, cfg, costs, w.task, w.id, p,
					mgr, lbm, lbmLock, esys,
					doms, keys, bases, pmoIdx, strOff)
			}
		})
	}
	makespan := pl.env.Run()
	res := PMOResult{Config: cfg, Ops: totalOps, Makespan: makespan}
	if mgr != nil {
		res.VDomStats = mgr.Stats
	}
	return res
}

// runPMOOp models one search-and-replace: grant write-disable on the PMO,
// search the string, upgrade to full access, replace, revoke.
func runPMOOp(pl *platform, cfg PMOConfig, costs pmoCosts, task *kernel.Task, tid int, p *sim.Proc,
	mgr *core.Manager, lbm *libmpk.Manager, lbmLock *sim.Resource, esys *epk.System,
	doms []core.VdomID, keys []libmpk.Vkey, bases []pagetable.VAddr, pmoIdx int, strOff pagetable.VAddr) {

	run := func(body func() cycles.Cost) {
		pl.sched.Run(p, task, body)
	}
	addr := bases[pmoIdx] + strOff
	touch := func(write bool) cycles.Cost {
		c, err := task.Access(addr, write)
		if err != nil {
			panic(fmt.Sprintf("pmo: access PMO %d at %#x: %v", pmoIdx, uint64(addr), err))
		}
		return c
	}

	switch cfg.System {
	case Original:
		run(func() cycles.Cost { return touch(false) + costs.searchUser })
		run(func() cycles.Cost { return touch(true) + costs.replaceUser })

	case VDom, VDomLowerbound:
		d := doms[pmoIdx]
		run(func() cycles.Cost {
			c, err := mgr.WrVdr(task, d, core.VPermRead)
			if err != nil {
				panic(err)
			}
			return c + touch(false) + costs.searchUser
		})
		run(func() cycles.Cost {
			c, err := mgr.WrVdr(task, d, core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			c += touch(true) + costs.replaceUser
			c2, err := mgr.WrVdr(task, d, core.VPermNone)
			if err != nil {
				panic(err)
			}
			return c + c2
		})

	case Libmpk:
		libmpkAcquire(pl.sched, p, lbmLock, lbm, task, keys[pmoIdx], hw.PermRead)
		run(func() cycles.Cost { return touch(false) + costs.searchUser })
		// Upgrade (key already resident: cheap) and revoke.
		run(func() cycles.Cost {
			c, err := lbm.PkeySet(nil, task, keys[pmoIdx], hw.PermReadWrite)
			if err != nil {
				panic(err)
			}
			c2 := touch(true) + costs.replaceUser
			c3, err := lbm.PkeySet(nil, task, keys[pmoIdx], hw.PermNone)
			if err != nil {
				panic(err)
			}
			return c + c2 + c3
		})

	case EPK:
		run(func() cycles.Cost {
			c := esys.Switch(tid, pmoIdx)
			return c + esys.WorkInVM(costs.searchUser, 0)
		})
		run(func() cycles.Cost {
			// Upgrade and revoke are in-group register writes.
			return 2*epk.MPKSwitchCycles + esys.WorkInVM(costs.replaceUser, 0)
		})
	}
}
