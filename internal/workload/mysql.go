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

// MySQLConfig describes one MySQL/sysbench OLTP read-write run (Figure 6):
// one connection-handler thread per client, each handler's stack isolated
// in a private vdom, and the MEMORY storage engine's HP_PTRS structures
// isolated in a shared vdom that handlers open around engine calls.
type MySQLConfig struct {
	Arch    cycles.Arch
	System  System
	Clients int
	// QueriesPerClient defaults to 40.
	QueriesPerClient int
	// Cores defaults to the platform's hardware-thread count.
	Cores int
	// StatementsPerQuery is the sysbench OLTP RW statement count per
	// transaction (default 18); each statement opens the engine vdom.
	StatementsPerQuery int
	// ChurnEvery, when positive, closes and reopens each connection
	// after that many queries — the thread-cache reuse path MySQL takes
	// for incoming connections, which recycles the stack's domain.
	ChurnEvery int
	Seed       uint64
	// Record, when non-nil, captures the run's domain-op stream
	// (internal/replay).
	Record *replay.Recorder
}

func (c *MySQLConfig) defaults() {
	if c.QueriesPerClient == 0 {
		c.QueriesPerClient = 40
	}
	if c.Cores == 0 {
		c.Cores = DefaultCores(c.Arch)
	}
	if c.StatementsPerQuery == 0 {
		c.StatementsPerQuery = 18
	}
	if c.Seed == 0 {
		c.Seed = 0xdb5eed
	}
}

// MySQLResult is one run's outcome.
type MySQLResult struct {
	Config MySQLConfig
	// Supported is false when the system cannot run the configuration
	// at all — libmpk cannot provide per-thread stack protection beyond
	// 14 concurrent clients (one hardware key is taken by the engine
	// data, and stack keys are held for the connection's lifetime).
	Supported   bool
	Queries     int
	Makespan    sim.Time
	QueriesPerS float64
	VDomStats   core.Stats
	LibmpkStats libmpk.Stats
}

// mysqlCosts calibrates per-transaction work to the paper's absolute
// throughputs (≈5.5×10³ q/s on the Xeon at 48 clients, ≈1.8×10³ on the
// Pi at saturation).
type mysqlCosts struct {
	userPerQuery cycles.Cost
	kernPerQuery cycles.Cost
	// lockFrac is the serialized fraction of each query (storage-engine
	// and transaction-log mutexes), which caps scaling.
	lockFrac float64
}

func mysqlCostsFor(arch cycles.Arch) mysqlCosts {
	if arch == cycles.ARM {
		return mysqlCosts{userPerQuery: 1_900_000, kernPerQuery: 500_000, lockFrac: 0.05}
	}
	return mysqlCosts{userPerQuery: 14_000_000, kernPerQuery: 3_400_000, lockFrac: 0.02}
}

// stackPages is each connection handler's protected stack size (64 KiB).
const stackPages = 16

// handler is one connection-handler thread's state.
type handler struct {
	task     *kernel.Task
	id       int
	stack    pagetable.VAddr
	stackDom core.VdomID
	stackKey libmpk.Vkey
}

// engineRegionPages is the MEMORY-engine HP_PTRS region (10 tables).
const engineRegionPages = 10 * 8

// RunMySQL executes one MySQL configuration and reports throughput.
func RunMySQL(cfg MySQLConfig) MySQLResult {
	cfg.defaults()
	res := MySQLResult{Config: cfg, Supported: true}

	// libmpk pins one key per live connection stack plus one for the
	// engine; beyond the hardware's usable keys it busy-waits forever.
	if cfg.System == Libmpk && cfg.Clients > libmpk.UsableKeys-1 {
		res.Supported = false
		return res
	}

	pl := newPlatform(cfg.Arch, cfg.Cores, cfg.System == VDom, cfg.Seed)
	costs := mysqlCostsFor(cfg.Arch)
	totalQueries := cfg.Clients * cfg.QueriesPerClient

	var (
		mgr       *core.Manager
		lbm       *libmpk.Manager
		lbmLock   *sim.Resource
		esys      *epk.System
		engineDom core.VdomID
		engineKey libmpk.Vkey
		engineEPK int
	)
	engineLock := pl.env.NewResource(1)

	switch cfg.System {
	case VDom:
		mgr = core.Attach(pl.proc, core.DefaultPolicy())
	case Libmpk:
		lbm = libmpk.Attach(pl.proc, nil)
		lbmLock = pl.env.NewResource(1)
	case EPK:
		// Domains: one per connection stack + the engine region.
		esys = epk.New(cfg.Clients+1, epk.DefaultVMTax())
		engineEPK = 0
	}
	if rec := cfg.Record; rec != nil {
		rec.AttachSystem(&replay.System{Kernel: pl.kernel, Proc: pl.proc, Manager: mgr, Libmpk: lbm, EPK: esys})
	}

	setupTask := pl.proc.NewTask(0)
	if cfg.Record != nil {
		cfg.Record.Spawn(setupTask)
	}

	// The engine's in-memory tables.
	engineBase := pl.mustAlloc(setupTask, engineRegionPages*pagetable.PageSize)
	switch cfg.System {
	case VDom:
		if _, err := mgr.VdrAlloc(setupTask, 0); err != nil {
			panic(err)
		}
		engineDom, _ = mgr.AllocVdom(true) // frequently accessed
		if _, err := mgr.Mprotect(setupTask, engineBase, engineRegionPages*pagetable.PageSize, engineDom); err != nil {
			panic(err)
		}
	case Libmpk:
		engineKey, _ = lbm.PkeyAlloc()
		if _, err := lbm.PkeyMprotect(nil, setupTask, engineBase, engineRegionPages*pagetable.PageSize, engineKey); err != nil {
			panic(err)
		}
	}

	handlers := make([]*handler, cfg.Clients)
	for i := range handlers {
		h := &handler{task: pl.proc.NewTask((i + 1) % cfg.Cores), id: i}
		if cfg.Record != nil {
			cfg.Record.Spawn(h.task)
		}
		h.stack = pl.mustAlloc(h.task, stackPages*pagetable.PageSize)
		switch cfg.System {
		case VDom:
			if _, err := mgr.VdrAlloc(h.task, 0); err != nil {
				panic(err)
			}
			h.stackDom, _ = mgr.AllocVdom(false)
			if _, err := mgr.Mprotect(h.task, h.stack, stackPages*pagetable.PageSize, h.stackDom); err != nil {
				panic(err)
			}
			// The stack stays accessible for the connection's life.
			if _, err := mgr.WrVdr(h.task, h.stackDom, core.VPermReadWrite); err != nil {
				panic(err)
			}
		case Libmpk:
			h.stackKey, _ = lbm.PkeyAlloc()
			if _, err := lbm.PkeyMprotect(nil, h.task, h.stack, stackPages*pagetable.PageSize, h.stackKey); err != nil {
				panic(err)
			}
			if _, err := lbm.PkeySet(nil, h.task, h.stackKey, hw.PermReadWrite); err != nil {
				panic(fmt.Sprintf("mysql: stack key for client %d: %v", h.id, err))
			}
		}
		handlers[i] = h
	}

	perStmtUser := costs.userPerQuery / cycles.Cost(cfg.StatementsPerQuery)
	perStmtKern := costs.kernPerQuery / cycles.Cost(cfg.StatementsPerQuery)
	lockCycles := uint64(float64(costs.userPerQuery+costs.kernPerQuery) * costs.lockFrac)

	for _, h := range handlers {
		h := h
		rng := sim.NewRand(cfg.Seed ^ uint64(h.id)<<20)
		pl.env.Go(fmt.Sprintf("mysql-conn-%d", h.id), func(p *sim.Proc) {
			for q := 0; q < cfg.QueriesPerClient; q++ {
				runMySQLQuery(pl, cfg, h.task, h.id, p, rng,
					mgr, lbm, lbmLock, esys,
					engineDom, engineKey, engineEPK,
					engineBase, h.stack,
					perStmtUser, perStmtKern, lockCycles, engineLock)
				if cfg.ChurnEvery > 0 && (q+1)%cfg.ChurnEvery == 0 && q+1 < cfg.QueriesPerClient {
					churnConnection(pl, cfg, h, p, mgr, lbm)
				}
			}
		})
	}
	makespan := pl.env.Run()
	res.Queries = totalQueries
	res.Makespan = makespan
	if makespan > 0 {
		res.QueriesPerS = float64(totalQueries) / (float64(makespan) / ClockHz(cfg.Arch))
	}
	if mgr != nil {
		res.VDomStats = mgr.Stats
	}
	if lbm != nil {
		res.LibmpkStats = lbm.Stats
		res.LibmpkStats.BusyWaitCycles += lbmLock.WaitedCycles
	}
	return res
}

// churnConnection models connection close + thread-cache reuse: the old
// stack domain is released and a fresh one protects the recycled stack.
func churnConnection(pl *platform, cfg MySQLConfig, h *handler, p *sim.Proc,
	mgr *core.Manager, lbm *libmpk.Manager) {
	switch cfg.System {
	case VDom:
		pl.sched.Run(p, h.task, func() cycles.Cost {
			c, err := mgr.FreeVdom(h.stackDom)
			if err != nil {
				panic(err)
			}
			d, c2 := mgr.AllocVdom(false)
			h.stackDom = d
			c3, err := mgr.Mprotect(h.task, h.stack, stackPages*pagetable.PageSize, d)
			if err != nil {
				panic(err)
			}
			c4, err := mgr.WrVdr(h.task, d, core.VPermReadWrite)
			if err != nil {
				panic(err)
			}
			return c + c2 + c3 + c4
		})
	case Libmpk:
		pl.sched.Run(p, h.task, func() cycles.Cost {
			c, err := lbm.PkeyFree(h.task, h.stackKey)
			if err != nil {
				panic(err)
			}
			v, c2 := lbm.PkeyAlloc()
			h.stackKey = v
			c3, err := lbm.PkeyMprotect(nil, h.task, h.stack, stackPages*pagetable.PageSize, v)
			if err != nil {
				panic(err)
			}
			c4, err := lbm.PkeySet(nil, h.task, v, hw.PermReadWrite)
			if err != nil {
				panic(err)
			}
			return c + c2 + c3 + c4
		})
	}
}

// runMySQLQuery models one OLTP read-write transaction: per statement, the
// handler opens the engine vdom, touches table memory and its own stack,
// executes the statement's work, and closes the engine vdom; a serialized
// section models the engine/log mutexes.
func runMySQLQuery(pl *platform, cfg MySQLConfig, task *kernel.Task, tid int, p *sim.Proc, rng *sim.Rand,
	mgr *core.Manager, lbm *libmpk.Manager, lbmLock *sim.Resource, esys *epk.System,
	engineDom core.VdomID, engineKey libmpk.Vkey, engineEPK int,
	engineBase, stack pagetable.VAddr,
	perStmtUser, perStmtKern cycles.Cost, lockCycles uint64, engineLock *sim.Resource) {

	run := func(body func() cycles.Cost) {
		pl.sched.Run(p, task, body)
	}
	work := func(user, kern cycles.Cost) cycles.Cost {
		if cfg.System == EPK {
			return esys.WorkInVM(user, kern)
		}
		return user + kern
	}
	touch := func(addr pagetable.VAddr, write bool) cycles.Cost {
		c, err := task.Access(addr, write)
		if err != nil {
			panic(fmt.Sprintf("mysql: access %#x: %v", uint64(addr), err))
		}
		return c
	}

	for s := 0; s < cfg.StatementsPerQuery; s++ {
		tableOff := pagetable.VAddr(rng.Intn(engineRegionPages)) * pagetable.PageSize
		stackOff := pagetable.VAddr(rng.Intn(stackPages)) * pagetable.PageSize

		// Open the engine structures for this statement.
		switch cfg.System {
		case VDom:
			run(func() cycles.Cost {
				c, err := mgr.WrVdr(task, engineDom, core.VPermReadWrite)
				if err != nil {
					panic(err)
				}
				return c
			})
		case Libmpk:
			libmpkAcquire(pl.sched, p, lbmLock, lbm, task, engineKey, hw.PermReadWrite)
		case EPK:
			run(func() cycles.Cost { return esys.Switch(tid, engineEPK) })
		}

		// Statement body: engine data + own stack + compute.
		run(func() cycles.Cost {
			var c cycles.Cost
			if cfg.System != EPK { // EPK's accesses are inside the VM model
				c += touch(engineBase+tableOff, s%3 != 0)
				c += touch(stack+stackOff, true)
			}
			return c + work(perStmtUser, perStmtKern)
		})

		// Close the engine structures (least privilege). Under EPK the
		// handler returns to its stack domain's EPT group, which is a
		// VMFUNC once connections outgrow one group.
		switch cfg.System {
		case VDom:
			run(func() cycles.Cost {
				c, err := mgr.WrVdr(task, engineDom, core.VPermNone)
				if err != nil {
					panic(err)
				}
				return c
			})
		case Libmpk:
			run(func() cycles.Cost {
				c, err := lbm.PkeySet(nil, task, engineKey, hw.PermNone)
				if err != nil {
					panic(err)
				}
				return c
			})
		case EPK:
			run(func() cycles.Cost { return esys.Switch(tid, tid+1) })
		}
	}

	// Serialized commit section (engine/log mutex).
	engineLock.Acquire(p, 1)
	run(func() cycles.Cost { return work(cycles.Cost(lockCycles), 0) })
	engineLock.Release(1)
}
