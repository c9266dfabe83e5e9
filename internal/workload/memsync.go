package workload

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// MemSyncConfig describes one Table 5 measurement: a multi-address-space
// application in which one thread progressively allocates 4 KiB pages and
// threads in the other VDSes immediately access the data. The overhead is
// relative to the same program with every thread in one address space.
type MemSyncConfig struct {
	Arch cycles.Arch
	// VDSes is the total number of address spaces (the allocator's plus
	// readers'); 1 means the baseline single-address-space run.
	VDSes int
	// Readers is the reader-thread count; MemSyncOverhead keeps it equal
	// between the measured and baseline runs.
	Readers int
	// Pages defaults to 1024.
	Pages int
	// Cores defaults to VDSes+1 capped at 64 (the X86 box has enough
	// hardware threads for every configuration; the 4-core ARM box does
	// not, which is why the paper marks >4 VDSes "undefined" there).
	Cores int
	Seed  uint64
}

// MemSyncResult is one run's outcome.
type MemSyncResult struct {
	Config   MemSyncConfig
	Makespan sim.Time
	// Defined is false when the configuration exceeds the platform's
	// cores (ARM beyond 4 VDSes).
	Defined bool
}

// MemSyncOverhead runs the experiment for n VDSes and returns the relative
// overhead versus the single-address-space baseline.
func MemSyncOverhead(arch cycles.Arch, n int) (float64, bool) {
	if n > DefaultCores(arch) {
		return 0, false
	}
	base := RunMemSync(MemSyncConfig{Arch: arch, VDSes: 1, Readers: n - 1, Cores: coresFor(arch, n)})
	multi := RunMemSync(MemSyncConfig{Arch: arch, VDSes: n, Readers: n - 1, Cores: coresFor(arch, n)})
	if !multi.Defined || base.Makespan == 0 {
		return 0, false
	}
	return float64(multi.Makespan)/float64(base.Makespan) - 1, true
}

func coresFor(arch cycles.Arch, n int) int {
	c := DefaultCores(arch)
	if n+1 < c {
		return n + 1
	}
	return c
}

// memsync work constants: the allocator zeroes each fresh page; readers
// scan it.
const (
	memsyncInitCycles = 1600
	memsyncReadCycles = 10500
	memsyncBatch      = 64
)

// jitter returns base ±25%, modelling cache and branch variance that keeps
// reader threads from phase-locking into collision-free schedules.
func jitter(rng *sim.Rand, base cycles.Cost) cycles.Cost {
	span := uint64(base) / 2
	return base - cycles.Cost(span/2) + cycles.Cost(rng.Uint64()%span)
}

// RunMemSync executes one configuration: one allocator thread plus
// `Readers` reader threads. With VDSes > 1, each reader lives in a private
// VDS and its first touch of every page demand-faults through the
// page-table lock; with VDSes == 1 everyone shares the allocator's address
// space and readers only pay TLB misses.
func RunMemSync(cfg MemSyncConfig) MemSyncResult {
	if cfg.Pages == 0 {
		cfg.Pages = 1024
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x3a11
	}
	if cfg.Cores == 0 {
		cfg.Cores = coresFor(cfg.Arch, cfg.VDSes)
	}
	readers := cfg.Readers
	if readers == 0 {
		readers = cfg.VDSes - 1
	}
	if readers < 1 {
		readers = 1
	}
	if cfg.VDSes > cfg.Cores {
		return MemSyncResult{Config: cfg, Defined: false}
	}

	sys, err := backend.Boot(replay.KernelVDom, backend.Spec{
		Arch: cfg.Arch, Cores: cfg.Cores, VDomKernel: true, Policy: core.DefaultPolicy(),
	})
	if err != nil {
		panic(err)
	}
	pl := newPlatform(sys)
	mgr := sys.Manager

	alloc := pl.proc.NewTask(0)
	if _, err := mgr.VdrAlloc(alloc, 2); err != nil {
		panic(err)
	}
	readerTasks := make([]*kernel.Task, readers)
	for i := range readerTasks {
		readerTasks[i] = pl.proc.NewTask((i + 1) % cfg.Cores)
		if _, err := mgr.VdrAlloc(readerTasks[i], 2); err != nil {
			panic(err)
		}
		if cfg.VDSes > 1 {
			if _, err := mgr.PlaceInNewVDS(readerTasks[i]); err != nil {
				panic(err)
			}
		}
	}

	// The shared data region.
	base := pl.mustAlloc(alloc, uint64(cfg.Pages)*pagetable.PageSize)

	// Page-table synchronization serializes on the process's page-table
	// lock; demand-paging faults from distinct VDSes contend on it.
	ptLock := pl.env.NewResource(1)
	batchReady := make([]*sim.Signal, cfg.Pages/memsyncBatch+1)
	for i := range batchReady {
		batchReady[i] = pl.env.NewSignal()
	}
	produced := 0

	pl.env.Go("allocator", func(p *sim.Proc) {
		for pg := 0; pg < cfg.Pages; pg++ {
			addr := base + pagetable.VAddr(pg)*pagetable.PageSize
			pl.sched.Run(p, alloc, func() cycles.Cost {
				c, err := alloc.Access(addr, true)
				if err != nil {
					panic(err)
				}
				return c + memsyncInitCycles
			})
			produced++
			if produced%memsyncBatch == 0 {
				batchReady[produced/memsyncBatch-1].Broadcast()
			}
		}
		if produced%memsyncBatch != 0 {
			batchReady[produced/memsyncBatch].Broadcast()
		}
	})

	for ri, rt := range readerTasks {
		rt := rt
		rng := sim.NewRand(cfg.Seed ^ uint64(ri+1)<<32)
		pl.env.Go(fmt.Sprintf("reader-%d", ri), func(p *sim.Proc) {
			for b := 0; b*memsyncBatch < cfg.Pages; b++ {
				lo := b * memsyncBatch
				hi := lo + memsyncBatch
				if hi > cfg.Pages {
					hi = cfg.Pages
				}
				if produced < hi {
					batchReady[b].Wait(p)
				}
				for pg := lo; pg < hi; pg++ {
					addr := base + pagetable.VAddr(pg)*pagetable.PageSize
					// The first touch in a separate VDS faults and
					// fills the VDS page table from the shadow —
					// serialized on the page-table lock.
					if cfg.VDSes > 1 {
						// The fault's page-table update serializes on
						// the process page-table lock.
						ptLock.Acquire(p, 1)
						pl.sched.Run(p, rt, func() cycles.Cost {
							c, err := rt.Access(addr, false)
							if err != nil {
								panic(err)
							}
							return c
						})
						ptLock.Release(1)
						// Outside the lock: per-address-space TLB
						// generation / metadata maintenance plus the
						// read itself.
						sync := sys.Kernel.Params().SyncPerPage *
							cycles.Cost(len(pl.proc.AS().Tables()))
						pl.sched.Run(p, rt, func() cycles.Cost { return sync + jitter(rng, memsyncReadCycles) })
					} else {
						pl.sched.Run(p, rt, func() cycles.Cost {
							c, err := rt.Access(addr, false)
							if err != nil {
								panic(err)
							}
							return c + jitter(rng, memsyncReadCycles)
						})
					}
				}
			}
		})
	}

	makespan := pl.env.Run()
	return MemSyncResult{Config: cfg, Makespan: makespan, Defined: true}
}
