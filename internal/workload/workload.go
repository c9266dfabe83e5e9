// Package workload implements the application models of the VDom paper's
// evaluation: the httpd+OpenSSL server (Figures 1 and 5), the MySQL OLTP
// server (Figure 6), the persistent-memory String Replace benchmark
// (Figure 7), the synthetic domain-access patterns (Table 4), the
// multi-VDS memory-synchronization benchmark (Table 5), a UnixBench-like
// kernel suite (§7.3), and an LTP-like compatibility suite (§7.1).
//
// Each workload issues the same protection events per unit of work as the
// paper's applications, on top of the simulated substrate; baseline work
// amounts are calibrated to the paper's absolute throughputs so that
// relative overheads are comparable.
//
// It covers the paper's §7 (evaluation) workloads and is the "Workloads"
// row of the DESIGN.md §3 module map. The Table 4 pattern runners accept
// a metrics.Registry and a metrics.Trace (PatternConfig) whose cycle
// attribution sums exactly to each cell's measured total
// (OBSERVABILITY.md).
package workload

import (
	"errors"
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
	"vdom/internal/tap"
)

// System selects which protection system a workload runs under.
type System int

// The compared systems of §7.6.
const (
	// Original runs unprotected.
	Original System = iota
	// VDom protects with the paper's system.
	VDom
	// EPK protects with the VMFUNC/EPT baseline inside a VM.
	EPK
	// Libmpk protects with the disabled-PTE baseline.
	Libmpk
	// VDomLowerbound protects everything with one physical domain
	// (the paper's "lowerbound" line).
	VDomLowerbound
)

// String names the system as the paper's figures do.
func (s System) String() string {
	switch s {
	case Original:
		return "original"
	case VDom:
		return "VDom"
	case EPK:
		return "EPK"
	case Libmpk:
		return "libmpk"
	case VDomLowerbound:
		return "lowerbound"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// ClockHz returns the simulated clock rate used to convert cycles to
// seconds: 2.1 GHz for the Xeon Gold 6230R, 1.2 GHz for the Raspberry
// Pi 3's Cortex-A53, 3.8 GHz for the projected POWER9, and 1.5 GHz for
// the projected sealable-PKS RISC-V core (a U74-class in-order part;
// the SealPK prototype itself is an FPGA softcore).
func ClockHz(arch cycles.Arch) float64 {
	switch arch {
	case cycles.ARM:
		return 1.2e9
	case cycles.Power:
		return 3.8e9
	case cycles.RISCV:
		return 1.5e9
	default:
		return 2.1e9
	}
}

// DefaultCores returns the hardware-thread count of each evaluation
// platform (52 on the Xeon, 4 on the Pi, 44 on the projected POWER9,
// 4 on the projected RISC-V board).
func DefaultCores(arch cycles.Arch) int {
	switch arch {
	case cycles.ARM:
		return 4
	case cycles.Power:
		return 44
	case cycles.RISCV:
		return 4
	default:
		return 52
	}
}

// platform is the discrete-event scheduler a workload runs its booted
// process on.
type platform struct {
	proc  *kernel.Process
	env   *sim.Env
	sched *kernel.Sched
	next  pagetable.VAddr
}

func newPlatform(sys *backend.Instance) *platform {
	env := sim.NewEnv()
	return &platform{
		proc:  sys.Proc,
		env:   env,
		sched: kernel.NewSched(env, sys.Kernel),
		next:  0x20_0000_0000,
	}
}

// ErrUnrecordable refuses a recording of an Original run: it has no
// domain backend, so no trace kernel kind could replay it.
var ErrUnrecordable = errors.New("workload: an unprotected (original) run cannot be recorded")

// bootApp boots an application run from its trace header, as RunPattern
// does, and attaches rec (when non-nil) to the booted system. Original
// has no domain backend: it runs on the bare vanilla substrate the
// header describes, and a recording of it panics with ErrUnrecordable
// before anything runs.
func bootApp(s System, arch cycles.Arch, h replay.Header, rec *replay.Recorder) *backend.Instance {
	if s == Original {
		if rec != nil {
			panic(ErrUnrecordable)
		}
		spec := replay.SpecFromHeader(h)
		spec.Arch = arch
		sys := backend.BootSubstrate(spec)
		sys.Proc = sys.Kernel.NewProcess()
		return sys
	}
	sys, err := replay.Boot(h)
	if err != nil {
		panic(err)
	}
	if rec != nil {
		rec.AttachSystem(sys)
	}
	return sys
}

// alloc reserves a PMD-separated virtual region of `bytes` (page-aligned
// up) and mmaps it through task.
func (pl *platform) alloc(task *kernel.Task, bytes uint64) (pagetable.VAddr, error) {
	bytes = (bytes + pagetable.PageSize - 1) &^ (pagetable.PageSize - 1)
	base := pl.next
	pl.next += pagetable.VAddr(bytes) + 8*pagetable.PMDSize
	_, err := task.Mmap(base, bytes, true)
	return base, err
}

// mustAlloc is alloc that panics on error (setup-time only).
func (pl *platform) mustAlloc(task *kernel.Task, bytes uint64) pagetable.VAddr {
	a, err := pl.alloc(task, bytes)
	if err != nil {
		panic(fmt.Sprintf("workload: setup mmap failed: %v", err))
	}
	return a
}

// spinQuantum is the burst length of one busy-wait poll iteration when a
// libmpk caller finds every hardware key in use.
const spinQuantum = 4_000

// libmpkAcquire activates (v, perm) for task under libmpk inside the
// simulator, reproducing libmpk's behaviour under contention: the global
// cache lock serializes key activations, and when every hardware key is
// held by some thread the caller burns spinQuantum-cycle bursts on its
// core until a key is released. The busy-wait cycles are recorded in the
// manager's stats. Any failure but pushback panics.
func libmpkAcquire(sched *kernel.Sched, p *sim.Proc, lock *sim.Resource, m *libmpk.Manager, task *kernel.Task, v libmpk.Vkey, perm hw.Perm) cycles.Cost {
	var total cycles.Cost
	set := func() (err error) {
		total += sched.Run(p, task, func() (c cycles.Cost) {
			c, err = m.PkeySet(nil, task, v, perm)
			return c
		})
		return err
	}
	// Fast path: permission change on a resident key (or a revocation)
	// never takes the cache lock.
	if (m.Mapped(v) || perm == hw.PermNone) && set() == nil {
		return total
	}
	for {
		lock.Acquire(p, 1)
		err := set()
		lock.Release(1)
		if err == nil {
			return total
		}
		if tap.ClassOf(err) != tap.ClassPushback {
			panic(fmt.Errorf("workload: libmpk activate vkey %d: %w", v, err))
		}
		// All keys held: spin one quantum and retry.
		m.Stats.BusyWaits++
		m.Stats.BusyWaitCycles += spinQuantum
		total += sched.Run(p, task, func() cycles.Cost { return spinQuantum })
	}
}

// epkDomains manages EPK's dynamic domain ids with a free list so that
// alloc/free-heavy workloads (httpd keys) reuse slots the way EPK's group
// allocator does.
type epkDomains struct {
	sys  *epk.System
	free []int
	next int
}

func newEPKDomains(sys *epk.System) *epkDomains {
	return &epkDomains{sys: sys}
}

func (d *epkDomains) alloc() int {
	if n := len(d.free); n > 0 {
		id := d.free[n-1]
		d.free = d.free[:n-1]
		return id
	}
	id := d.next
	d.next++
	return id
}

func (d *epkDomains) release(id int) { d.free = append(d.free, id) }
