package chaos

import (
	"errors"
	"fmt"

	"vdom/internal/core"
	"vdom/internal/dpti"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
)

// soakMix is the per-kernel half of the soak driver; boot, recording,
// fault injection, audit cadence, checkpoints, and recovery are shared.
// Mixes are stateless: they reach the kernel through the SoakRun's
// instance and DomainOps adapter, which the driver resolves at boot and
// again after Recover, so a Step builds nothing.
type soakMix interface {
	// header fills the kernel's header fields, config digest included.
	header(h *replay.Header, cfg SoakConfig)
	// attach installs the kernel's own host-side taps on the instance.
	attach(s *SoakRun)
	// setupRegion allocates a domain, assigns region i to it, and
	// returns its id.
	setupRegion(s *SoakRun, i int) uint64
	// step runs op number op for t on region di; pick is its draw in
	// [0, 100).
	step(s *SoakRun, op int, t *kernel.Task, di, pick int)
	// finish harvests the kernel's own counters into the result.
	finish(s *SoakRun)
}

// mixFor returns the op mix of the kernel name ("" is VDom).
func mixFor(kern string) soakMix {
	switch kern {
	case "", replay.KernelVDom:
		return vdomMix{}
	case replay.KernelDPTI:
		return dptiMix{}
	}
	panic(fmt.Sprintf("chaos: no soak driver for kernel %q (have vdom, dpti)", kern))
}

// vdomMix drives the VDom manager: VDR grants and revocations, vdom
// free/realloc, VDS spreading, VDR churn, and frame reclaim with VDS
// garbage collection. The injector reaches every fault class through
// the manager's chaos hooks.
type vdomMix struct{}

// header boots the VDom kernel under core.DefaultPolicy (recovery and
// replay rebuild the manager from these fields).
func (vdomMix) header(h *replay.Header, cfg SoakConfig) {
	pol := core.DefaultPolicy()
	h.Kernel = replay.KernelVDom
	h.Flags = replay.HdrVDomKernel
	if pol.SecureGate {
		h.Flags |= replay.HdrSecureGate
	}
	h.FlushThreshold = pol.RangeFlushThresholdPages
	h.Nas = pol.DefaultNas
	h.ConfigDigest = replay.DigestString(fmt.Sprintf(
		"chaos-soak|arch=%s|cores=%d|threads=%d|vdoms=%d|ops=%d|chaos=%+v",
		replay.ArchName(cfg.Arch), cfg.Cores, cfg.Threads, cfg.Vdoms, cfg.Ops, cfg.Chaos))
}

// attach installs the Chrome-trace decision tap.
func (vdomMix) attach(s *SoakRun) {
	if tr := s.cfg.Trace; tr != nil {
		s.sys.Manager.SetTracer(func(e core.Event) {
			tr.Decision(e.Kind.String(), e.TID, uint64(s.total), uint64(e.Cost), map[string]uint64{
				"vdom": uint64(e.Vdom), "vds": uint64(e.VDS), "pdom": uint64(e.Pdom),
			})
		})
	}
}

func (vdomMix) setupRegion(s *SoakRun, i int) uint64 {
	m := s.sys.Manager
	d, c := m.AllocVdom(i%4 == 0)
	s.total += c
	if c, err := m.Mprotect(s.tasks[0], region(i), regionPages*pagetable.PageSize, d); err != nil {
		s.fail(0, "setup mprotect", err)
	} else {
		s.total += c
	}
	return uint64(d)
}

func (vdomMix) step(s *SoakRun, op int, t *kernel.Task, di, pick int) {
	m := s.sys.Manager
	d := core.VdomID(s.doms[di])
	switch {
	case pick < 50: // grant, then touch a page of the region
		perm := core.VPermReadWrite
		if pick < 10 {
			perm = core.VPermRead
		}
		if err := s.charge(m.WrVdr(t, d, perm)); err != nil {
			s.fail(op, fmt.Sprintf("wrvdr grant vdom %d", d), err)
			break
		}
		addr := s.regionPage(di)
		write := perm == core.VPermReadWrite && s.r.Intn(2) == 0
		if err := s.charge(t.Access(addr, write)); err != nil {
			s.fail(op, fmt.Sprintf("access vdom %d at %#x", d, uint64(addr)), err)
		}
	case pick < 65: // revoke (sometimes pinning)
		perm := core.VPermNone
		if pick < 55 {
			perm = core.VPermPinned
		}
		if err := s.charge(m.WrVdr(t, d, perm)); err != nil {
			s.fail(op, fmt.Sprintf("wrvdr revoke vdom %d", d), err)
		}
	case pick < 75: // free the vdom, rebind its region to a fresh one
		if err := s.charge(m.FreeVdom(d)); err != nil {
			s.fail(op, fmt.Sprintf("free vdom %d", d), err)
			break
		}
		nd, c := m.AllocVdom(s.r.Intn(4) == 0)
		s.total += c
		if err := s.charge(m.Mprotect(t, region(di), regionPages*pagetable.PageSize, nd)); err != nil {
			s.fail(op, fmt.Sprintf("mprotect vdom %d", nd), err)
			break
		}
		s.doms[di] = uint64(nd)
	case pick < 83: // spread the thread into a fresh VDS
		// A typed resource failure here is tolerated: the caller's
		// recovery is simply staying in its current VDS.
		err := s.charge(m.PlaceInNewVDS(t))
		if err != nil && !errors.Is(err, core.ErrNoResources) && !errors.Is(err, core.ErrExhausted) {
			s.fail(op, "place_in_new_vds", err)
		}
	case pick < 90: // VDR churn (exercises the base-ASID restore)
		if err := s.charge(m.VdrFree(t)); err != nil {
			s.fail(op, "vdr_free", err)
			break
		}
		if err := s.charge(m.VdrAlloc(t, 0)); err != nil {
			s.fail(op, "vdr_alloc", err)
		}
	case pick < 96: // kswapd pressure, plus VDS garbage collection
		s.reclaim(t)
		reaped := m.ReapVDSes()
		if s.rec != nil {
			s.rec.Reap(reaped)
		}
	default:
		s.plainAccess(op, t)
	}
}

func (vdomMix) finish(s *SoakRun) { s.res.CoreStats = s.sys.Manager.Stats }

// dptiMix drives the DPTI baseline through the kernel-neutral DomainOps
// adapter: Activate enters a domain's page table, Deactivate exits to the
// base one. DPTI has no manager-level chaos hooks, so its fault mix is
// the machine/kernel subset; ASID exhaustion is its characteristic
// failure (materializing a domain table needs a free ASID), and the
// degradation path is simply staying in the base address space.
type dptiMix struct{}

func (dptiMix) header(h *replay.Header, cfg SoakConfig) {
	h.Kernel = replay.KernelDPTI
	h.ConfigDigest = replay.DigestString(fmt.Sprintf(
		"dpti-chaos-soak|arch=%s|cores=%d|threads=%d|doms=%d|ops=%d|chaos=%+v",
		replay.ArchName(cfg.Arch), cfg.Cores, cfg.Threads, cfg.Vdoms, cfg.Ops, cfg.Chaos))
}

func (dptiMix) attach(*SoakRun) {}

func (dptiMix) setupRegion(s *SoakRun, i int) uint64 {
	d, c, _ := s.ops.Alloc(s.tasks[0]) // DPTI allocation cannot fail
	s.total += c
	if c, err := s.ops.Protect(s.tasks[0], region(i), regionPages*pagetable.PageSize, d); err != nil {
		s.fail(0, "setup protect", err)
	} else {
		s.total += c
	}
	return d
}

// enter switches t into d, tolerating ASID exhaustion. Reports whether
// the task is inside d afterwards.
func (dptiMix) enter(s *SoakRun, op int, t *kernel.Task, d uint64) bool {
	err := s.charge(s.ops.Activate(t, d))
	if err != nil && !errors.Is(err, dpti.ErrNoASID) {
		s.fail(op, fmt.Sprintf("enter domain %d", d), err)
	}
	return err == nil
}

func (dptiMix) exit(s *SoakRun, op int, t *kernel.Task, d uint64) {
	if err := s.charge(s.ops.Deactivate(t, d)); err != nil {
		s.fail(op, "exit", err)
	}
}

func (x dptiMix) step(s *SoakRun, op int, t *kernel.Task, di, pick int) {
	d := s.doms[di]
	switch {
	case pick < 45: // enter, then touch a page of the region
		if !x.enter(s, op, t, d) {
			break
		}
		addr := s.regionPage(di)
		if err := s.charge(t.Access(addr, s.r.Intn(2) == 0)); err != nil {
			s.fail(op, fmt.Sprintf("access domain %d at %#x", d, uint64(addr)), err)
		}
	case pick < 58: // exit back to the base address space
		x.exit(s, op, t, d)
	case pick < 70: // free the domain, rebind its region to a fresh one
		if err := s.charge(s.ops.Free(t, d)); err != nil {
			s.fail(op, fmt.Sprintf("free domain %d", d), err)
			break
		}
		nd, c, _ := s.ops.Alloc(t) // cannot fail, as in setupRegion
		s.total += c
		if err := s.charge(s.ops.Protect(t, region(di), regionPages*pagetable.PageSize, nd)); err != nil {
			s.fail(op, fmt.Sprintf("protect domain %d", nd), err)
			break
		}
		s.doms[di] = nd
	case pick < 80: // retag one page (exercises the eager-revocation walk)
		addr := s.regionPage(di)
		if err := s.charge(s.ops.Protect(t, addr, pagetable.PageSize, d)); err != nil {
			s.fail(op, fmt.Sprintf("retag domain %d", d), err)
		}
	case pick < 88:
		s.plainAccess(op, t)
	case pick < 95:
		s.reclaim(t)
	default: // direct domain-to-domain switch, then exit
		if x.enter(s, op, t, s.doms[(di+1)%len(s.doms)]) {
			x.exit(s, op, t, d)
		}
	}
}

func (dptiMix) finish(s *SoakRun) {
	if s.cfg.Metrics != nil {
		s.sys.DPTI.Stats.Emit(s.cfg.Metrics.Add)
	}
}
