package kernel

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/tlb"
)

// Syscall identifies a system call of the simulated kernel's surface that
// matters to memory-domain systems and their sandboxes.
type Syscall int

const (
	// SysMmap maps anonymous memory.
	SysMmap Syscall = iota
	// SysMunmap unmaps memory.
	SysMunmap
	// SysMprotect changes page protections.
	SysMprotect
	// SysPkeyMprotect assigns a protection domain to pages.
	SysPkeyMprotect
	// SysProcessVMReadv reads another thread's memory through the
	// kernel — the classic confused-deputy vector sandboxes must filter.
	SysProcessVMReadv
	// SysGetTID returns the calling thread id.
	SysGetTID
)

// String names the syscall.
func (s Syscall) String() string {
	switch s {
	case SysMmap:
		return "mmap"
	case SysMunmap:
		return "munmap"
	case SysMprotect:
		return "mprotect"
	case SysPkeyMprotect:
		return "pkey_mprotect"
	case SysProcessVMReadv:
		return "process_vm_readv"
	case SysGetTID:
		return "gettid"
	default:
		return fmt.Sprintf("Syscall(%d)", int(s))
	}
}

// ErrBlocked reports that a syscall filter denied the call.
var ErrBlocked = tap.NewOutcome(tap.CodeBlocked, "kernel: syscall blocked by filter")

// SyscallArgs carries the arguments of a filtered syscall.
type SyscallArgs struct {
	Addr   pagetable.VAddr
	Length uint64
	Write  bool
	Tag    mm.Tag
}

// SyscallFilter inspects a syscall before it runs; returning a non-nil
// error blocks it. This is the hook memory-domain sandboxes (Hodor, ERIM,
// Cerberus) use to stop kernel-based confused-deputy attacks (Table 2 ❸).
type SyscallFilter func(t *Task, sc Syscall, args SyscallArgs) error

// RegisterSyscallFilter appends a filter applied to every syscall.
func (k *Kernel) RegisterSyscallFilter(f SyscallFilter) {
	k.syscallFilters = append(k.syscallFilters, f)
}

// checkFilters runs all registered filters.
func (k *Kernel) checkFilters(t *Task, sc Syscall, args SyscallArgs) error {
	for _, f := range k.syscallFilters {
		if err := f(t, sc, args); err != nil {
			return fmt.Errorf("%w: %s: %w", ErrBlocked, sc, err)
		}
	}
	return nil
}

// tapSyscall forwards a completed memory-management syscall to the
// attached tap, if any. Only mmap/munmap/mprotect shape domain state and
// are recorded; other syscalls emit nothing.
func (t *Task) tapSyscall(sc Syscall, args SyscallArgs, cost cycles.Cost, err error) {
	ot := t.proc.kernel.opTap
	if ot == nil {
		return
	}
	e := tap.Event{TID: t.tid, Addr: args.Addr, Len: args.Length, Write: args.Write, Cost: cost, Err: err}
	switch sc {
	case SysMmap:
		e.Op = tap.OpMmap
	case SysMunmap:
		e.Op = tap.OpMunmap
	case SysMprotect:
		e.Op = tap.OpMprotect
	default:
		return
	}
	ot(e)
}

// Mmap is the mmap(2) analog. It returns the syscall's cycle cost.
func (t *Task) Mmap(addr pagetable.VAddr, length uint64, writable bool) (cost cycles.Cost, err error) {
	defer func() { t.tapSyscall(SysMmap, SyscallArgs{Addr: addr, Length: length, Write: writable}, cost, err) }()
	k := t.proc.kernel
	cost = k.params.SyscallReturn
	k.metrics.Attribute("kernel", "syscall", uint64(cost))
	if err := k.checkFilters(t, SysMmap, SyscallArgs{Addr: addr, Length: length, Write: writable}); err != nil {
		return cost, err
	}
	if _, err := t.proc.as.Mmap(addr, length, writable); err != nil {
		return cost, err
	}
	return cost, nil
}

// Munmap is the munmap(2) analog. Revocation is eager across every VDS
// table and requires a shootdown on all cores running the process.
func (t *Task) Munmap(addr pagetable.VAddr, length uint64) (cost cycles.Cost, err error) {
	defer func() { t.tapSyscall(SysMunmap, SyscallArgs{Addr: addr, Length: length}, cost, err) }()
	k := t.proc.kernel
	cost = k.params.SyscallReturn
	k.metrics.Attribute("kernel", "syscall", uint64(cost))
	if err := k.checkFilters(t, SysMunmap, SyscallArgs{Addr: addr, Length: length}); err != nil {
		return cost, err
	}
	rep, err := t.proc.as.Munmap(addr, length)
	if err != nil {
		return cost, err
	}
	cost += t.chargeSync(rep, addr, length)
	return cost, nil
}

// Mprotect is the mprotect(2) analog (writability only; domains are
// assigned through PkeyMprotect).
func (t *Task) Mprotect(addr pagetable.VAddr, length uint64, writable bool) (cost cycles.Cost, err error) {
	defer func() { t.tapSyscall(SysMprotect, SyscallArgs{Addr: addr, Length: length, Write: writable}, cost, err) }()
	k := t.proc.kernel
	cost = k.params.SyscallReturn
	k.metrics.Attribute("kernel", "syscall", uint64(cost))
	if err := k.checkFilters(t, SysMprotect, SyscallArgs{Addr: addr, Length: length, Write: writable}); err != nil {
		return cost, err
	}
	rep, err := t.proc.as.Mprotect(addr, length, writable)
	if err != nil {
		return cost, err
	}
	if rep.PagesTouched > 0 { // revocation: flush stale translations
		cost += t.chargeSync(rep, addr, length)
	}
	return cost, nil
}

// chargeSync converts a sync report into cycles and performs the TLB
// shootdown revocation requires: every core that may cache translations of
// this process flushes the affected range under every ASID the process's
// address spaces use. The shootdown is the reliable variant — a dropped
// IPI is retried and, failing that, repaired with a full flush, so
// revocation never leaves a stale translation behind.
func (t *Task) chargeSync(rep mm.SyncReport, addr pagetable.VAddr, length uint64) cycles.Cost {
	k := t.proc.kernel
	cost := cycles.Cost(rep.PTEWrites)*k.params.PTEWrite +
		cycles.Cost(rep.PMDWrites)*k.params.PMDWrite
	targets := t.proc.RunningCores()
	pages := length / pagetable.PageSize
	asids := t.proc.flushASIDs()
	rep2 := k.machine.ShootdownReliable(t.core, targets, func(tb tlb.Cache) {
		for _, a := range asids {
			tb.FlushRange(a, addr.VPN(), pages)
		}
	}, k.params.TLBFlushLocalPage*cycles.Cost(min64(pages, 16)))
	k.metrics.Attribute("pagetable", "sync", uint64(cost))
	k.metrics.Attribute("hw", "ipi", uint64(rep2.InitiatorCycles))
	cost += rep2.InitiatorCycles
	return cost
}

// flushASIDs returns every ASID under which a translation of this process
// may be cached: each task's base (shadow-table) ASID and current ASID,
// plus any extra address spaces a VDom-style fault handler maintains
// (dormant VDSes whose ASIDs no task currently runs under).
func (p *Process) flushASIDs() []tlb.ASID {
	// The handful of ASIDs a process uses makes a linear dedup over the
	// reused scratch slice cheaper than a map, and allocation-free.
	out := p.asidScratch[:0]
	add := func(a tlb.ASID) {
		if a == 0 {
			return
		}
		for _, x := range out {
			if x == a {
				return
			}
		}
		out = append(out, a)
	}
	for _, t := range p.tasks {
		add(t.baseASID)
		add(t.asid)
	}
	if l, ok := p.handler.(ASIDLister); ok {
		for _, a := range l.LiveASIDs() {
			add(a)
		}
	}
	p.asidScratch = out
	return out
}

// RunningCores returns the set of cores any task of the process is
// assigned to (the CPU bitmap that bounds shootdowns, §5.3).
func (p *Process) RunningCores() hw.CPUSet {
	var s hw.CPUSet
	for _, t := range p.tasks {
		s = s.Add(t.core)
	}
	return s
}

// GetTID is the gettid(2) analog; the paper cites its cost as the reason
// VDom shares VDR pointers through per-core pages instead.
func (t *Task) GetTID() (int, cycles.Cost) {
	return t.tid, t.proc.kernel.params.SyscallReturn
}

// ProcessVMReadv models the confused-deputy syscall: the kernel reads
// memory on the caller's behalf, checking only page presence — not the
// caller's domain permission register. Sandboxes must filter it (Table 2
// ❸). It returns the pdom of the page read so tests can confirm the leak.
func (t *Task) ProcessVMReadv(addr pagetable.VAddr) (pagetable.Pdom, cycles.Cost, error) {
	k := t.proc.kernel
	cost := k.params.SyscallReturn
	if err := k.checkFilters(t, SysProcessVMReadv, SyscallArgs{Addr: addr}); err != nil {
		return 0, cost, err
	}
	wr := t.proc.as.Shadow().Walk(addr)
	if !wr.Present {
		// Fault it in through the shadow table as the kernel would.
		if _, err := t.proc.as.HandleFault(t.proc.as.Shadow(), addr, false); err != nil {
			return 0, cost, fmt.Errorf("%w: %w", ErrSigsegv, err)
		}
		wr = t.proc.as.Shadow().Walk(addr)
	}
	return wr.PTE.Pdom, cost, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// ReclaimFrames emulates kswapd reclaiming up to max page frames from the
// process: the eager multi-table synchronization of §6.2, followed by a
// process-wide shootdown so no stale translations survive. It returns the
// frames reclaimed and the cycles charged to the reclaiming context.
func (p *Process) ReclaimFrames(initiatorCore int, max int) (int, cycles.Cost) {
	k := p.kernel
	n, rep := p.as.Reclaim(max)
	if n == 0 {
		return 0, 0
	}
	cost := cycles.Cost(rep.PTEWrites)*k.params.PTEWrite +
		cycles.Cost(rep.PMDWrites)*k.params.PMDWrite
	targets := p.RunningCores()
	asids := p.flushASIDs()
	sd := k.machine.ShootdownReliable(initiatorCore, targets, func(tb tlb.Cache) {
		for _, a := range asids {
			tb.FlushASID(a)
		}
	}, k.params.TLBFlushLocalAll)
	for id := 0; id < k.machine.NumCores(); id++ {
		if id != initiatorCore && targets.Has(id) {
			k.AddPendingInterrupt(id, sd.ReceiverCycles)
		}
	}
	k.metrics.Attribute("pagetable", "sync", uint64(cost))
	k.metrics.Attribute("hw", "ipi", uint64(sd.InitiatorCycles))
	return n, cost + sd.InitiatorCycles
}
