// Package kernel implements the simulated operating system layer: tasks
// (threads), processes, ASID management, context switches, the page-fault
// dispatch path, and a syscall surface with the filter hooks that memory
// domain sandboxes rely on.
//
// The kernel comes in two flavours, selected by Config.VDomEnabled:
// "vanilla" (baseline Linux 5.17 analog) and "VDom-modified", whose context
// switch carries the extra metadata maintenance the paper measures in §7.5.
//
// AppendState and ReadState checkpoint the ASID allocator, the per-core
// residency and a process's tasks as the "kernel" section of
// vdom-snap/v2, straight from and into the live structures (RECOVERY.md).
package kernel

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/metrics"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/tlb"
)

// ErrSigsegv reports a fatal memory access violation delivered to the
// faulting task.
var ErrSigsegv = tap.NewOutcome(tap.CodeSigsegv, "kernel: SIGSEGV")

// Config describes a kernel to boot.
type Config struct {
	// Machine is the hardware to run on.
	Machine *hw.Machine
	// VDomEnabled builds the kernel with the VDom patches (HAS_VDOM).
	// It slightly slows context switches (§7.5) and enables VDS-aware
	// fault dispatch.
	VDomEnabled bool
}

// Chaos lets a fault-injection layer (internal/chaos) perturb kernel-level
// resource management and observe the recovery paths. All hooks are
// consulted only when a hook is attached, keeping the fault paths
// zero-cost when chaos is off.
type Chaos interface {
	// InjectASIDExhaustion reports whether the next ASID allocation
	// should behave as if the generation's ASID space were exhausted,
	// forcing an early rollover.
	InjectASIDExhaustion() bool
	// NoteASIDRollover records a completed generation rollover.
	NoteASIDRollover(gen uint64)
	// NoteSpuriousFaultRepaired records that the kernel detected a domain
	// fault that disagreed with the live PTE and permission register, and
	// repaired it by flushing the stale translation.
	NoteSpuriousFaultRepaired(core int)
}

// The kernel's syscall boundary, access path, and scheduler emit
// tap.Event values (OpMmap/OpMunmap/OpMprotect, OpAccess, OpDispatch)
// through one attached tap.Tap. Like Chaos, the tap is consulted only
// when attached, so the hot paths pay one nil check when recording is
// off. Taps fire after the operation completes, in execution order — the
// simulation is cooperatively scheduled, so tap invocations are strictly
// sequential.

// ASIDLister is implemented by fault handlers (the VDom core) that maintain
// additional address spaces under their own ASIDs; kernel revocation paths
// (munmap, frame reclaim) include these ASIDs in their shootdowns so no
// stale translation survives in a currently-dormant address space.
type ASIDLister interface {
	LiveASIDs() []tlb.ASID
}

// maxASIDDefault is the architectural ASID space (16-bit PCID/ASID); the
// zero ASID is reserved.
const maxASIDDefault = tlb.ASID(0xFFFF)

// Kernel is the simulated OS instance.
type Kernel struct {
	machine *hw.Machine
	params  *cycles.Params
	vdom    bool
	chaos   Chaos
	opTap   tap.Tap
	metrics *metrics.Registry

	nextASID  tlb.ASID
	maxASID   tlb.ASID
	asidGen   uint64
	rollovers uint64
	liveASIDs map[tlb.ASID]bool
	nextPID   int

	// lastTask tracks, per core, which task's state is loaded.
	lastTask []*Task

	// pendingIRQ accumulates, per core, interrupt-servicing cycles
	// (shootdown IPIs) that the next burst scheduled on that core must
	// absorb.
	pendingIRQ []cycles.Cost

	syscallFilters []SyscallFilter
}

// AddPendingInterrupt charges c interrupt-handling cycles to core id; the
// scheduler folds them into the next burst that runs there. Initiators of
// TLB shootdowns use this to model the disruption of remote cores.
func (k *Kernel) AddPendingInterrupt(id int, c cycles.Cost) {
	k.pendingIRQ[id] += c
}

// TakePendingInterrupts drains the interrupt debt of core id.
func (k *Kernel) TakePendingInterrupts(id int) cycles.Cost {
	c := k.pendingIRQ[id]
	k.pendingIRQ[id] = 0
	return c
}

// New boots a kernel on the machine.
func New(cfg Config) *Kernel {
	if cfg.Machine == nil {
		panic("kernel: nil machine")
	}
	return &Kernel{
		machine:    cfg.Machine,
		params:     cfg.Machine.Params(),
		vdom:       cfg.VDomEnabled,
		nextASID:   1,
		maxASID:    maxASIDDefault,
		liveASIDs:  make(map[tlb.ASID]bool),
		lastTask:   make([]*Task, cfg.Machine.NumCores()),
		pendingIRQ: make([]cycles.Cost, cfg.Machine.NumCores()),
	}
}

// SetChaos attaches a fault-injection layer. Pass nil to detach.
func (k *Kernel) SetChaos(c Chaos) { k.chaos = c }

// SetTap attaches a trace recorder to the syscall boundary. Pass nil
// (the default) to detach.
func (k *Kernel) SetTap(t tap.Tap) { k.opTap = t }

// SetMetrics attaches a metrics registry; the kernel then attributes the
// cycles of its dispatch, fault, and syscall paths by (layer, operation).
// Pass nil (the default) to detach; a nil registry costs one branch per
// attribution site.
func (k *Kernel) SetMetrics(r *metrics.Registry) { k.metrics = r }

// Metrics returns the attached registry, or nil.
func (k *Kernel) Metrics() *metrics.Registry { return k.metrics }

// EmitMetrics publishes kernel-level counters under the kernel/ prefix
// (see OBSERVABILITY.md for the catalogue).
func (k *Kernel) EmitMetrics(emit func(name string, v uint64)) {
	emit("kernel/asid-rollovers", k.rollovers)
	emit("kernel/asid-generation", k.asidGen)
	emit("kernel/live-asids", uint64(len(k.liveASIDs)))
	emit("kernel/processes", uint64(k.nextPID))
}

// Machine returns the underlying hardware.
func (k *Kernel) Machine() *hw.Machine { return k.machine }

// Params returns the cycle cost table.
func (k *Kernel) Params() *cycles.Params { return k.params }

// VDomEnabled reports whether the kernel carries the VDom patches.
func (k *Kernel) VDomEnabled() bool { return k.vdom }

// AllocASID hands out a fresh address-space identifier, rolling the
// generation over (with a machine-wide TLB flush) when the space is
// exhausted. It panics only if the live set itself fills the entire ASID
// space, which no realistic workload reaches.
func (k *Kernel) AllocASID() tlb.ASID {
	a, ok := k.TryAllocASID()
	if !ok {
		panic(fmt.Sprintf("kernel: all %d ASIDs live", k.maxASID))
	}
	return a
}

// TryAllocASID hands out a fresh address-space identifier. The cursor is
// monotonic within a generation — freed ASIDs are not reused until a
// rollover has flushed every TLB, so a stale entry under a freed ASID can
// never alias a new address space. Exhaustion triggers the rollover
// degradation path (generation bump + machine-wide flush) rather than
// wrapping silently; false is returned only when every ASID is live.
func (k *Kernel) TryAllocASID() (tlb.ASID, bool) {
	if k.chaos != nil && k.chaos.InjectASIDExhaustion() {
		k.rolloverASIDs()
	}
	for rolled := false; ; rolled = true {
		for k.nextASID != 0 && k.nextASID <= k.maxASID {
			a := k.nextASID
			k.nextASID++
			if !k.liveASIDs[a] {
				k.liveASIDs[a] = true
				return a, true
			}
		}
		if rolled {
			return 0, false
		}
		k.rolloverASIDs()
	}
}

// rolloverASIDs starts a new ASID generation: every core's TLB is flushed
// (and charged as pending interrupt work), making translations under any
// retired ASID unreachable before the cursor restarts.
func (k *Kernel) rolloverASIDs() {
	k.asidGen++
	k.rollovers++
	k.nextASID = 1
	for id := 0; id < k.machine.NumCores(); id++ {
		k.machine.Core(id).TLB().FlushAll()
		k.AddPendingInterrupt(id, k.params.TLBFlushLocalAll+k.params.IPI)
	}
	if k.chaos != nil {
		k.chaos.NoteASIDRollover(k.asidGen)
	}
}

// FreeASID retires an ASID. The identifier stays unreusable until the next
// generation rollover flushes the TLBs.
func (k *Kernel) FreeASID(a tlb.ASID) { delete(k.liveASIDs, a) }

// SetASIDLimit shrinks (or restores) the usable ASID space — chiefly for
// exhaustion tests and chaos runs; real hardware fixes it at 16 bits.
func (k *Kernel) SetASIDLimit(max tlb.ASID) {
	if max == 0 {
		panic("kernel: ASID limit must be positive")
	}
	k.maxASID = max
}

// ASIDGeneration returns the current ASID generation (0 until the first
// rollover).
func (k *Kernel) ASIDGeneration() uint64 { return k.asidGen }

// ASIDRollovers returns how many generation rollovers have occurred.
func (k *Kernel) ASIDRollovers() uint64 { return k.rollovers }

// LiveASIDCount returns the number of ASIDs currently handed out.
func (k *Kernel) LiveASIDCount() int { return len(k.liveASIDs) }

// ASIDLive reports whether a is currently handed out. Auditors use it to
// distinguish zombie TLB entries (retired ASID, unreachable until reuse,
// harmless) from live-ASID incoherence.
func (k *Kernel) ASIDLive(a tlb.ASID) bool { return k.liveASIDs[a] }

// FaultHandler lets a subsystem (the VDom core, libmpk) intercept domain
// and PMD-disabled faults before the kernel's default SIGSEGV. Handled
// reports the fault was repaired and the access should retry; Cost is
// charged to the faulting task on top of the trap costs.
type FaultHandler interface {
	HandleDomainFault(t *Task, addr pagetable.VAddr, write bool, kind hw.FaultKind) (cost cycles.Cost, handled bool, err error)
}

// Process is a group of tasks sharing one address space.
type Process struct {
	kernel *Kernel
	pid    int
	as     *mm.AddressSpace
	tasks  []*Task

	// handler receives domain faults (protection-key / domain faults and
	// PMD-disabled faults) for all tasks of the process.
	handler FaultHandler

	// asidScratch backs flushASIDs so the shootdown-heavy sync paths do
	// not allocate per call. Its contents are only valid until the next
	// flushASIDs call.
	asidScratch []tlb.ASID
}

// NewProcess creates a process with an empty address space.
func (k *Kernel) NewProcess() *Process {
	k.nextPID++
	return &Process{
		kernel: k,
		pid:    k.nextPID,
		as:     mm.NewAddressSpace(k.machine),
	}
}

// PID returns the process id.
func (p *Process) PID() int { return p.pid }

// AS returns the process address space.
func (p *Process) AS() *mm.AddressSpace { return p.as }

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kernel }

// SetFaultHandler installs the process's domain-fault handler.
func (p *Process) SetFaultHandler(h FaultHandler) { p.handler = h }

// Tasks returns the live tasks of the process.
func (p *Process) Tasks() []*Task { return p.tasks }

// Task is one schedulable thread (task_struct analog). VDom extends it
// with a pointer to the VDS the thread runs in and its VDR; those live in
// the core package and hook in through Table/ASID/perm state here.
type Task struct {
	proc *Process
	tid  int
	core int // assigned core id

	// table and asid are the address space the task runs in: the
	// process shadow table by default, or a VDS table under VDom.
	table *pagetable.Table
	asid  tlb.ASID

	// baseASID is the ASID allocated at task creation for the shadow
	// table; restored when the task leaves VDom mode so the shadow table
	// never shares an ASID with a VDS.
	baseASID tlb.ASID

	// savedPerm is the task's domain permission register image, restored
	// on context switch.
	savedPerm uint64

	// vds reports whether table belongs to a VDS (affects context-switch
	// cost on the VDom kernel).
	vds bool
}

// NewTask creates a task pinned to the given core, running on the process
// shadow page table.
func (p *Process) NewTask(core int) *Task {
	if core < 0 || core >= p.kernel.machine.NumCores() {
		panic(fmt.Sprintf("kernel: bad core %d", core))
	}
	asid := p.kernel.AllocASID()
	t := &Task{
		proc:     p,
		tid:      len(p.tasks) + 1,
		core:     core,
		table:    p.as.Shadow(),
		asid:     asid,
		baseASID: asid,
		// Like Linux's init_pkru, threads start with access to the
		// default domain only.
		savedPerm: hw.DenyAll(),
	}
	p.tasks = append(p.tasks, t)
	return t
}

// TID returns the task id (unique within the process).
func (t *Task) TID() int { return t.tid }

// TIDOf returns t's id, or 0 for the nil task that process-level and
// direct-mode calls pass.
func TIDOf(t *Task) int {
	if t == nil {
		return 0
	}
	return t.tid
}

// Process returns the owning process.
func (t *Task) Process() *Process { return t.proc }

// CoreID returns the core the task is pinned to.
func (t *Task) CoreID() int { return t.core }

// Core returns the hardware core the task is pinned to.
func (t *Task) Core() *hw.Core { return t.proc.kernel.machine.Core(t.core) }

// ASID returns the task's current address-space identifier.
func (t *Task) ASID() tlb.ASID { return t.asid }

// BaseASID returns the ASID allocated for the task's shadow-table address
// space at creation time.
func (t *Task) BaseASID() tlb.ASID { return t.baseASID }

// Table returns the page table the task currently runs on.
func (t *Task) Table() *pagetable.Table { return t.table }

// SetAddressSpace points the task at a (table, asid) pair — the VDom core
// calls this on VDS switches and migrations. isVDS marks the table as a
// VDS for context-switch accounting.
func (t *Task) SetAddressSpace(table *pagetable.Table, asid tlb.ASID, isVDS bool) {
	t.table = table
	t.asid = asid
	t.vds = isVDS
}

// SavedPerm returns the saved permission-register image.
func (t *Task) SavedPerm() uint64 { return t.savedPerm }

// SetSavedPerm updates the saved permission-register image. If the task is
// currently loaded on its core the live register is updated too.
func (t *Task) SetSavedPerm(v uint64) {
	t.savedPerm = v
	k := t.proc.kernel
	if k.lastTask[t.core] == t {
		k.machine.Core(t.core).Perm().SetRaw(v)
	}
}

// SwitchMMCost returns the cost of a context switch to this task's address
// space, reproducing §7.5: the vanilla kernel pays ContextSwitchBase; the
// VDom kernel pays ~6%/7.63% more for non-VDom processes, plus the VDS
// metadata maintenance when the target runs in a VDS.
func (k *Kernel) SwitchMMCost(target *Task) cycles.Cost {
	base := k.params.ContextSwitchBase
	if !k.vdom {
		return base
	}
	// The VDom kernel's switch_mm carries extra branches and
	// per-ASID bookkeeping even for processes not using VDom.
	slowed := base + base*6/100
	if k.params.Arch == cycles.ARM {
		slowed = base + base*763/10000
	}
	if target != nil && target.vds {
		slowed += k.params.VDSMetadataSwitch
	}
	return slowed
}

// Dispatch loads the task's state onto its core if another task (or
// nothing) was running there, returning the context-switch cost (zero when
// the task is already current). The hardware pgd switch preserves the TLB
// under ASIDs.
func (k *Kernel) Dispatch(t *Task) cycles.Cost {
	core := k.machine.Core(t.core)
	var cost cycles.Cost
	if k.lastTask[t.core] != t {
		mmCost := k.SwitchMMCost(t)
		pgd := core.SwitchPgd(t.table, t.asid)
		core.Perm().SetRaw(t.savedPerm)
		k.lastTask[t.core] = t
		k.metrics.Attribute("kernel", "ctx-switch", uint64(mmCost))
		k.metrics.Attribute("hw", "pgd-switch", uint64(pgd))
		cost = mmCost + pgd
	} else if core.Table() != t.table || core.ASID() != t.asid {
		// Same task, new address space (VDS switch already charged by
		// the core layer): just reload the pgd.
		cost = core.SwitchPgd(t.table, t.asid)
		k.metrics.Attribute("hw", "pgd-switch", uint64(cost))
	}
	return cost
}

// CurrentOn returns the task whose state is loaded on core id.
func (k *Kernel) CurrentOn(core int) *Task { return k.lastTask[core] }

// maxFaultRetries bounds fault-repair loops; a well-formed system never
// needs more than a handful (demand-page then domain-map, for instance).
const maxFaultRetries = 8

// Access performs one memory access on behalf of the task, dispatching
// page faults to the memory manager and domain faults to the process's
// fault handler, exactly as the modified page-fault path of §6.2 does. It
// returns the total cycle cost including fault handling, and ErrSigsegv
// (possibly wrapped) for violations.
func (t *Task) Access(addr pagetable.VAddr, write bool) (cycles.Cost, error) {
	cost, err := t.access(addr, write)
	if ot := t.proc.kernel.opTap; ot != nil {
		ot(tap.Event{Op: tap.OpAccess, TID: t.tid, Addr: addr, Write: write, Cost: cost, Err: err})
	}
	return cost, err
}

// access is the untapped body of Access.
func (t *Task) access(addr pagetable.VAddr, write bool) (cycles.Cost, error) {
	k := t.proc.kernel
	// Attribution invariant: every component added to total is charged to
	// exactly one (layer, op) account — Dispatch and the fault handler
	// attribute their own returns, everything else is attributed here — so
	// with a registry attached the returned cost decomposes without
	// residue.
	total := k.Dispatch(t)
	core := k.machine.Core(t.core)
	for try := 0; try < maxFaultRetries; try++ {
		res := core.Access(addr, write)
		total += res.Cost
		k.metrics.Attribute("hw", "access", uint64(res.Cost))
		switch res.Kind {
		case hw.AccessOK:
			return total, nil
		case hw.FaultNotPresent:
			total += k.params.FaultEntry
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultEntry))
			fix, err := t.proc.as.HandleFault(t.table, addr, write)
			if err != nil {
				return total, fmt.Errorf("%w: %w at %#x", ErrSigsegv, err, uint64(addr))
			}
			total += cycles.Cost(fix.PTEWrites)*k.params.PTEWrite + k.params.FaultExit
			k.metrics.Attribute("pagetable", "pte-write", uint64(cycles.Cost(fix.PTEWrites)*k.params.PTEWrite))
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultExit))
		case hw.FaultWriteProtect:
			total += k.params.FaultEntry
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultEntry))
			fix, err := t.proc.as.HandleFault(t.table, addr, write)
			if err != nil || fix.PTEWrites == 0 {
				return total, fmt.Errorf("%w: write to read-only page %#x", ErrSigsegv, uint64(addr))
			}
			// The stale translation must leave the TLB before retry.
			core.TLB().FlushPage(t.asid, addr.VPN())
			total += cycles.Cost(fix.PTEWrites)*k.params.PTEWrite +
				k.params.TLBFlushLocalPage + k.params.FaultExit
			k.metrics.Attribute("pagetable", "pte-write", uint64(cycles.Cost(fix.PTEWrites)*k.params.PTEWrite))
			k.metrics.Attribute("tlb", "flush", uint64(k.params.TLBFlushLocalPage))
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultExit))
		case hw.FaultDomainPerm, hw.FaultPMDDisabled:
			total += k.params.FaultEntry
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultEntry))
			if t.proc.handler == nil {
				if c, ok := t.repairSpuriousFault(core, addr, write, res.Kind); ok {
					total += c + k.params.FaultExit
					k.metrics.Attribute("kernel", "fault", uint64(c+k.params.FaultExit))
					continue
				}
				return total, fmt.Errorf("%w: domain fault at %#x", ErrSigsegv, uint64(addr))
			}
			// The handler attributes its own cost (the VDom core charges
			// its activation machinery per layer), so c is not
			// re-attributed here.
			c, handled, err := t.proc.handler.HandleDomainFault(t, addr, write, res.Kind)
			total += c
			if err != nil {
				return total, err
			}
			if !handled {
				if c, ok := t.repairSpuriousFault(core, addr, write, res.Kind); ok {
					total += c + k.params.FaultExit
					k.metrics.Attribute("kernel", "fault", uint64(c+k.params.FaultExit))
					continue
				}
				return total, fmt.Errorf("%w: domain fault at %#x", ErrSigsegv, uint64(addr))
			}
			total += k.params.FaultExit
			k.metrics.Attribute("kernel", "fault", uint64(k.params.FaultExit))
			// The handler may have switched the task's address space;
			// reload core state before retrying.
			total += k.Dispatch(t)
		default:
			return total, fmt.Errorf("kernel: unexpected fault kind %v", res.Kind)
		}
	}
	return total, fmt.Errorf("%w: fault loop at %#x", ErrSigsegv, uint64(addr))
}

// repairSpuriousFault is the last resort of the domain-fault path: before
// delivering SIGSEGV for a fault nobody claimed, the kernel re-walks the
// live PTE and compares it with the live permission register. If both
// agree the access is legal, the fault was spurious — stale TLB
// micro-state, exactly what the chaos layer injects — and flushing the
// translation and retrying recovers it. Genuine violations (or any
// disagreement) return false so the SIGSEGV stands.
func (t *Task) repairSpuriousFault(core *hw.Core, addr pagetable.VAddr, write bool, kind hw.FaultKind) (cycles.Cost, bool) {
	if kind != hw.FaultDomainPerm {
		return 0, false
	}
	k := t.proc.kernel
	cost := k.params.PageWalk
	wr := t.table.Walk(addr)
	if !wr.Present || wr.PMDDisabled {
		return cost, false
	}
	if write && !wr.PTE.Writable {
		return cost, false
	}
	if !core.Perm().Allows(uint8(wr.PTE.Pdom), write) {
		return cost, false
	}
	core.TLB().FlushPage(t.asid, addr.VPN())
	cost += k.params.TLBFlushLocalPage
	if k.chaos != nil {
		k.chaos.NoteSpuriousFaultRepaired(t.core)
	}
	return cost, true
}
