package core

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/tlb"
)

// Errors returned by the VDom core.
var (
	// ErrNoVDR means the calling thread never called VdrAlloc.
	ErrNoVDR = tap.NewOutcome(tap.CodeNoVDR, "core: thread has no VDR")
	// ErrDenied reports an access the calling thread's VDR does not
	// permit; the kernel turns it into SIGSEGV.
	ErrDenied = tap.NewOutcome(tap.CodeDenied, "core: vdom permission denied")
	// ErrReassign reports an attempt to assign a second vdom to memory
	// already protected by another vdom (forbidden for address-space
	// integrity, §7.2).
	ErrReassign = tap.NewOutcome(tap.CodeReassign, "core: area already assigned to another vdom")
	// ErrFreedVdom reports use of a vdom id that was freed or never
	// allocated.
	ErrFreedVdom = tap.NewOutcome(tap.CodeFreedVdom, "core: vdom not allocated")
	// ErrNoResources reports that a required resource (a free pdom, an
	// evictable vdom, a VDS) could not be obtained; callers with a
	// degradation path retry or fall back before surfacing it.
	ErrNoResources = tap.NewOutcome(tap.CodeNoResources, "core: no resources")
	// ErrExhausted reports that a resource space is exhausted and every
	// degradation path failed — the terminal form of ErrNoResources.
	ErrExhausted = tap.NewOutcome(tap.CodeExhausted, "core: resources exhausted")
	// ErrDegraded reports that an operation failed even after its degraded
	// fallback (e.g. a retried allocation failing twice).
	ErrDegraded = tap.NewOutcome(tap.CodeDegraded, "core: degraded operation failed")
)

// Chaos lets a fault-injection layer (internal/chaos) perturb the
// manager's resource allocation and observe its degradation paths. Hooks
// are consulted only when a layer is attached, keeping the paths
// zero-cost when chaos is off.
type Chaos interface {
	// InjectVDSAllocFailure reports whether the next VDS allocation should
	// fail transiently.
	InjectVDSAllocFailure() bool
	// InjectPdomExhaustion reports whether the next activation should
	// behave as if its current VDS had no free pdom, forcing the slow
	// paths (migrate / switch / evict).
	InjectPdomExhaustion() bool
	// NoteDegradedFallback records that a degradation path ran; what names
	// the path (e.g. "activate:evict-fallback").
	NoteDegradedFallback(what string)
}

// Policy selects the optional behaviours of the VDom implementation; the
// defaults match the paper's system, and the switches exist for the
// ablation benchmarks called out in DESIGN.md.
type Policy struct {
	// SecureGate uses the Intel secure call gate (pdom1-sealed VDRs,
	// stack switch) for API calls; false selects the fast API (Table 3
	// X86f). Ignored on ARM, where the DACR syscall path is always
	// taken.
	SecureGate bool
	// NoPMDOpt disables the §5.5 PMD-disable fast path for evictions.
	NoPMDOpt bool
	// StrictLRU disables the HLRU last-pdom heuristic (ablation).
	StrictLRU bool
	// RangeFlushThresholdPages is the eviction size above which VDom
	// invalidates the whole ASID instead of issuing range flushes.
	RangeFlushThresholdPages uint64
	// DefaultNas is the address-space budget given to threads whose
	// VdrAlloc passes nas <= 0.
	DefaultNas int
}

// DefaultPolicy returns the paper-faithful configuration.
func DefaultPolicy() Policy {
	return Policy{
		SecureGate:               true,
		RangeFlushThresholdPages: 64,
		DefaultNas:               4,
	}
}

// Stats counts domain-virtualization events for the experiment harness.
type Stats struct {
	WrVdrCalls    uint64
	MapsToFree    uint64 // flowchart ❸
	Migrations    uint64 // ❼/❽ thread migrations
	VDSAllocs     uint64
	VDSSwitches   uint64 // ❺ pgd switches
	Evictions     uint64 // ❺ vdom evictions
	EvictedPages  uint64
	PMDFastEvicts uint64 // evictions that used the PMD-disable path
	RangeFlushes  uint64
	ASIDFlushes   uint64
	Shootdowns    uint64
	DomainFaults  uint64
	RegisterSyncs uint64
	HLRUHits      uint64 // remaps that reused the last pdom cheaply
}

// Emit publishes the stats as named metrics counters under the core/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("core/wrvdr-calls", s.WrVdrCalls)
	emit("core/maps-to-free", s.MapsToFree)
	emit("core/migrations", s.Migrations)
	emit("core/vds-allocs", s.VDSAllocs)
	emit("core/vds-switches", s.VDSSwitches)
	emit("core/evictions", s.Evictions)
	emit("core/evicted-pages", s.EvictedPages)
	emit("core/pmd-fast-evicts", s.PMDFastEvicts)
	emit("core/range-flushes", s.RangeFlushes)
	emit("core/asid-flushes", s.ASIDFlushes)
	emit("core/shootdowns", s.Shootdowns)
	emit("core/domain-faults", s.DomainFaults)
	emit("core/register-syncs", s.RegisterSyncs)
	emit("core/hlru-hits", s.HLRUHits)
}

// Add returns the field-wise sum of two stats snapshots, for aggregating
// counters across independent machines (e.g. chaos soak shards).
func (s Stats) Add(o Stats) Stats {
	s.WrVdrCalls += o.WrVdrCalls
	s.MapsToFree += o.MapsToFree
	s.Migrations += o.Migrations
	s.VDSAllocs += o.VDSAllocs
	s.VDSSwitches += o.VDSSwitches
	s.Evictions += o.Evictions
	s.EvictedPages += o.EvictedPages
	s.PMDFastEvicts += o.PMDFastEvicts
	s.RangeFlushes += o.RangeFlushes
	s.ASIDFlushes += o.ASIDFlushes
	s.Shootdowns += o.Shootdowns
	s.DomainFaults += o.DomainFaults
	s.RegisterSyncs += o.RegisterSyncs
	s.HLRUHits += o.HLRUHits
	return s
}

// permSet is a dense VdomID-indexed permission table. Vdom ids are
// allocated sequentially per process, so a slice replaces the former
// map: reads beyond the backing array mean VPermNone (exactly as a map
// miss did), and the VDS-switch hot path iterates a flat byte array
// instead of a map. An explicit VPermNone entry and an absent one are
// indistinguishable everywhere (every consumer filters on VPermNone),
// which is what makes the representations equivalent.
type permSet []VPerm

// get returns the permission on d (VPermNone when never set).
func (s permSet) get(d VdomID) VPerm {
	if int(d) < len(s) {
		return s[d]
	}
	return VPermNone
}

// set stores the permission on d, growing the table as needed.
func (s *permSet) set(d VdomID, p VPerm) {
	for int(d) >= len(*s) {
		*s = append(*s, VPermNone)
	}
	(*s)[d] = p
}

// clear resets the permission on d to VPermNone.
func (s permSet) clear(d VdomID) {
	if int(d) < len(s) {
		s[d] = VPermNone
	}
}

// VDR is a thread's virtual domain register: its permissions on every vdom
// plus its address-space attachments (§5.2).
type VDR struct {
	task    *kernel.Task
	perms   permSet
	nas     int
	vdses   []*VDS // attached address spaces, in attach order
	current *VDS
}

// Current returns the VDS the thread is resident in.
func (r *VDR) Current() *VDS { return r.current }

// Perm returns the thread's permission on d.
func (r *VDR) Perm(d VdomID) VPerm { return r.perms.get(d) }

// Manager is the per-process VDom instance: the VDM of §5.3 plus the
// domain virtualization algorithm of §5.4. It implements both
// kernel.FaultHandler (domain faults) and mm.DomainResolver (per-VDS page
// domain tags for demand paging).
type Manager struct {
	proc   *kernel.Process
	params *cycles.Params
	policy Policy

	vdt      *VDT
	nextVdom VdomID
	live     map[VdomID]bool
	freq     map[VdomID]bool

	vdses     []*VDS
	nextVDSID int
	byTable   map[*pagetable.Table]*VDS
	vdrs      map[*kernel.Task]*VDR

	// One-entry byTable memo for the PdomFor fault path; dropped on any
	// byTable mutation (attach, destroy, checkpoint restore).
	memoTable *pagetable.Table
	memoVDS   *VDS

	// Stats is exported for the experiment harness; reading it while
	// tasks run is fine in the single-threaded simulation.
	Stats Stats

	tracer Tracer
	chaos  Chaos
	apiTap tap.Tap

	metrics *metrics.Registry
	// charged accumulates, within one public API call, the cycles inner
	// helpers already attributed to specific (layer, op) accounts; endOp
	// attributes only the uncovered remainder, so the registry's total
	// always equals the sum of the costs returned to callers.
	charged uint64

	// retagASIDs is flushRetagged's scratch list. Only its capacity
	// outlives a call, so a warm flush does not allocate.
	retagASIDs []tlb.ASID
}

// SetChaos attaches a fault-injection layer. Pass nil to detach.
func (m *Manager) SetChaos(c Chaos) { m.chaos = c }

// SetMetrics attaches a metrics registry; the manager then attributes
// every cycle its API returns by (layer, operation) and feeds the
// domain-activation histograms. Pass nil (the default) to detach.
func (m *Manager) SetMetrics(r *metrics.Registry) { m.metrics = r }

// Metrics returns the attached registry, or nil.
func (m *Manager) Metrics() *metrics.Registry { return m.metrics }

// attr charges c cycles to the (layer, op) account and records them as
// covered for the public call in flight.
func (m *Manager) attr(layer, op string, c cycles.Cost) {
	if m.metrics == nil {
		return
	}
	m.metrics.Attribute(layer, op, uint64(c))
	m.charged += uint64(c)
}

// endOp closes a public API call by attributing the portion of its
// returned cost that no inner helper claimed to ("core", op). Deferred
// with a named cost return, it makes attribution self-correcting: the
// per-layer breakdown sums to the exact cost the caller was charged.
func (m *Manager) endOp(op string, cost *cycles.Cost) {
	if m.metrics == nil {
		return
	}
	if total := uint64(*cost); total >= m.charged {
		m.metrics.Attribute("core", op, total-m.charged)
	}
	m.charged = 0
}

// noteDegraded records a degradation-path activation with the chaos layer.
func (m *Manager) noteDegraded(what string) {
	if m.chaos != nil {
		m.chaos.NoteDegradedFallback(what)
	}
}

var (
	_ kernel.FaultHandler = (*Manager)(nil)
	_ mm.DomainResolver   = (*Manager)(nil)
	_ kernel.ASIDLister   = (*Manager)(nil)
)

// Attach initializes VDom for the process (vdom_init): it installs the
// fault handler and domain resolver and returns the manager.
func Attach(proc *kernel.Process, policy Policy) *Manager {
	if policy.DefaultNas <= 0 {
		policy.DefaultNas = DefaultPolicy().DefaultNas
	}
	if policy.RangeFlushThresholdPages == 0 {
		policy.RangeFlushThresholdPages = DefaultPolicy().RangeFlushThresholdPages
	}
	m := &Manager{
		proc:     proc,
		params:   proc.Kernel().Params(),
		policy:   policy,
		vdt:      NewVDT(),
		nextVdom: 1,
		live:     make(map[VdomID]bool),
		freq:     make(map[VdomID]bool),
		byTable:  make(map[*pagetable.Table]*VDS),
		vdrs:     make(map[*kernel.Task]*VDR),
	}
	proc.SetFaultHandler(m)
	proc.AS().SetResolver(m)
	return m
}

// Process returns the process this manager protects.
func (m *Manager) Process() *kernel.Process { return m.proc }

// Policy returns the active policy.
func (m *Manager) Policy() Policy { return m.policy }

// VDSes returns the live virtual domain spaces.
func (m *Manager) VDSes() []*VDS { return m.vdses }

// VDT exposes the virtual domain table (for tests and diagnostics).
func (m *Manager) VDT() *VDT { return m.vdt }

// VDROf returns the thread's VDR, or nil.
func (m *Manager) VDROf(t *kernel.Task) *VDR { return m.vdrs[t] }

// --- mm.DomainResolver ---

// PdomFor resolves a VMA tag to the hardware domain it carries in table t:
// the mapped pdom if t is a VDS that maps the vdom, access-never
// otherwise. The process shadow table always sees protected memory as
// access-never, so threads without a VDR can never touch it.
func (m *Manager) PdomFor(t *pagetable.Table, tag mm.Tag) (pagetable.Pdom, bool) {
	if tag == 0 {
		return DefaultPdom, true
	}
	vds := m.memoVDS
	if t != m.memoTable {
		vds = m.byTable[t]
		m.memoTable, m.memoVDS = t, vds
	}
	if vds != nil {
		if p, ok := vds.PdomOf(VdomID(tag)); ok {
			return p, true
		}
	}
	return 0, false
}

// AccessNever returns the reserved access-never pdom.
func (m *Manager) AccessNever() pagetable.Pdom { return AccessNeverPdom }

// --- VDom API (§5.2) ---

// apiCost is the user-space entry/exit cost of one VDom API call: the
// plain call on the fast X86 profile, the pdom1 call gate on the secure
// profile, and a kernel round trip on ARM (DACR is privileged).
func (m *Manager) apiCost() cycles.Cost {
	c := m.params.CallReturn
	if !m.params.UserWritablePermReg {
		return c + m.params.SyscallReturn
	}
	if m.policy.SecureGate {
		c += m.params.GateEntry + m.params.GateExit
	}
	return c
}

// AllocVdom allocates a fresh vdom (vdom_alloc). freq marks the domain as
// frequently-accessed, biasing the algorithm toward eviction-in-place over
// VDS switches when it must be activated (§5.4).
func (m *Manager) AllocVdom(freqAccessed bool) (d VdomID, cost cycles.Cost) {
	defer func() { m.tapOp(tap.Event{Op: tap.OpVdomAlloc, Dom: uint64(d), Freq: freqAccessed, Cost: cost}) }()
	defer m.endOp("vdom-alloc", &cost)
	d = m.nextVdom
	m.nextVdom++
	m.live[d] = true
	if freqAccessed {
		m.freq[d] = true
	}
	cost = m.apiCost() + m.params.SyscallReturn
	return d, cost
}

// FreeVdom releases a vdom (vdom_free): it unbinds the vdom from every VDS
// (freeing the pdoms), clears its VDT chain, and forgets per-thread
// permissions lazily.
func (m *Manager) FreeVdom(d VdomID) (cost cycles.Cost, err error) {
	defer func() { m.tapOp(tap.Event{Op: tap.OpVdomFree, Dom: uint64(d), Cost: cost, Err: err}) }()
	defer m.endOp("vdom-free", &cost)
	if !m.live[d] {
		return m.apiCost(), ErrFreedVdom
	}
	cost = m.apiCost() + m.params.SyscallReturn
	for _, vds := range m.vdses {
		if !vds.Mapped(d) {
			continue
		}
		// Disable the vdom's present pages before releasing the pdom:
		// the hardware domain will be reused by a different trust
		// domain, and pages still tagged with it would silently fall
		// under the new owner's permissions.
		var pteWrites, pmdWrites uint64
		for _, area := range m.vdt.Areas(d) {
			cost += m.params.VDTWalkPerArea
			vds.table.ResetCounts()
			vds.table.EvictRange(area.Start, area.Length, AccessNeverPdom)
			pteWrites += vds.table.PTEWrites
			pmdWrites += vds.table.PMDWrites
		}
		cost += cycles.Cost(pteWrites)*m.params.PTEWrite +
			cycles.Cost(pmdWrites)*m.params.PMDWrite
		m.attr("pagetable", "pte-write", cycles.Cost(pteWrites)*m.params.PTEWrite)
		m.attr("pagetable", "pmd-write", cycles.Cost(pmdWrites)*m.params.PMDWrite)
		cost += m.flushVdomLocal(vds, d)
		vds.uninstall(d, false)
		delete(vds.evicted, d)
		delete(vds.lastMapping, d)
		cost += m.params.DomainMapUpdate
		m.resyncVDSThreads(vds)
	}
	delete(m.live, d)
	delete(m.freq, d)
	m.vdt.Clear(d)
	// Drop the freed vdom from every VDR eagerly: vdom ids are never
	// reused so stale bits cannot alias, but clearing them here keeps the
	// VDR state auditable (no permission may reference a dead vdom).
	for _, vdr := range m.vdrs {
		vdr.perms.clear(d)
	}
	m.trace(Event{Kind: EventFree, Vdom: d, Cost: cost})
	return cost, nil
}

// Mprotect assigns the pages containing [addr, addr+length) to vdom d
// (vdom_mprotect). Reassigning memory that already belongs to a different
// vdom is rejected to preserve address-space integrity.
func (m *Manager) Mprotect(task *kernel.Task, addr pagetable.VAddr, length uint64, d VdomID) (cost cycles.Cost, err error) {
	defer func() {
		m.tapOp(tap.Event{Op: tap.OpVdomMprotect, TID: kernel.TIDOf(task), Dom: uint64(d), Addr: addr, Len: length, Cost: cost, Err: err})
	}()
	defer m.endOp("mprotect", &cost)
	cost = m.apiCost() + m.params.SyscallReturn
	if !m.live[d] {
		return cost, ErrFreedVdom
	}
	start := addr.PageAlign()
	end := (addr + pagetable.VAddr(length) + pagetable.PageSize - 1).PageAlign()
	var conflict error
	m.proc.AS().VMAsIn(start, end, func(v *mm.VMA) bool {
		if v.Tag == 0 || VdomID(v.Tag) == d {
			return true
		}
		// Areas owned by a LIVE vdom (or permanently sealed memory)
		// can never be re-assigned — the address-space integrity rule
		// of §7.2. Once the owning vdom is freed, the binding is
		// released and the memory can serve a new trust domain.
		if v.Tag == SealTag || m.live[VdomID(v.Tag)] {
			conflict = fmt.Errorf("%w: vdom %d owns %v", ErrReassign, v.Tag, v)
			return false
		}
		return true
	})
	if conflict != nil {
		return cost, conflict
	}
	rep, err := m.proc.AS().SetTag(addr, length, mm.Tag(d))
	if err != nil {
		return cost, err
	}
	cost += cycles.Cost(rep.PTEWrites)*m.params.PTEWrite +
		cycles.Cost(rep.PMDWrites)*m.params.PMDWrite
	m.attr("pagetable", "pte-write", cycles.Cost(rep.PTEWrites)*m.params.PTEWrite)
	m.attr("pagetable", "pmd-write", cycles.Cost(rep.PMDWrites)*m.params.PMDWrite)
	if rep.PagesTouched > 0 {
		// Already-present pages changed their domain tag: translations
		// cached under the old tag must not survive, or the old owner
		// keeps access until an incidental flush.
		cost += m.flushRetagged(task, start, uint64(end-start))
	}
	m.vdt.AddArea(d, start, uint64(end-start))
	return cost, nil
}

// flushRetagged invalidates the translations of pages whose domain tag
// just changed, under every ASID of the process (shadow ASIDs and VDS
// ASIDs) on every core that may cache them.
func (m *Manager) flushRetagged(task *kernel.Task, start pagetable.VAddr, length uint64) cycles.Cost {
	machine := m.proc.Kernel().Machine()
	pages := length / pagetable.PageSize
	asids := m.retagASIDs[:0]
	set := hw.CPUSet(0).Add(task.CoreID())
	for _, t := range m.proc.Tasks() {
		asids = appendASID(asids, t.BaseASID())
		asids = appendASID(asids, t.ASID())
		set = set.Add(t.CoreID())
	}
	for _, vds := range m.vdses {
		asids = appendASID(asids, vds.asid)
		set = set.Union(vds.cachedCores)
	}
	m.retagASIDs = asids
	local := m.params.TLBFlushLocalPage * cycles.Cost(minU64(pages, 8))
	rep := machine.ShootdownReliable(task.CoreID(), set, func(tb tlb.Cache) {
		for _, a := range asids {
			tb.FlushRange(a, start.VPN(), pages)
		}
	}, local)
	if rep.RemoteCores > 0 {
		m.Stats.Shootdowns++
	}
	m.attr("tlb", "flush", local)
	m.attr("hw", "ipi", rep.InitiatorCycles-local)
	return rep.InitiatorCycles
}

// appendASID appends a to asids unless it is already there, keeping
// first-seen order. A process holds a handful of ASIDs, so a linear scan
// beats hashing.
func appendASID(asids []tlb.ASID, a tlb.ASID) []tlb.ASID {
	for _, x := range asids {
		if x == a {
			return asids
		}
	}
	return append(asids, a)
}

// VdrAlloc gives the thread a permission register and limits the number of
// address spaces it can efficiently switch between (vdr_alloc). The thread
// joins the process's first VDS (created on demand).
func (m *Manager) VdrAlloc(task *kernel.Task, nas int) (cost cycles.Cost, err error) {
	// The defer captures the caller's nas before the default is applied
	// below, so the trace records the argument as passed.
	defer func(argNas int) {
		m.tapOp(tap.Event{Op: tap.OpVdrAlloc, TID: kernel.TIDOf(task), Len: uint64(argNas), Cost: cost, Err: err})
	}(nas)
	defer m.endOp("vdr-alloc", &cost)
	if m.vdrs[task] != nil {
		return m.apiCost(), fmt.Errorf("core: thread %d already has a VDR", task.TID())
	}
	if nas <= 0 {
		nas = m.policy.DefaultNas
	}
	cost = m.apiCost() + m.params.SyscallReturn
	var home *VDS
	if len(m.vdses) == 0 {
		home, err = m.allocVDS()
		if err != nil {
			// Degraded path: a transient allocation failure is retried
			// once before the call fails.
			m.noteDegraded("vdr_alloc:vds-retry")
			home, err = m.allocVDS()
			if err != nil {
				return cost, fmt.Errorf("core: vdr_alloc failed after retry: %w: %w", ErrDegraded, err)
			}
		}
		cost += m.params.VDSAllocate
		m.attr("core", "vds-alloc", m.params.VDSAllocate)
	} else {
		home = m.vdses[0]
	}
	vdr := &VDR{
		task:    task,
		perms:   nil,
		nas:     nas,
		vdses:   []*VDS{home},
		current: home,
	}
	m.vdrs[task] = vdr
	home.threads[task] = true
	home.noteCore(task.CoreID())
	task.SetAddressSpace(home.table, home.asid, true)
	m.syncRegister(vdr)
	cost += m.params.PgdSwitch
	m.attr("hw", "pgd-switch", m.params.PgdSwitch)
	return cost, nil
}

// PlaceInNewVDS moves the thread into a freshly allocated, initially
// empty VDS. Multi-address-space applications (and the Table 5 memory
// synchronization experiment) use it to pin threads to distinct address
// spaces explicitly instead of waiting for the algorithm to spread them.
func (m *Manager) PlaceInNewVDS(task *kernel.Task) (cost cycles.Cost, err error) {
	defer func() { m.tapOp(tap.Event{Op: tap.OpNewVDS, TID: kernel.TIDOf(task), Cost: cost, Err: err}) }()
	defer m.endOp("place-in-new-vds", &cost)
	vdr := m.vdrs[task]
	if vdr == nil {
		return 0, ErrNoVDR
	}
	nv, err := m.allocVDS()
	if err != nil {
		return 0, fmt.Errorf("core: place_in_new_vds: %w", err)
	}
	m.Stats.VDSAllocs++
	vdr.vdses = append(vdr.vdses, nv)
	cost = m.params.VDSAllocate
	m.attr("core", "vds-alloc", m.params.VDSAllocate)
	c, err := m.switchVDS(task, vdr, nv, 0)
	cost += c
	if err != nil {
		return cost, err
	}
	if len(vdr.vdses) > vdr.nas {
		vdr.detach(vdr.vdses[0])
	}
	return cost, nil
}

// VdrFree releases the thread's VDR (vdr_free).
func (m *Manager) VdrFree(task *kernel.Task) (cost cycles.Cost, err error) {
	defer func() { m.tapOp(tap.Event{Op: tap.OpVdrFree, TID: kernel.TIDOf(task), Cost: cost, Err: err}) }()
	defer m.endOp("vdr-free", &cost)
	vdr := m.vdrs[task]
	if vdr == nil {
		return m.apiCost(), ErrNoVDR
	}
	vdr.current.addThreadRef(vdr.perms, -1)
	delete(vdr.current.threads, task)
	delete(m.vdrs, task)
	// Restore the task's own base ASID: keeping the VDS ASID would pair
	// it with the shadow table and alias the VDS's cached translations.
	task.SetAddressSpace(m.proc.AS().Shadow(), task.BaseASID(), false)
	task.SetSavedPerm(hw.DenyAll())
	m.ReapVDSes()
	return m.apiCost() + m.params.SyscallReturn, nil
}

// RdVdr reads the calling thread's permission on d (rdvdr).
func (m *Manager) RdVdr(task *kernel.Task, d VdomID) (perm VPerm, cost cycles.Cost, err error) {
	defer func() {
		m.tapOp(tap.Event{Op: tap.OpVdrRead, TID: kernel.TIDOf(task), Dom: uint64(d), Perm: uint8(perm), Cost: cost, Err: err})
	}()
	defer m.endOp("rdvdr", &cost)
	vdr := m.vdrs[task]
	if vdr == nil {
		return VPermNone, m.apiCost(), ErrNoVDR
	}
	return vdr.perms.get(d), m.apiCost() + m.params.PermRegRead, nil
}

// WrVdr writes the calling thread's permission on d (wrvdr). Granting an
// accessible permission activates the vdom: if it is not mapped in the
// thread's current VDS, the domain virtualization algorithm runs — mapping
// a free pdom, migrating the thread, switching VDSes, or evicting an old
// vdom, whichever is cheapest under §5.4's rules. The returned cost covers
// the whole operation.
func (m *Manager) WrVdr(task *kernel.Task, d VdomID, perm VPerm) (cost cycles.Cost, err error) {
	defer func() {
		m.tapOp(tap.Event{Op: tap.OpVdrWrite, TID: kernel.TIDOf(task), Dom: uint64(d), Perm: uint8(perm), Cost: cost, Err: err})
	}()
	defer m.endOp("wrvdr", &cost)
	vdr := m.vdrs[task]
	if vdr == nil {
		return m.apiCost(), ErrNoVDR
	}
	if !m.live[d] {
		return m.apiCost(), ErrFreedVdom
	}
	m.Stats.WrVdrCalls++
	cost = m.apiCost() + m.params.VDRUpdate

	old := vdr.perms.get(d)
	vdr.perms.set(d, perm)
	// Maintain the #thread counters of the current VDS on
	// accessible/inaccessible transitions.
	switch {
	case !old.Accessible() && perm.Accessible():
		vdr.current.adjustRef(d, +1)
	case old.Accessible() && !perm.Accessible():
		vdr.current.adjustRef(d, -1)
	}

	if perm.Accessible() && !vdr.current.Mapped(d) {
		c, err := m.activate(task, vdr, d)
		cost += c
		if err != nil {
			return cost, err
		}
	} else {
		vdr.current.touch(d)
		// Fold the new permission into the live register image (the
		// merged wrpkru of the call gate).
		m.syncRegister(vdr)
		cost += m.params.PermRegWrite
		m.attr("hw", "perm-reg-write", m.params.PermRegWrite)
	}
	return cost, nil
}

// --- kernel.FaultHandler ---

// HandleDomainFault services protection-key/domain faults: it checks the
// thread's VDR for the vdom protecting the faulting page and, if the
// permission allows the access, runs the domain virtualization algorithm
// to make the vdom reachable, then lets the kernel retry.
func (m *Manager) HandleDomainFault(task *kernel.Task, addr pagetable.VAddr, write bool, kind hw.FaultKind) (cost cycles.Cost, handled bool, err error) {
	defer m.endOp("fault", &cost)
	m.Stats.DomainFaults++
	vma := m.proc.AS().FindVMA(addr)
	if vma == nil || vma.Tag == 0 {
		return 0, false, nil // not VDom-protected: default SIGSEGV
	}
	d := VdomID(vma.Tag)
	if !m.live[d] {
		// The owning vdom was freed: stale VDR bits must not
		// resurrect it through the fault path.
		return 0, false, fmt.Errorf("%w: vdom %d was freed: %w",
			kernel.ErrSigsegv, d, ErrFreedVdom)
	}
	vdr := m.vdrs[task]
	if vdr == nil {
		return 0, false, fmt.Errorf("%w: thread %d has no VDR for vdom %d",
			kernel.ErrSigsegv, task.TID(), d)
	}
	perm := vdr.perms.get(d)
	if !perm.Allows(write) {
		op := "read"
		if write {
			op = "write"
		}
		return 0, false, fmt.Errorf("%w: %v of vdom %d denied (VDR=%v): %w",
			kernel.ErrSigsegv, op, d, perm, ErrDenied)
	}
	if !vdr.current.Mapped(d) {
		c, aerr := m.activate(task, vdr, d)
		cost += c
		if aerr != nil {
			return cost, false, aerr
		}
	} else {
		// Mapped but the access faulted: a stale translation (old tag)
		// survived in the TLB, or the register image was stale.
		m.syncRegister(vdr)
		cost += m.params.PermRegWrite
		m.attr("hw", "perm-reg-write", m.params.PermRegWrite)
	}
	task.Core().TLB().FlushPage(vdr.current.asid, addr.VPN())
	cost += m.params.TLBFlushLocalPage
	m.attr("tlb", "flush", m.params.TLBFlushLocalPage)
	return cost, true, nil
}

// --- The domain virtualization algorithm (§5.4, Figure 3) ---

// activate makes vdom d reachable for the task, following the flowchart:
//
//	❶ d unmapped in current VDS (guaranteed by callers)
//	❷ free pdom in current VDS → ❸ map it
//	❹ VDS has other threads → ❻/❼ migrate to an accommodating VDS or
//	  ❽ a freshly allocated one
//	❺ single-thread VDS → evict in place, switch to another attached
//	  VDS, attach a new one, or evict — balancing as §5.4 prescribes
func (m *Manager) activate(task *kernel.Task, vdr *VDR, d VdomID) (cycles.Cost, error) {
	vds := vdr.current

	// A pgd switch to an attached VDS that already maps d costs a few
	// hundred cycles; remapping d here would retag every present page.
	// Prefer the switch (the balance §5.4 prescribes).
	for _, o := range vdr.vdses {
		if o != vds && o.Mapped(d) {
			return m.switchVDS(task, vdr, o, d)
		}
	}

	// ❷→❸: free pdom available. An injected pdom exhaustion skips the
	// fast path, steering the activation through the slow paths (migrate,
	// switch, evict) as if the VDS were full.
	if m.chaos == nil || !m.chaos.InjectPdomExhaustion() {
		hint, hasHint := vds.lastMapping[d]
		if m.policy.StrictLRU {
			hasHint = false
		}
		if p, ok := vds.freePdom(hint, hasHint); ok {
			cost := m.mapVdom(vds, d, p)
			m.Stats.MapsToFree++
			m.resyncVDSThreads(vds)
			return cost, nil
		}
	}

	// ❹: shared VDS → migrate the thread away (❻❼❽).
	if vds.NumThreads() > 1 {
		return m.migrateThread(task, vdr, d)
	}

	// ❺: single-thread VDS: balance eviction against VDS switching.
	// Evict in place when d is frequently accessed or other mapped vdoms
	// are still accessible through the register (switching would lose
	// them).
	if m.freq[d] || m.anyAccessibleMapped(vdr, vds, d) {
		return m.evictAndMap(task, vdr, vds, d)
	}
	// Otherwise prefer a pgd switch: first to an attached VDS that
	// already maps d, then to one with a free pdom.
	for _, o := range vdr.vdses {
		if o != vds && o.Mapped(d) {
			return m.switchVDS(task, vdr, o, d)
		}
	}
	for _, o := range vdr.vdses {
		if o != vds && o.FreePdoms() > 0 {
			cost, err := m.switchVDS(task, vdr, o, d)
			if err != nil {
				return cost, err
			}
			cost += m.mapVdom(o, d, mustFree(o))
			m.resyncVDSThreads(o)
			return cost, nil
		}
	}
	// Attach a new VDS if the thread's nas budget allows. A failed
	// allocation degrades to eviction in the current VDS instead of
	// surfacing the transient failure.
	if len(vdr.vdses) < vdr.nas {
		nv, err := m.allocVDS()
		if err != nil {
			m.noteDegraded("activate:evict-fallback")
			return m.evictAndMap(task, vdr, vds, d)
		}
		m.Stats.VDSAllocs++
		vdr.vdses = append(vdr.vdses, nv)
		cost := m.params.VDSAllocate
		m.attr("core", "vds-alloc", m.params.VDSAllocate)
		c, err := m.switchVDS(task, vdr, nv, d)
		cost += c
		if err != nil {
			return cost, err
		}
		cost += m.mapVdom(nv, d, mustFree(nv))
		m.resyncVDSThreads(nv)
		return cost, nil
	}
	// Budget exhausted: evict in the current VDS.
	return m.evictAndMap(task, vdr, vds, d)
}

func mustFree(v *VDS) pagetable.Pdom {
	p, ok := v.freePdom(0, false)
	if !ok {
		panic("core: expected a free pdom")
	}
	return p
}

// anyAccessibleMapped reports whether any mapped vdom other than d is
// accessible per the thread's VDR.
func (m *Manager) anyAccessibleMapped(vdr *VDR, vds *VDS, d VdomID) bool {
	for p := firstUsablePdom; p < vds.numPdoms; p++ {
		e := vds.domainMap[p]
		if e.used && e.vdom != d && vdr.perms.get(e.vdom).Accessible() {
			return true
		}
	}
	return false
}

// allocVDS creates and registers a new VDS. It fails transiently when the
// chaos layer injects an allocation failure, and terminally when the ASID
// space is exhausted even after a generation rollover.
func (m *Manager) allocVDS() (*VDS, error) {
	if m.chaos != nil && m.chaos.InjectVDSAllocFailure() {
		return nil, fmt.Errorf("core: transient VDS allocation failure: %w", ErrNoResources)
	}
	asid, ok := m.proc.Kernel().TryAllocASID()
	if !ok {
		return nil, fmt.Errorf("core: VDS allocation: ASID space full: %w", ErrExhausted)
	}
	vds := newVDS(m.nextVDSID, asid, m.params.NumPdoms)
	m.nextVDSID++
	m.vdses = append(m.vdses, vds)
	m.byTable[vds.table] = vds
	m.memoTable, m.memoVDS = nil, nil
	m.proc.AS().RegisterTable(vds.table)
	m.trace(Event{Kind: EventVDSAlloc, VDS: vds.id})
	return vds, nil
}

// LiveASIDs implements kernel.ASIDLister: the ASIDs of every live VDS, so
// kernel revocation paths flush dormant address spaces too.
func (m *Manager) LiveASIDs() []tlb.ASID {
	out := make([]tlb.ASID, len(m.vdses))
	for i, v := range m.vdses {
		out[i] = v.asid
	}
	return out
}

// mapVdom binds d to pdom p in the VDS and retags d's present pages in the
// VDS's page table. If the vdom previously left this VDS through the
// PMD-disable path and returns to the same pdom, the remap only re-enables
// the PMD entries (the HLRU fast remap, §5.5). Stale translations of the
// retagged pages are flushed locally.
func (m *Manager) mapVdom(vds *VDS, d VdomID, p pagetable.Pdom) cycles.Cost {
	prev, wasEvicted := vds.evicted[d]
	vds.install(d, p)
	// Rebuild the #thread counter from the resident threads' VDRs:
	// permissions granted while the vdom was unmapped become countable
	// only now.
	for t := range vds.threads {
		if vdr := m.vdrs[t]; vdr != nil && vdr.perms.get(d).Accessible() {
			vds.adjustRef(d, +1)
		}
	}
	cost := m.params.DomainMapUpdate
	walk := cycles.Cost(0)

	var pteWrites, pmdWrites uint64
	pagesTouched := uint64(0)
	fastRemap := wasEvicted && prev.viaPMD && prev.pdom == p && !m.policy.NoPMDOpt
	if fastRemap {
		m.Stats.HLRUHits++
	}
	for _, area := range m.vdt.Areas(d) {
		walk += m.params.VDTWalkPerArea
		vds.table.ResetCounts()
		if fastRemap {
			// Full chunks come back via PMD enables; only the
			// partial head/tail pages (retagged to access-never at
			// eviction) need per-PTE restores.
			_, ptes := vds.table.RemapRange(area.Start, area.Length, p)
			pagesTouched += uint64(ptes)
		} else {
			pagesTouched += uint64(vds.table.RetagRange(area.Start, area.Length, p))
		}
		pteWrites += vds.table.PTEWrites
		pmdWrites += vds.table.PMDWrites
	}
	cost += walk
	cost += cycles.Cost(pteWrites)*m.params.PTEWrite + cycles.Cost(pmdWrites)*m.params.PMDWrite
	m.attr("core", "map", m.params.DomainMapUpdate+walk)
	m.attr("pagetable", "pte-write", cycles.Cost(pteWrites)*m.params.PTEWrite)
	m.attr("pagetable", "pmd-write", cycles.Cost(pmdWrites)*m.params.PMDWrite)

	// Pages that were present under the access-never tag may be cached;
	// flush them for this ASID on the local core.
	if pagesTouched > 0 || fastRemap {
		cost += m.flushVdomLocal(vds, d)
	}
	m.trace(Event{Kind: EventMap, Vdom: d, VDS: vds.id, Pdom: p, Cost: cost})
	return cost
}

// flushVdomLocal invalidates d's pages under the VDS's ASID, using range
// flushes below the threshold and an ASID flush above it (§5.5). The flush
// covers every core whose TLB may cache the ASID — the resident threads'
// cores plus the cachedCores history (the mm_cpumask analog), so entries
// left behind by departed threads cannot outlive a revocation. With a
// single resident thread and no history this is local-only (the paper's
// key win). Delivery goes through the reliable shootdown path, so injected
// IPI loss is retried and, failing that, repaired with a full flush.
func (m *Manager) flushVdomLocal(vds *VDS, d VdomID) cycles.Cost {
	pages := m.vdt.TotalPages(d)
	machine := m.proc.Kernel().Machine()
	set := vds.CPUSet().Union(vds.cachedCores)
	useRange := pages <= m.policy.RangeFlushThresholdPages
	flushOne := func(tb tlb.Cache) {
		if useRange {
			for _, area := range m.vdt.Areas(d) {
				tb.FlushRange(vds.asid, area.Start.VPN(), area.Pages())
			}
		} else {
			tb.FlushASID(vds.asid)
		}
	}
	var cost cycles.Cost
	if useRange {
		m.Stats.RangeFlushes++
		cost = m.params.TLBFlushLocalPage * cycles.Cost(minU64(pages, 8))
	} else {
		m.Stats.ASIDFlushes++
		cost = m.params.TLBFlushLocalASID
	}
	initiator := set.Lowest()
	if initiator < 0 {
		// No core can cache the ASID; charge the local flush as before.
		m.attr("tlb", "flush", cost)
		return cost
	}
	rep := machine.ShootdownReliable(initiator, set, flushOne, cost)
	if rep.RemoteCores > 0 {
		m.Stats.Shootdowns++
	}
	if !useRange {
		// A full-ASID flush on every caching core clears the history down
		// to the cores still running in the VDS.
		vds.cachedCores = vds.CPUSet()
	}
	m.attr("tlb", "flush", cost)
	m.attr("hw", "ipi", rep.InitiatorCycles-cost)
	return rep.InitiatorCycles
}

// evictAndMap chooses a victim vdom in the VDS (HLRU), evicts it, and maps
// d into the freed pdom.
func (m *Manager) evictAndMap(task *kernel.Task, vdr *VDR, vds *VDS, d VdomID) (cycles.Cost, error) {
	victim, ok := m.chooseVictim(vdr, vds, d)
	if !ok {
		// Under injected pdom pressure the eviction path can be entered
		// while free pdoms remain: map into one rather than failing.
		hint, hasHint := vds.lastMapping[d]
		if m.policy.StrictLRU {
			hasHint = false
		}
		if p, ok := vds.freePdom(hint, hasHint); ok {
			m.noteDegraded("evict:free-pdom-fallback")
			cost := m.mapVdom(vds, d, p)
			m.Stats.MapsToFree++
			m.resyncVDSThreads(vds)
			return cost, nil
		}
		return 0, fmt.Errorf("core: vdom %d: no evictable vdom in VDS %d (all %d pdoms accessible): %w",
			d, vds.id, vds.numPdoms-firstUsablePdom, ErrNoResources)
	}
	cost := m.params.EvictBase
	walk := cycles.Cost(0)
	m.Stats.Evictions++

	// Disable the victim's pages: PMD fast path for 2 MiB-spanning
	// chunks, per-PTE access-never retag otherwise.
	var pteWrites, pmdWrites uint64
	totalPMDs, totalPTEs := 0, 0
	for _, area := range m.vdt.Areas(victim) {
		walk += m.params.VDTWalkPerArea
		vds.table.ResetCounts()
		if m.policy.NoPMDOpt {
			totalPTEs += vds.table.RetagRange(area.Start, area.Length, AccessNeverPdom)
		} else {
			pmds, ptes := vds.table.EvictRange(area.Start, area.Length, AccessNeverPdom)
			totalPMDs += pmds
			totalPTEs += ptes
		}
		pteWrites += vds.table.PTEWrites
		pmdWrites += vds.table.PMDWrites
	}
	cost += walk
	cost += cycles.Cost(pteWrites)*m.params.PTEWrite + cycles.Cost(pmdWrites)*m.params.PMDWrite
	m.attr("core", "evict", m.params.EvictBase+walk)
	m.attr("pagetable", "pte-write", cycles.Cost(pteWrites)*m.params.PTEWrite)
	m.attr("pagetable", "pmd-write", cycles.Cost(pmdWrites)*m.params.PMDWrite)
	viaPMD := totalPMDs > 0 && totalPTEs == 0
	if totalPMDs > 0 {
		m.Stats.PMDFastEvicts++
	}
	p := vds.uninstall(victim, viaPMD)
	m.Stats.EvictedPages += m.vdt.TotalPages(victim)
	m.trace(Event{Kind: EventEvict, TID: task.TID(), Vdom: victim, VDS: vds.id, Pdom: p, Cost: cost})

	// Invalidate the victim's translations — local-only when the thread
	// exclusively owns the address space.
	cost += m.flushVictim(vds, victim)

	// Map d into the freed pdom and resynchronize every resident
	// thread's register with the new domain map.
	cost += m.mapVdom(vds, d, p)
	m.resyncVDSThreads(vds)
	return cost, nil
}

// flushVictim invalidates an evicted vdom's translations on the cores of
// the VDS.
func (m *Manager) flushVictim(vds *VDS, victim VdomID) cycles.Cost {
	return m.flushVdomLocal(vds, victim)
}

// chooseVictim implements HLRU (§5.5): prefer the vdom occupying d's
// last-time pdom if it is inaccessible and unpinned; otherwise the
// least-recently-used inaccessible unpinned vdom; pinned vdoms are spared
// unless every candidate is pinned, in which case strict LRU applies.
func (m *Manager) chooseVictim(vdr *VDR, vds *VDS, d VdomID) (VdomID, bool) {
	evictable := func(v VdomID) (candidate, pinned bool) {
		if vds.threadsOn(v) > 0 {
			return false, false // some resident thread still accesses it
		}
		perm := vdr.perms.get(v)
		if perm.Accessible() {
			return false, false
		}
		return true, perm == VPermPinned
	}
	if !m.policy.StrictLRU {
		if hint, ok := vds.lastMapping[d]; ok && vds.domainMap[hint].used {
			occ := vds.domainMap[hint].vdom
			if cand, pinned := evictable(occ); cand && !pinned {
				return occ, true
			}
		}
	}
	var (
		bestUnpinned, bestPinned, bestLast       VdomID
		bestUnpinnedTS, bestPinnedTS, bestLastTS uint64
		haveUnpinned, havePinned, haveLast       bool
	)
	for p := firstUsablePdom; p < vds.numPdoms; p++ {
		e := vds.domainMap[p]
		if !e.used || e.vdom == d {
			continue
		}
		cand, pinned := evictable(e.vdom)
		switch {
		case cand && !pinned:
			if !haveUnpinned || e.lastUse < bestUnpinnedTS {
				bestUnpinned, bestUnpinnedTS, haveUnpinned = e.vdom, e.lastUse, true
			}
		case cand && pinned:
			if !havePinned || e.lastUse < bestPinnedTS {
				bestPinned, bestPinnedTS, havePinned = e.vdom, e.lastUse, true
			}
		default:
			// Still accessible to some resident thread: last resort
			// only. The evicted vdom's permissions survive in the
			// VDRs, so a later access simply refaults and remaps it.
			if !haveLast || e.lastUse < bestLastTS {
				bestLast, bestLastTS, haveLast = e.vdom, e.lastUse, true
			}
		}
	}
	if haveUnpinned {
		return bestUnpinned, true
	}
	if havePinned {
		return bestPinned, true
	}
	if haveLast {
		return bestLast, true
	}
	return 0, false
}

// switchVDS moves the task's residency to another attached VDS via a pgd
// switch — no TLB flush thanks to ASIDs (§5.5).
func (m *Manager) switchVDS(task *kernel.Task, vdr *VDR, to *VDS, d VdomID) (cycles.Cost, error) {
	from := vdr.current
	from.addThreadRef(vdr.perms, -1)
	delete(from.threads, task)
	to.threads[task] = true
	to.noteCore(task.CoreID())
	to.addThreadRef(vdr.perms, +1)
	vdr.current = to
	to.touch(d)
	task.SetAddressSpace(to.table, to.asid, true)
	m.syncRegister(vdr)
	m.Stats.VDSSwitches++
	cost := m.params.PgdSwitch + m.params.VDSMetadataSwitch + m.params.PermRegWrite
	m.attr("hw", "pgd-switch", m.params.PgdSwitch)
	m.attr("core", "switch", m.params.VDSMetadataSwitch)
	m.attr("hw", "perm-reg-write", m.params.PermRegWrite)
	m.trace(Event{Kind: EventSwitch, TID: task.TID(), Vdom: d, VDS: to.id, Cost: cost})
	return cost, nil
}

// migrateThread implements ❻❼❽: find (or allocate) a VDS that can
// accommodate the thread's active vdoms plus d, map the missing vdoms
// there, move the thread, and resynchronize its register (Figure 3 right).
func (m *Manager) migrateThread(task *kernel.Task, vdr *VDR, d VdomID) (cycles.Cost, error) {
	needed := m.activeVdoms(vdr, d)
	var target *VDS
	var cost cycles.Cost
	for _, o := range m.vdses {
		if o == vdr.current {
			continue
		}
		if missingIn(o, needed) <= o.FreePdoms() {
			target = o
			break
		}
	}
	if target == nil { // ❽: allocate a fresh VDS
		nv, err := m.allocVDS()
		if err != nil {
			return m.migrateFallback(task, vdr, d, cost, err)
		}
		target = nv
		m.Stats.VDSAllocs++
		cost += m.params.VDSAllocate
		m.attr("core", "vds-alloc", m.params.VDSAllocate)
		vdr.vdses = append(vdr.vdses, target)
	} else if !contains(vdr.vdses, target) {
		vdr.vdses = append(vdr.vdses, target)
	}
	// Map the missing vdoms into the target.
	for _, v := range needed {
		if target.Mapped(v) {
			target.touch(v)
			continue
		}
		p, ok := target.freePdom(lookupHint(target, v, m.policy.StrictLRU))
		if !ok {
			if v != d {
				// A non-essential active vdom is shed rather than
				// failing the migration: it refaults lazily after the
				// move, exactly like the LRU tail activeVdoms drops.
				m.noteDegraded("migrate:shed-vdom")
				continue
			}
			return cost, fmt.Errorf("core: migration target VDS %d ran out of pdoms: %w",
				target.id, ErrNoResources)
		}
		cost += m.mapVdom(target, v, p)
		cost += m.params.MigrationPerVdom
		m.attr("core", "migrate", m.params.MigrationPerVdom)
	}
	// Move the thread.
	from := vdr.current
	from.addThreadRef(vdr.perms, -1)
	delete(from.threads, task)
	target.threads[task] = true
	target.noteCore(task.CoreID())
	target.addThreadRef(vdr.perms, +1)
	vdr.current = target
	task.SetAddressSpace(target.table, target.asid, true)
	m.syncRegister(vdr)
	m.resyncVDSThreads(target)
	m.Stats.Migrations++
	cost += m.params.PgdSwitch + m.params.VDSMetadataSwitch
	m.attr("hw", "pgd-switch", m.params.PgdSwitch)
	m.attr("core", "migrate", m.params.VDSMetadataSwitch)
	// Honour the thread's nas budget: a migration may not leave the
	// thread attached to more address spaces than vdr_alloc allowed, so
	// the departed VDS is dropped first.
	if len(vdr.vdses) > vdr.nas {
		vdr.detach(from)
		m.ReapVDSes()
	}
	m.trace(Event{Kind: EventMigrate, TID: task.TID(), Vdom: d, VDS: target.id, Cost: cost})
	return cost, nil
}

// migrateFallback is the degraded path when a migration cannot obtain a
// target VDS: the thread falls back to a plain VDS switch — to an attached
// space that already maps d, then to one with a free pdom — and finally
// to eviction in place. ErrExhausted surfaces only when every path fails.
func (m *Manager) migrateFallback(task *kernel.Task, vdr *VDR, d VdomID, cost cycles.Cost, cause error) (cycles.Cost, error) {
	m.noteDegraded("migrate:switch-fallback")
	for _, o := range vdr.vdses {
		if o != vdr.current && o.Mapped(d) {
			c, err := m.switchVDS(task, vdr, o, d)
			return cost + c, err
		}
	}
	for _, o := range vdr.vdses {
		if o != vdr.current && o.FreePdoms() > 0 {
			c, err := m.switchVDS(task, vdr, o, d)
			cost += c
			if err != nil {
				return cost, err
			}
			cost += m.mapVdom(o, d, mustFree(o))
			m.resyncVDSThreads(o)
			return cost, nil
		}
	}
	c, err := m.evictAndMap(task, vdr, vdr.current, d)
	cost += c
	if err != nil {
		return cost, fmt.Errorf("core: migration of thread %d for vdom %d: every fallback failed (%v): %w",
			task.TID(), d, cause, ErrExhausted)
	}
	return cost, nil
}

// detach removes a VDS from the thread's attachment list.
func (r *VDR) detach(v *VDS) {
	for i, x := range r.vdses {
		if x == v {
			r.vdses = append(r.vdses[:i], r.vdses[i+1:]...)
			return
		}
	}
}

// ReapVDSes frees every VDS with no resident thread and no attachment —
// orphans left behind by migrations and nas-budget detaches. Reaping
// removes their page tables from the eager-synchronization set, so
// revocations stop paying for dead address spaces. It returns the number
// of VDSes reaped. The kernel would run this from its housekeeping path;
// here it also runs automatically after migrations and VdrFree.
func (m *Manager) ReapVDSes() int {
	attached := make(map[*VDS]bool, len(m.vdses))
	for _, vdr := range m.vdrs {
		for _, v := range vdr.vdses {
			attached[v] = true
		}
	}
	n := 0
	kept := m.vdses[:0]
	for _, vds := range m.vdses {
		// VDS0 is the process's home space and stays (fresh VDRs join
		// it); everything else without users goes.
		if vds.id == 0 || vds.NumThreads() > 0 || attached[vds] {
			kept = append(kept, vds)
			continue
		}
		delete(m.byTable, vds.table)
		m.memoTable, m.memoVDS = nil, nil
		m.proc.AS().UnregisterTable(vds.table)
		// The ASID is retired but stays unreusable until the next
		// generation rollover flushes every TLB, so translations still
		// cached under it can never alias a new address space.
		m.proc.Kernel().FreeASID(vds.asid)
		n++
	}
	m.vdses = kept
	return n
}

func lookupHint(v *VDS, d VdomID, strict bool) (pagetable.Pdom, bool) {
	if strict {
		return 0, false
	}
	h, ok := v.lastMapping[d]
	return h, ok
}

// activeVdoms returns the vdoms a migration must remap in the target: d
// plus the vdoms that are both mapped in the thread's current VDS and held
// with a non-AD permission — the contents of its physical permission
// register, exactly what Figure 3 moves. Grants on unmapped vdoms are
// virtual-only and refault lazily after the move. If everything is live at
// once the least-recently-used entries are shed (they, too, refault).
func (m *Manager) activeVdoms(vdr *VDR, d VdomID) []VdomID {
	out := []VdomID{d}
	vds := vdr.current
	type ent struct {
		v  VdomID
		ts uint64
	}
	var es []ent
	for p := firstUsablePdom; p < vds.numPdoms; p++ {
		e := vds.domainMap[p]
		if !e.used || e.vdom == d || !m.live[e.vdom] {
			continue
		}
		if vdr.perms.get(e.vdom) == VPermNone {
			continue
		}
		es = append(es, ent{e.vdom, e.lastUse})
	}
	// Most recently used first; shed the tail if d plus the active set
	// exceed one address space.
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].ts > es[j-1].ts; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
	if max := UsablePdomsPerVDS - 1; len(es) > max {
		es = es[:max]
	}
	for _, e := range es {
		out = append(out, e.v)
	}
	return out
}

func missingIn(vds *VDS, needed []VdomID) int {
	n := 0
	for _, v := range needed {
		if !vds.Mapped(v) {
			n++
		}
	}
	return n
}

func contains(list []*VDS, v *VDS) bool {
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// registerImage synthesizes the hardware permission-register image a
// thread's VDR implies under its current VDS's domain map. The auditor
// compares it against the saved image syncRegister maintains.
func (m *Manager) registerImage(vdr *VDR) uint64 {
	vds := vdr.current
	// Start from the all-denied image for this architecture's domain
	// count (access-never and every unmapped pdom read identically), then
	// overlay a field per mapped vdom — assembling the raw value directly
	// instead of one Set call per field.
	bits := hw.DenyAllBelow(vds.numPdoms)
	for p := firstUsablePdom; p < vds.numPdoms; p++ {
		e := vds.domainMap[p]
		if !e.used {
			continue
		}
		shift := 2 * uint64(p)
		bits = bits&^(0b11<<shift) | vdr.perms.get(e.vdom).Hardware().Field()<<shift
	}
	return bits
}

// syncRegister rebuilds the thread's hardware permission-register image
// from its VDR and its current VDS's domain map.
func (m *Manager) syncRegister(vdr *VDR) {
	vdr.task.SetSavedPerm(m.registerImage(vdr))
	m.Stats.RegisterSyncs++
}

// resyncVDSThreads refreshes the register image of every thread resident
// in the VDS after its domain map changed.
func (m *Manager) resyncVDSThreads(vds *VDS) {
	for t := range vds.threads {
		if vdr := m.vdrs[t]; vdr != nil {
			m.syncRegister(vdr)
		}
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
