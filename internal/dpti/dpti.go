// Package dpti implements the Domain Page-Table Isolation baseline
// (Canella et al., see PAPERS.md) on the simulated substrate: every
// domain gets its own page table, and activation is a pgd switch into
// that table instead of a permission-register write.
//
// DPTI trades the 16-key register ceiling for page-table pressure: there
// is no bound on the number of domains (each is just another pgd), but
// every activation is a kernel round trip plus an address-space switch,
// and every materialized domain consumes an ASID and TLB reach. That is
// exactly the opposite cost shape from MPK-style keys — cheap switches,
// hard capacity ceiling — which makes it the interesting fourth point in
// the paper's comparison space. The per-domain tables ride the same
// mm.AddressSpace synchronization set as VDom's VDSes (RegisterTable +
// lazy demand fill + eager revocation), so munmap shootdowns, frame
// reclaim, and the snapshot machinery cover them with no special cases;
// AppendState and ReadState checkpoint only the domain → table → ASID
// linkage, as the "dpti" section of vdom-snap/v2 (RECOVERY.md).
//
// A capped number of tables stays materialized at once (MaxTables,
// default 64): beyond it the least-recently-entered idle domain is
// evicted — its table dropped from the sync set, its ASID retired, and
// its translations shot down — and re-materialized on next entry. This
// reproduces the kernel-memory ceiling real per-domain-pgd designs hit,
// and stresses the substrate's ASID-generation machinery in a regime the
// key-register kernels never reach.
package dpti

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

// DomainID is a DPTI domain identifier (unlimited; 0 is the base
// address space and never a domain).
type DomainID uint64

// accessNeverPdom is the reserved domain tag for pages outside the
// active domain's table (modeled as an access-never domain, like
// libmpk's disabled pages).
const accessNeverPdom = pagetable.Pdom(1)

// DefaultMaxTables caps how many domain page tables stay materialized.
const DefaultMaxTables = 64

// Errors.
var (
	// ErrUnknownDomain reports an unallocated or freed domain id.
	ErrUnknownDomain = tap.NewOutcome(tap.CodeUnknownDomain, "dpti: unknown domain")
	// ErrNoASID is returned when a domain cannot be materialized because
	// every ASID in the architectural space is live.
	ErrNoASID = tap.NewOutcome(tap.CodeNoASID, "dpti: ASID space exhausted")
)

// Stats breaks DPTI's overhead into its characteristic buckets.
type Stats struct {
	Enters           uint64
	Exits            uint64
	Materializations uint64
	Evictions        uint64
	SwitchCycles     uint64 // enter/exit syscall + pgd bookkeeping
	ShootdownCycles  uint64 // initiator + receiver cycles of evictions
	MgmtCycles       uint64 // alloc/free/protect bookkeeping
}

// Emit publishes the stats as named metrics counters under the dpti/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("dpti/enters", s.Enters)
	emit("dpti/exits", s.Exits)
	emit("dpti/materializations", s.Materializations)
	emit("dpti/evictions", s.Evictions)
	emit("dpti/switch-cycles", s.SwitchCycles)
	emit("dpti/shootdown-cycles", s.ShootdownCycles)
	emit("dpti/mgmt-cycles", s.MgmtCycles)
}

type area struct {
	start  pagetable.VAddr
	length uint64
}

type domain struct {
	id      DomainID
	areas   []area
	table   *pagetable.Table // nil until materialized
	asid    tlb.ASID
	live    bool // materialized: table registered, ASID held
	lastUse uint64
}

// Manager is one process's DPTI instance.
type Manager struct {
	proc   *kernel.Process
	kern   *kernel.Kernel
	params *cycles.Params

	// domains is indexed by DomainID (dense: ids are allocated
	// sequentially from 1); freed domains leave a nil slot.
	domains []*domain
	nextID  DomainID
	// current maps each task to the domain it has entered (absent: base).
	current map[*kernel.Task]DomainID

	maxTables int
	numLive   int
	clock     uint64

	metrics *metrics.Registry
	tap     tap.Tap

	// Stats is exported for the experiment harness.
	Stats Stats
}

var _ mm.DomainResolver = (*Manager)(nil)
var _ kernel.FaultHandler = (*Manager)(nil)
var _ kernel.ASIDLister = (*Manager)(nil)

// Attach initializes DPTI for the process: it becomes the address
// space's domain resolver and the process's fault handler (so kernel
// revocation paths include its per-domain ASIDs in shootdowns).
func Attach(proc *kernel.Process) *Manager {
	m := &Manager{
		proc:      proc,
		kern:      proc.Kernel(),
		params:    proc.Kernel().Params(),
		nextID:    1,
		current:   make(map[*kernel.Task]DomainID),
		maxTables: DefaultMaxTables,
	}
	proc.AS().SetResolver(m)
	proc.SetFaultHandler(m)
	return m
}

// SetMaxTables changes the materialized-table cap. Call before entering
// domains.
func (m *Manager) SetMaxTables(n int) {
	if n < 1 {
		panic("dpti: MaxTables must be positive")
	}
	m.maxTables = n
}

// SetMetrics installs (or, with nil, removes) the registry that receives
// per-operation cycle attribution under the "dpti" layer.
func (m *Manager) SetMetrics(r *metrics.Registry) { m.metrics = r }

// SetTap attaches a trace recorder; completed API calls arrive as
// unified tap.Events (OpDptiAlloc/Free/Protect/Enter/Exit). Pass nil
// (the default) to detach.
func (m *Manager) SetTap(t tap.Tap) { m.tap = t }

// tapOp forwards a completed call to the attached tap, if any.
func (m *Manager) tapOp(e tap.Event) {
	if m.tap != nil {
		m.tap(e)
	}
}

// domainOf returns the metadata of d, or nil for an unknown or freed id.
func (m *Manager) domainOf(d DomainID) *domain {
	if d >= 1 && int(d) <= len(m.domains) {
		return m.domains[d-1]
	}
	return nil
}

// PdomFor implements mm.DomainResolver: a domain's pages are accessible
// only inside that domain's own table; everywhere else — the shadow
// table and every other domain's table — they are installed access-never.
func (m *Manager) PdomFor(t *pagetable.Table, tag mm.Tag) (pagetable.Pdom, bool) {
	if tag == 0 {
		return 0, true
	}
	if d := m.domainOf(DomainID(tag)); d != nil && d.live && d.table == t {
		return 0, true
	}
	return 0, false
}

// AccessNever implements mm.DomainResolver.
func (m *Manager) AccessNever() pagetable.Pdom { return accessNeverPdom }

// HandleDomainFault implements kernel.FaultHandler. DPTI repairs nothing
// at fault time: an access-never fault is a genuine isolation violation
// (the page belongs to a domain the task has not entered), so the fault
// is left for the kernel's SIGSEGV path.
func (m *Manager) HandleDomainFault(t *kernel.Task, addr pagetable.VAddr, write bool, kind hw.FaultKind) (cycles.Cost, bool, error) {
	return 0, false, nil
}

// LiveASIDs implements kernel.ASIDLister: the ASIDs of every
// materialized domain table, so munmap and frame-reclaim shootdowns
// reach dormant domain address spaces.
func (m *Manager) LiveASIDs() []tlb.ASID {
	var out []tlb.ASID
	for _, d := range m.domains {
		if d != nil && d.live {
			out = append(out, d.asid)
		}
	}
	return out
}

// OwnedASIDs calls fn with each materialized domain's (ASID, table)
// pair — the ownership facts a cross-layer TLB auditor checks cached
// entries against.
func (m *Manager) OwnedASIDs(fn func(tlb.ASID, *pagetable.Table)) {
	for _, d := range m.domains {
		if d != nil && d.live {
			fn(d.asid, d.table)
		}
	}
}

// Current returns the domain the task has entered, or 0 for the base
// address space.
func (m *Manager) Current(task *kernel.Task) DomainID { return m.current[task] }

// NumLiveTables returns how many domain tables are materialized.
func (m *Manager) NumLiveTables() int { return m.numLive }

// apiCost is the entry cost of one DPTI call: every operation is a
// kernel round trip (there is no user-writable register to shortcut
// through).
func (m *Manager) apiCost() cycles.Cost {
	return m.params.CallReturn + m.params.SyscallReturn
}

// AllocDomain allocates a domain id. The page table is not materialized
// until the first Enter, mirroring the lazy pgd allocation of the design.
func (m *Manager) AllocDomain() (d DomainID, cost cycles.Cost) {
	defer func() {
		m.metrics.Attribute("dpti", "alloc", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpDptiAlloc, Dom: uint64(d), Cost: cost})
	}()
	d = m.nextID
	m.nextID++
	m.domains = append(m.domains, &domain{id: d})
	cost = m.apiCost()
	m.Stats.MgmtCycles += uint64(cost)
	return d, cost
}

// FreeDomain releases a domain called by task. Its pages stay tagged and
// therefore resolve access-never everywhere from now on; its table and
// ASID are torn down with a process-wide shootdown.
func (m *Manager) FreeDomain(task *kernel.Task, d DomainID) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("dpti", "free", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpDptiFree, TID: kernel.TIDOf(task), Dom: uint64(d), Cost: cost, Err: err})
	}()
	dom := m.domainOf(d)
	if dom == nil {
		return m.apiCost(), fmt.Errorf("%w: %d", ErrUnknownDomain, d)
	}
	cost = m.apiCost()
	m.Stats.MgmtCycles += uint64(cost)
	if dom.live {
		cost += m.dematerialize(task, dom)
	}
	// Any task still inside the freed domain is kicked back to the base
	// address space — its table is gone.
	for t, cur := range m.current {
		if cur == d {
			delete(m.current, t)
			t.SetAddressSpace(m.proc.AS().Shadow(), t.BaseASID(), false)
		}
	}
	m.domains[d-1] = nil
	return cost, nil
}

// Protect assigns [addr, addr+length) to domain d (dpti_mprotect
// semantics). The pages become accessible only inside d's table; present
// pages are retagged eagerly in every materialized table.
func (m *Manager) Protect(task *kernel.Task, addr pagetable.VAddr, length uint64, d DomainID) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("dpti", "protect", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpDptiProtect, TID: kernel.TIDOf(task), Dom: uint64(d), Addr: addr, Len: length, Cost: cost, Err: err})
	}()
	dom := m.domainOf(d)
	if dom == nil {
		return m.apiCost(), fmt.Errorf("%w: %d", ErrUnknownDomain, d)
	}
	cost = m.apiCost()
	start := addr.PageAlign()
	end := (addr + pagetable.VAddr(length) + pagetable.PageSize - 1).PageAlign()
	if _, err := m.proc.AS().SetTag(addr, length, mm.Tag(d)); err != nil {
		return cost, err
	}
	dom.areas = append(dom.areas, area{start: start, length: uint64(end - start)})
	pages := uint64(end-start) / pagetable.PageSize
	c := m.params.MprotectPerPage * cycles.Cost(pages)
	cost += c
	m.Stats.MgmtCycles += uint64(cost)
	return cost, nil
}

// Enter switches the task into domain d: a syscall that points the task
// at d's page table under d's ASID (the pgd switch itself is charged by
// the scheduler's dispatch path, exactly as for VDS switches). The first
// entry materializes the table; beyond the MaxTables cap the
// least-recently-entered idle domain is evicted first.
func (m *Manager) Enter(task *kernel.Task, d DomainID) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("dpti", "enter", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpDptiEnter, TID: kernel.TIDOf(task), Dom: uint64(d), Cost: cost, Err: err})
	}()
	dom := m.domainOf(d)
	if dom == nil {
		return m.apiCost(), fmt.Errorf("%w: %d", ErrUnknownDomain, d)
	}
	cost = m.apiCost()
	m.Stats.Enters++
	if !dom.live {
		c, err := m.materialize(task, dom)
		cost += c
		if err != nil {
			m.Stats.SwitchCycles += uint64(cost)
			return cost, err
		}
	}
	m.clock++
	dom.lastUse = m.clock
	m.current[task] = d
	task.SetAddressSpace(dom.table, dom.asid, false)
	cost += m.params.PgdSwitch
	m.Stats.SwitchCycles += uint64(cost)
	return cost, nil
}

// Exit switches the task back to the base address space (the process
// shadow table under the task's base ASID).
func (m *Manager) Exit(task *kernel.Task) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("dpti", "exit", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpDptiExit, TID: kernel.TIDOf(task), Cost: cost, Err: err})
	}()
	cost = m.apiCost()
	m.Stats.Exits++
	delete(m.current, task)
	task.SetAddressSpace(m.proc.AS().Shadow(), task.BaseASID(), false)
	cost += m.params.PgdSwitch
	m.Stats.SwitchCycles += uint64(cost)
	return cost, nil
}

// materialize builds the domain's page table: allocate a table and an
// ASID, register the table in the synchronization set (demand paging
// fills it lazily, with the resolver granting only d's pages), evicting
// the LRU idle domain first when the cap is reached.
func (m *Manager) materialize(task *kernel.Task, dom *domain) (cycles.Cost, error) {
	var cost cycles.Cost
	for m.numLive >= m.maxTables {
		victim := m.chooseVictim()
		if victim == nil {
			break // every table is in active use; run over the cap
		}
		m.Stats.Evictions++
		cost += m.params.EvictBase
		cost += m.dematerialize(task, victim)
	}
	asid, ok := m.kern.TryAllocASID()
	if !ok {
		return cost, fmt.Errorf("%w: domain %d", ErrNoASID, dom.id)
	}
	dom.table = pagetable.New()
	dom.asid = asid
	dom.live = true
	m.numLive++
	m.proc.AS().RegisterTable(dom.table)
	m.Stats.Materializations++
	cost += m.params.VDSAllocate
	return cost, nil
}

// chooseVictim returns the least-recently-entered materialized domain no
// task is currently inside, or nil.
func (m *Manager) chooseVictim() *domain {
	inUse := make(map[DomainID]bool, len(m.current))
	for _, d := range m.current {
		inUse[d] = true
	}
	var best *domain
	for _, d := range m.domains {
		if d == nil || !d.live || inUse[d.id] {
			continue
		}
		if best == nil || d.lastUse < best.lastUse {
			best = d
		}
	}
	return best
}

// dematerialize tears a domain's table down: unregister it, retire its
// ASID, and shoot its translations out of every core running the
// process. task may be nil (direct mode); the shootdown then only
// charges management cycles.
func (m *Manager) dematerialize(task *kernel.Task, dom *domain) cycles.Cost {
	m.proc.AS().UnregisterTable(dom.table)
	m.kern.FreeASID(dom.asid)
	asid := dom.asid
	dom.table = nil
	dom.asid = 0
	dom.live = false
	m.numLive--
	var cost cycles.Cost
	if task != nil {
		mach := m.kern.Machine()
		targets := m.proc.RunningCores()
		rep := mach.Shootdown(task.CoreID(), targets, func(tb tlb.Cache) {
			tb.FlushASID(asid)
		}, m.params.TLBFlushLocalASID)
		for id := 0; id < mach.NumCores(); id++ {
			if id != task.CoreID() && targets.Has(id) {
				m.kern.AddPendingInterrupt(id, rep.ReceiverCycles)
			}
		}
		total := rep.InitiatorCycles + rep.ReceiverCycles*cycles.Cost(rep.RemoteCores)
		m.Stats.ShootdownCycles += uint64(total)
		cost += rep.InitiatorCycles
	}
	return cost
}
