// Package hw assembles the simulated machine: cores with ASID-tagged TLBs
// and domain permission registers, a physical frame allocator, the MMU
// access path (TLB lookup → page walk → domain check), and IPI-based TLB
// shootdowns.
//
// Every operation returns its cycle cost so callers can either accumulate
// cycles (microbenchmarks) or convert them into virtual-time delays
// (discrete-event workloads).
package hw

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
)

// Config describes a machine to build.
type Config struct {
	// Arch selects the cost table and domain model.
	Arch cycles.Arch
	// NumCores is the number of hardware threads.
	NumCores int
	// TLBCapacity is per-core TLB entries; 0 means tlb.DefaultCapacity.
	TLBCapacity int
	// NoASID disables ASID tagging (ablation): every pgd switch must
	// fully flush the local TLB.
	NoASID bool
	// SetAssociative organizes each TLB as 8-way set-associative
	// (modelling conflict misses) instead of fully associative.
	SetAssociative bool
}

// IPIFate is an injector's verdict on one inter-processor interrupt.
type IPIFate int

const (
	// IPIDelivered means the interrupt arrives and is serviced normally.
	IPIDelivered IPIFate = iota
	// IPIDropped means the interrupt is lost: the target neither flushes
	// nor acknowledges.
	IPIDropped
	// IPIDelayed means the interrupt is serviced late; the initiator
	// stalls for the extra cycles while waiting for the acknowledgement.
	IPIDelayed
)

// Injector lets a fault-injection layer (internal/chaos) perturb the
// machine deterministically. All hooks are consulted only when an injector
// is attached; the nil checks keep the fault paths zero-cost when chaos is
// off.
type Injector interface {
	// IPIFate decides the fate of the shootdown IPI from initiator to
	// target; delay is the extra initiator stall when fate is IPIDelayed.
	IPIFate(initiator, target int) (fate IPIFate, delay cycles.Cost)
	// SpuriousDomainFault reports whether an access that would succeed on
	// core should instead raise a domain-permission fault (a stale
	// micro-architectural permission check).
	SpuriousDomainFault(core int) bool
	// NoteIPIRetry records that the initiator re-sent an IPI to target
	// (attempt counts from 1).
	NoteIPIRetry(target, attempt int)
	// NoteIPIFallback records that the initiator gave up on IPIs to
	// target and fell back to a guaranteed full flush of its TLB.
	NoteIPIFallback(target int)
}

// Machine is the simulated hardware platform.
type Machine struct {
	params *cycles.Params
	cores  []*Core
	noASID bool
	// noWalkCache disables the per-core page-walk cache; only the
	// walk-cache transparency test sets it. The cache is a host-side
	// optimization charged zero simulated cycles, so it must never change
	// an access outcome.
	noWalkCache bool
	inj         Injector

	nextFrame pagetable.Frame
}

// NewMachine builds a machine from the config.
func NewMachine(cfg Config) *Machine {
	if cfg.NumCores <= 0 {
		panic("hw: NumCores must be positive")
	}
	capacity := cfg.TLBCapacity
	if capacity == 0 {
		capacity = tlb.DefaultCapacity
	}
	m := &Machine{
		params: cycles.ParamsFor(cfg.Arch),
		noASID: cfg.NoASID,
	}
	for i := 0; i < cfg.NumCores; i++ {
		var cache tlb.Cache
		if cfg.SetAssociative {
			const ways = 8
			sets := 1
			for sets*ways < capacity {
				sets <<= 1
			}
			cache = tlb.NewSetAssoc(sets, ways)
		} else {
			cache = tlb.New(capacity)
		}
		fast, _ := cache.(*tlb.TLB)
		m.cores = append(m.cores, &Core{
			id:      i,
			machine: m,
			tlb:     cache,
			tlbFast: fast,
		})
	}
	return m
}

// SetInjector attaches (or, with nil, detaches) a fault injector.
func (m *Machine) SetInjector(inj Injector) { m.inj = inj }

// Injector returns the attached fault injector, or nil.
func (m *Machine) Injector() Injector { return m.inj }

// Params returns the machine's cycle cost table.
func (m *Machine) Params() *cycles.Params { return m.params }

// NumCores returns the core count.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// AllocFrames reserves n fresh physical frames and returns the first.
func (m *Machine) AllocFrames(n int) pagetable.Frame {
	f := m.nextFrame
	m.nextFrame += pagetable.Frame(n)
	return f
}

// EmitMetrics publishes machine-wide counters: TLB stats summed across
// cores (tlb/ prefix) plus frame allocation (hw/ prefix). See
// OBSERVABILITY.md for the catalogue.
func (m *Machine) EmitMetrics(emit func(name string, v uint64)) {
	var agg tlb.Stats
	var wcHits, wcMisses uint64
	for _, c := range m.cores {
		agg.Add(c.tlb.Stats())
		wcHits += c.walkHits
		wcMisses += c.walkMisses
	}
	agg.Emit(emit)
	emit("hw/frames-allocated", uint64(m.nextFrame))
	emit("hw/walk-cache-hits", wcHits)
	emit("hw/walk-cache-misses", wcMisses)
}

// ShootdownReport describes the cost and delivery outcome of one TLB
// shootdown.
type ShootdownReport struct {
	// InitiatorCycles is charged to the core that issued the IPIs
	// (send cost per target plus waiting for acknowledgements).
	InitiatorCycles cycles.Cost
	// ReceiverCycles is charged to EACH remote core that serviced the
	// interrupt.
	ReceiverCycles cycles.Cost
	// RemoteCores is the number of cores that were sent an IPI.
	RemoteCores int
	// Acked is the set of remote targets that serviced the interrupt and
	// acknowledged. Without a fault injector every target acks.
	Acked CPUSet
	// Dropped is the set of remote targets whose IPI was lost; their TLBs
	// were NOT flushed and the caller must retry or fall back.
	Dropped CPUSet
	// Attempts is the number of IPI rounds sent (1 without faults;
	// ShootdownReliable retries raise it).
	Attempts int
	// FullFlushFallbacks counts targets that never acknowledged and were
	// recovered with a guaranteed broadcast full flush
	// (ShootdownReliable only).
	FullFlushFallbacks int
}

// Shootdown invalidates TLB state on the given remote cores (identified by
// a bitmap of core ids) and on the initiator, using flush to perform the
// invalidation on each core's TLB. It returns the cost split and, per
// remote target, whether its IPI was actually delivered and acknowledged —
// with a fault injector attached IPIs may be dropped or delayed, and
// callers that need guaranteed invalidation must inspect Acked/Dropped (or
// use ShootdownReliable). The initiator core's own TLB is flushed locally
// at localCost.
func (m *Machine) Shootdown(initiator int, targets CPUSet, flush func(tlb.Cache), localCost cycles.Cost) ShootdownReport {
	r := ShootdownReport{Attempts: 1}
	var delayed cycles.Cost
	for id := range m.cores {
		if id == initiator || !targets.Has(id) {
			continue
		}
		r.RemoteCores++
		if m.inj != nil {
			fate, delay := m.inj.IPIFate(initiator, id)
			switch fate {
			case IPIDropped:
				r.Dropped = r.Dropped.Add(id)
				continue
			case IPIDelayed:
				delayed += delay
			}
		}
		flush(m.cores[id].tlb)
		r.Acked = r.Acked.Add(id)
	}
	flush(m.cores[initiator].tlb)
	r.InitiatorCycles = localCost + cycles.Cost(r.RemoteCores)*m.params.IPI + delayed
	r.ReceiverCycles = m.params.IPIReceive
	return r
}

// shootdownMaxRetries bounds the IPI retransmissions of ShootdownReliable
// before it falls back to a guaranteed full flush of the unresponsive
// target.
const shootdownMaxRetries = 3

// ShootdownReliable is Shootdown with acknowledgement tracking and
// recovery: targets that fail to ack are retried with a linear backoff (one
// extra IPI send cost per attempt), and a target that never acks within
// shootdownMaxRetries is recovered with a broadcast full flush of its TLB
// (the INVLPGB-style global invalidation real hardware guarantees), so the
// invalidation ALWAYS completes. Without a fault injector it is
// cycle-identical to Shootdown.
func (m *Machine) ShootdownReliable(initiator int, targets CPUSet, flush func(tlb.Cache), localCost cycles.Cost) ShootdownReport {
	r := m.Shootdown(initiator, targets, flush, localCost)
	for attempt := 1; r.Dropped != 0 && attempt <= shootdownMaxRetries; attempt++ {
		retrying := r.Dropped
		for id := range m.cores {
			if !retrying.Has(id) {
				continue
			}
			if m.inj != nil {
				m.inj.NoteIPIRetry(id, attempt)
			}
			// Resend cost plus linear backoff while waiting again.
			r.InitiatorCycles += m.params.IPI * cycles.Cost(1+attempt)
			fate, delay := IPIDelivered, cycles.Cost(0)
			if m.inj != nil {
				fate, delay = m.inj.IPIFate(initiator, id)
			}
			if fate == IPIDropped {
				continue
			}
			r.InitiatorCycles += delay
			flush(m.cores[id].tlb)
			r.Acked = r.Acked.Add(id)
			r.Dropped = r.Dropped.Remove(id)
		}
		r.Attempts++
	}
	// Full-flush fallback: the target never acked; invalidate its whole
	// TLB through the guaranteed broadcast path.
	for id := range m.cores {
		if !r.Dropped.Has(id) {
			continue
		}
		if m.inj != nil {
			m.inj.NoteIPIFallback(id)
		}
		m.cores[id].tlb.FlushAll()
		r.InitiatorCycles += m.params.TLBFlushLocalAll + m.params.IPI
		r.FullFlushFallbacks++
		r.Acked = r.Acked.Add(id)
		r.Dropped = r.Dropped.Remove(id)
	}
	return r
}

// CPUSet is a bitmap of core ids.
type CPUSet uint64

// Has reports whether core id is in the set.
func (s CPUSet) Has(id int) bool { return s&(1<<uint(id)) != 0 }

// Add returns the set with core id included.
func (s CPUSet) Add(id int) CPUSet { return s | 1<<uint(id) }

// Remove returns the set without core id.
func (s CPUSet) Remove(id int) CPUSet { return s &^ (1 << uint(id)) }

// Union returns the cores present in either set.
func (s CPUSet) Union(o CPUSet) CPUSet { return s | o }

// Lowest returns the smallest core id in the set (-1 when empty).
func (s CPUSet) Lowest() int {
	for id := 0; s != 0; id++ {
		if s.Has(id) {
			return id
		}
	}
	return -1
}

// Count returns the number of cores in the set.
func (s CPUSet) Count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// AllCores returns a set containing cores [0, n).
func AllCores(n int) CPUSet {
	if n >= 64 {
		panic("hw: CPUSet supports at most 64 cores")
	}
	return CPUSet(1<<uint(n) - 1)
}

// FaultKind classifies the outcome of a memory access.
type FaultKind int

const (
	// AccessOK means the access succeeded.
	AccessOK FaultKind = iota
	// FaultNotPresent means no translation exists (demand paging).
	FaultNotPresent
	// FaultPMDDisabled means the walk hit a VDom-disabled PMD entry.
	FaultPMDDisabled
	// FaultDomainPerm means the permission register denied the domain
	// (protection-key fault on Intel, domain fault on ARM).
	FaultDomainPerm
	// FaultWriteProtect means a write hit a read-only page.
	FaultWriteProtect
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case AccessOK:
		return "ok"
	case FaultNotPresent:
		return "not-present"
	case FaultPMDDisabled:
		return "pmd-disabled"
	case FaultDomainPerm:
		return "domain-perm"
	case FaultWriteProtect:
		return "write-protect"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// AccessResult is the outcome of Core.Access.
type AccessResult struct {
	Kind FaultKind
	// Pdom is the domain tag of the page, valid unless the translation
	// was absent.
	Pdom pagetable.Pdom
	// TLBHit reports whether the translation came from the TLB.
	TLBHit bool
	// Cost is the cycle cost of the access attempt itself (not of any
	// fault handling that may follow).
	Cost cycles.Cost
}

// Core is one hardware thread.
type Core struct {
	id      int
	machine *Machine
	tlb     tlb.Cache
	// tlbFast is c.tlb when it is the plain fully-associative TLB (nil
	// otherwise): the access hot path calls it directly, skipping the
	// interface dispatch that would otherwise sit on every load and store.
	// Every assignment to tlb must refresh it.
	tlbFast *tlb.TLB

	perm  PermRegister
	table *pagetable.Table
	asid  tlb.ASID

	// Page-walk cache: the last Walk outcome, reusable while the source
	// table's mutation generation is unchanged. Walk is pure, so replaying
	// its memoized result is observationally identical to re-walking; the
	// simulated cost still charges wr.LevelsVisited as if the walker ran.
	// Hits avoid the 4-level radix descent per faulting access in walk-
	// heavy workloads (demand-paging storms, eviction sweeps).
	walkTable *pagetable.Table
	walkGen   uint64
	walkVPN   uint64
	walkValid bool
	walkRes   pagetable.WalkResult

	walkHits   uint64
	walkMisses uint64
}

// ID returns the core id.
func (c *Core) ID() int { return c.id }

// TLB exposes the core's TLB (for kernel flush operations and tests).
func (c *Core) TLB() tlb.Cache { return c.tlb }

// InterposeTLB replaces the core's TLB with wrap(current). Fault-injection
// layers use it to interpose on invalidation operations; the wrapper must
// preserve Cache semantics apart from the faults it models.
func (c *Core) InterposeTLB(wrap func(tlb.Cache) tlb.Cache) {
	c.tlb = wrap(c.tlb)
	c.tlbFast, _ = c.tlb.(*tlb.TLB)
}

// Perm exposes the core's permission register.
func (c *Core) Perm() *PermRegister { return &c.perm }

// ASID returns the currently loaded address-space identifier.
func (c *Core) ASID() tlb.ASID { return c.asid }

// Table returns the currently loaded page table.
func (c *Core) Table() *pagetable.Table { return c.table }

// SwitchPgd loads a new page table and ASID, returning the cycle cost. With
// ASID support the TLB is preserved; without it (ablation) the switch costs
// a full local flush as well.
func (c *Core) SwitchPgd(t *pagetable.Table, asid tlb.ASID) cycles.Cost {
	c.table = t
	c.asid = asid
	cost := c.machine.params.PgdSwitch
	if c.machine.noASID {
		c.tlb.FlushAll()
		cost += c.machine.params.TLBFlushLocalAll
	}
	return cost
}

// Access performs one load (write=false) or store (write=true) at addr
// against the currently loaded address space: TLB lookup, page walk on
// miss, then the domain permission check. It mirrors the hardware pipeline,
// so a TLB hit still pays the domain check, and a missing translation
// faults before any domain check can happen.
func (c *Core) Access(addr pagetable.VAddr, write bool) AccessResult {
	if c.table == nil {
		panic("hw: Access with no page table loaded")
	}
	p := c.machine.params
	vpn := addr.VPN()
	var e tlb.Entry
	var ok bool
	if f := c.tlbFast; f != nil {
		e, ok = f.Lookup(c.asid, vpn)
	} else {
		e, ok = c.tlb.Lookup(c.asid, vpn)
	}
	if ok {
		res := AccessResult{Pdom: e.Pdom, TLBHit: true, Cost: p.TLBHit}
		res.Kind = c.check(e.Pdom, e.Writable, write)
		if res.Kind == AccessOK && c.machine.inj != nil && c.machine.inj.SpuriousDomainFault(c.id) {
			res.Kind = FaultDomainPerm
		}
		return res
	}
	wr := c.walk(addr, vpn)
	cost := p.TLBHit + p.PageWalk*cycles.Cost(wr.LevelsVisited)/cycles.Cost(pagetable.Levels)
	switch {
	case wr.PMDDisabled:
		return AccessResult{Kind: FaultPMDDisabled, Cost: cost}
	case !wr.Present:
		return AccessResult{Kind: FaultNotPresent, Cost: cost}
	}
	ent := tlb.Entry{
		ASID:     c.asid,
		VPN:      vpn,
		Frame:    wr.PTE.Frame,
		Pdom:     wr.PTE.Pdom,
		Writable: wr.PTE.Writable,
	}
	if f := c.tlbFast; f != nil {
		f.Insert(ent)
	} else {
		c.tlb.Insert(ent)
	}
	res := AccessResult{Pdom: wr.PTE.Pdom, Cost: cost}
	res.Kind = c.check(wr.PTE.Pdom, wr.PTE.Writable, write)
	if res.Kind == AccessOK && c.machine.inj != nil && c.machine.inj.SpuriousDomainFault(c.id) {
		res.Kind = FaultDomainPerm
	}
	return res
}

// walk resolves addr through the page-walk cache: when the loaded table's
// generation matches the memoized walk of the same VPN, the cached result
// is replayed instead of descending the radix tree. Walk outcomes depend
// only on the VPN and the table's contents, so a generation match makes
// the replay exact — same WalkResult, same LevelsVisited, same charged
// cycles. The cache self-invalidates via the generation check; no flush
// hook is needed.
func (c *Core) walk(addr pagetable.VAddr, vpn uint64) pagetable.WalkResult {
	if c.machine.noWalkCache {
		return c.table.Walk(addr)
	}
	gen := c.table.Gen()
	if c.walkValid && c.walkTable == c.table && c.walkGen == gen && c.walkVPN == vpn {
		c.walkHits++
		return c.walkRes
	}
	wr := c.table.Walk(addr)
	c.walkTable, c.walkGen, c.walkVPN, c.walkRes, c.walkValid = c.table, gen, vpn, wr, true
	c.walkMisses++
	return wr
}

func (c *Core) check(pdom pagetable.Pdom, writable, write bool) FaultKind {
	if !c.perm.Allows(uint8(pdom), write) {
		return FaultDomainPerm
	}
	if write && !writable {
		return FaultWriteProtect
	}
	return AccessOK
}
