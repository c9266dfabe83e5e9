// Package libmpk reimplements the libmpk baseline (Park et al., USENIX ATC
// 2019) on the simulated substrate: a per-process virtual-key cache over
// the 16 hardware protection keys, with disabled-page-table-entry eviction.
//
// libmpk keeps the whole process in ONE address space. When a virtual key
// must be activated and no hardware key is free, it evicts the
// least-recently-used key whose vkey no thread is using — disabling the
// evicted pages with mprotect(PROT_NONE) semantics and flushing the TLBs
// of every core running the process. If every hardware key is in use by
// some thread, the caller busy-waits until one is released. These two
// behaviours — process-wide shootdowns and busy waiting — are the root
// causes of libmpk's slowdown that §3.2 of the VDom paper identifies, and
// they emerge here from the same mechanism.
//
// AppendState and ReadState checkpoint the key cache as the "libmpk"
// section of vdom-snap/v2, straight from and into the live structures
// (RECOVERY.md).
package libmpk

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/sim"
	"vdom/internal/tap"
	"vdom/internal/tlb"
)

// Vkey is a virtual protection key (unlimited).
type Vkey uint64

// Reserved hardware keys: pkey 0 is the default domain; pkey 1 stands in
// for PROT_NONE-disabled pages (the substrate models page disabling as an
// access-never domain tag). Keys 2..15 are allocatable.
const (
	protNonePdom = pagetable.Pdom(1)
	firstPkey    = 2
	numPkeys     = 16
)

// UsableKeys is the number of hardware keys the cache can hand out.
const UsableKeys = numPkeys - firstPkey

// Errors.
var (
	// ErrNoFreeKey is returned in direct (non-simulated) mode when every
	// hardware key is in use and the caller would have to busy-wait.
	ErrNoFreeKey = tap.NewOutcome(tap.CodeNoFreeKey, "libmpk: all hardware keys in use")
	// ErrUnknownKey reports an unallocated vkey.
	ErrUnknownKey = tap.NewOutcome(tap.CodeUnknownKey, "libmpk: unknown vkey")
)

// Stats breaks libmpk's overhead into the Figure 1 buckets.
type Stats struct {
	Evictions       uint64
	Shootdowns      uint64
	BusyWaits       uint64
	BusyWaitCycles  uint64 // virtual time spent waiting for a free key
	ShootdownCycles uint64 // initiator + receiver IPI/flush cycles
	MgmtCycles      uint64 // syscalls, per-page mprotect, cache metadata
}

// Emit publishes the stats as named metrics counters under the libmpk/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("libmpk/evictions", s.Evictions)
	emit("libmpk/shootdowns", s.Shootdowns)
	emit("libmpk/busy-waits", s.BusyWaits)
	emit("libmpk/busy-wait-cycles", s.BusyWaitCycles)
	emit("libmpk/shootdown-cycles", s.ShootdownCycles)
	emit("libmpk/mgmt-cycles", s.MgmtCycles)
}

type area struct {
	start  pagetable.VAddr
	length uint64
}

// PageMode selects how keys' memory is backed, matching the paper's
// Figure 7 configurations.
type PageMode int

const (
	// Page4K backs areas with 4 KiB pages: mprotect costs are per page.
	Page4K PageMode = iota
	// Huge2M backs areas with 2 MiB huge pages: mprotect touches one
	// PMD per 2 MiB, so evictions are far cheaper — until shootdowns
	// and serialization dominate.
	Huge2M
)

type keyMeta struct {
	areas   []area
	pkey    pagetable.Pdom
	mapped  bool
	perms   map[*kernel.Task]hw.Perm
	inUse   int // threads holding a non-AD permission
	lastUse uint64
}

type pkeySlot struct {
	vkey Vkey
	used bool
}

// Manager is one process's libmpk instance.
type Manager struct {
	proc   *kernel.Process
	params *cycles.Params

	nextVkey Vkey
	// keys is indexed by Vkey (dense: vkeys are allocated sequentially
	// from 1); freed keys leave a nil slot. The slice layout keeps
	// syncRegister — which scans every key on each pkey_set — off the
	// map iterator and in deterministic ascending-vkey order.
	keys  []*keyMeta
	pkeys [numPkeys]pkeySlot
	clock uint64

	// released wakes busy-waiting threads when a key's inUse count
	// drops to zero. Nil outside the discrete-event simulator.
	released *sim.Signal
	// lock serializes the key cache (libmpk guards its metadata and
	// eviction path with one global mutex). Nil outside the simulator.
	lock *sim.Resource

	mode PageMode

	// metrics, when non-nil, receives cycle attribution for every public
	// operation under the "libmpk" layer.
	metrics *metrics.Registry
	tap     tap.Tap

	// Stats is exported for the experiment harness.
	Stats Stats
}

// SetTap attaches a trace recorder; completed API calls arrive as
// unified tap.Events (OpPkeyAlloc/Free/Mprotect/Set). Pass nil (the
// default) to detach.
func (m *Manager) SetTap(t tap.Tap) { m.tap = t }

// tapOp forwards a completed call to the attached tap, if any.
func (m *Manager) tapOp(e tap.Event) {
	if m.tap != nil {
		m.tap(e)
	}
}

// SetMetrics installs (or, with nil, removes) the registry that receives
// per-operation cycle attribution. libmpk attributes the full returned
// cost of each public call to ("libmpk", op); none of its costs route
// through the instrumented kernel paths, so there is no double counting.
func (m *Manager) SetMetrics(r *metrics.Registry) { m.metrics = r }

var _ mm.DomainResolver = (*Manager)(nil)

// Attach initializes libmpk for the process. If env is non-nil, PkeySet
// calls made with a sim process busy-wait on key contention instead of
// failing.
func Attach(proc *kernel.Process, env *sim.Env) *Manager {
	m := &Manager{
		proc:     proc,
		params:   proc.Kernel().Params(),
		nextVkey: 1,
	}
	if env != nil {
		m.released = env.NewSignal()
		m.lock = env.NewResource(1)
	}
	proc.AS().SetResolver(m)
	return m
}

// SetPageMode selects 4 KiB or 2 MiB huge-page backing for future cost
// accounting. Call before protecting memory.
func (m *Manager) SetPageMode(mode PageMode) { m.mode = mode }

// key returns the metadata of v, or nil for an unknown or freed vkey.
func (m *Manager) key(v Vkey) *keyMeta {
	if int(v) < len(m.keys) {
		return m.keys[v]
	}
	return nil
}

// setKey stores metadata at index v, growing the dense table as needed.
func (m *Manager) setKey(v Vkey, k *keyMeta) {
	for int(v) >= len(m.keys) {
		m.keys = append(m.keys, nil)
	}
	m.keys[v] = k
}

// costUnits returns the number of mprotect-charged units for a byte
// length under the current page mode.
func (m *Manager) costUnits(length uint64) uint64 {
	if m.mode == Huge2M {
		return (length + pagetable.PMDSize - 1) / pagetable.PMDSize
	}
	return length / pagetable.PageSize
}

// PdomFor implements mm.DomainResolver: pages of a mapped vkey carry its
// hardware key; pages of an evicted vkey are disabled.
func (m *Manager) PdomFor(t *pagetable.Table, tag mm.Tag) (pagetable.Pdom, bool) {
	if tag == 0 {
		return 0, true
	}
	if k := m.key(Vkey(tag)); k != nil && k.mapped {
		return k.pkey, true
	}
	return 0, false
}

// AccessNever implements mm.DomainResolver.
func (m *Manager) AccessNever() pagetable.Pdom { return protNonePdom }

// metaCost is libmpk's user-space cache bookkeeping per API call,
// calibrated so a mapped-key pkey_set lands on Table 4's ~102 cycles.
func (m *Manager) metaCost() cycles.Cost { return 70 }

// apiCost is the entry cost of one libmpk call.
func (m *Manager) apiCost() cycles.Cost {
	c := m.params.CallReturn + m.metaCost()
	if !m.params.UserWritablePermReg {
		c += m.params.SyscallReturn
	}
	return c
}

// PkeyAlloc allocates a virtual key.
func (m *Manager) PkeyAlloc() (v Vkey, cost cycles.Cost) {
	defer func() {
		m.metrics.Attribute("libmpk", "pkey-alloc", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpPkeyAlloc, Dom: uint64(v), Cost: cost})
	}()
	v = m.nextVkey
	m.nextVkey++
	m.setKey(v, &keyMeta{perms: make(map[*kernel.Task]hw.Perm)})
	cost = m.apiCost() + m.params.SyscallReturn
	m.Stats.MgmtCycles += uint64(cost)
	return v, cost
}

// PkeyFree releases a virtual key called by task (its pages stay
// disabled).
func (m *Manager) PkeyFree(task *kernel.Task, v Vkey) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("libmpk", "pkey-free", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpPkeyFree, TID: kernel.TIDOf(task), Dom: uint64(v), Cost: cost, Err: err})
	}()
	k := m.key(v)
	if k == nil {
		return m.apiCost(), ErrUnknownKey
	}
	cost = m.apiCost()
	if k.mapped {
		m.pkeys[k.pkey] = pkeySlot{}
		k.mapped = false
		cost += m.disablePages(task, k)
	}
	m.keys[v] = nil
	m.Stats.MgmtCycles += uint64(m.apiCost())
	return cost, nil
}

// PkeyMprotect assigns [addr, addr+length) to vkey v. The pages stay
// disabled until the vkey is activated by a pkey_set; activation binds the
// vkey to a hardware key, evicting or busy-waiting as needed.
func (m *Manager) PkeyMprotect(p *sim.Proc, task *kernel.Task, addr pagetable.VAddr, length uint64, v Vkey) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("libmpk", "pkey-mprotect", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpPkeyMprotect, TID: kernel.TIDOf(task), Dom: uint64(v), Addr: addr, Len: length, Cost: cost, Err: err})
	}()
	k := m.key(v)
	if k == nil {
		return m.apiCost(), ErrUnknownKey
	}
	cost = m.apiCost() + m.params.SyscallReturn
	start := addr.PageAlign()
	end := (addr + pagetable.VAddr(length) + pagetable.PageSize - 1).PageAlign()
	if _, err := m.proc.AS().SetTag(addr, length, mm.Tag(v)); err != nil {
		return cost, err
	}
	k.areas = append(k.areas, area{start: start, length: uint64(end - start)})
	c := m.params.MprotectPerPage * cycles.Cost(m.costUnits(uint64(end-start)))
	cost += c
	m.Stats.MgmtCycles += uint64(m.apiCost() + m.params.SyscallReturn + c)
	return cost, nil
}

// PkeySet changes the calling thread's permission on v (pkey_set). If the
// vkey is not resident, the cache maps it, evicting an unused key or
// busy-waiting for one.
func (m *Manager) PkeySet(p *sim.Proc, task *kernel.Task, v Vkey, perm hw.Perm) (cost cycles.Cost, err error) {
	defer func() {
		m.metrics.Attribute("libmpk", "pkey-set", uint64(cost))
		m.tapOp(tap.Event{Op: tap.OpPkeySet, TID: kernel.TIDOf(task), Dom: uint64(v), Perm: uint8(perm), Cost: cost, Err: err})
	}()
	k := m.key(v)
	if k == nil {
		return m.apiCost(), ErrUnknownKey
	}
	cost = m.apiCost()
	m.Stats.MgmtCycles += uint64(cost)

	old, hadOld := k.perms[task]
	wasAccessible := hadOld && old != hw.PermNone
	nowAccessible := perm != hw.PermNone

	if nowAccessible && !k.mapped {
		if p != nil && m.lock != nil {
			m.lock.Acquire(p, 1)
			c, err := m.mapKey(p, task, v, k)
			m.lock.Release(1)
			cost += c
			if err != nil {
				return cost, err
			}
		} else {
			c, err := m.mapKey(p, task, v, k)
			cost += c
			if err != nil {
				return cost, err
			}
		}
	}
	k.perms[task] = perm
	switch {
	case !wasAccessible && nowAccessible:
		k.inUse++
	case wasAccessible && !nowAccessible:
		k.inUse--
		if k.inUse == 0 && m.released != nil {
			m.released.Broadcast()
		}
	}
	m.clock++
	k.lastUse = m.clock
	m.syncRegister(task)
	cost += m.params.PermRegWrite
	return cost, nil
}

// Perm returns the thread's current permission on v.
func (m *Manager) Perm(task *kernel.Task, v Vkey) hw.Perm {
	if k := m.key(v); k != nil {
		return k.perms[task]
	}
	return hw.PermNone
}

// Mapped reports whether v currently holds a hardware key.
func (m *Manager) Mapped(v Vkey) bool {
	k := m.key(v)
	return k != nil && k.mapped
}

// mapKey binds v to a hardware key: a free one if available, otherwise the
// LRU key not in use by any thread (evicting it), otherwise the caller
// waits. The restore mprotect re-enables v's pages under the new key.
func (m *Manager) mapKey(p *sim.Proc, task *kernel.Task, v Vkey, k *keyMeta) (cycles.Cost, error) {
	var cost cycles.Cost
	for {
		// Free hardware key?
		for pk := firstPkey; pk < numPkeys; pk++ {
			if !m.pkeys[pk].used {
				cost += m.installKey(task, v, k, pagetable.Pdom(pk))
				return cost, nil
			}
		}
		// Evict the LRU key whose vkey no thread holds accessible.
		if victim := m.chooseVictim(); victim != 0 {
			vk := m.key(victim)
			pk := vk.pkey
			m.Stats.Evictions++
			cost += m.disablePages(task, vk)
			vk.mapped = false
			m.pkeys[pk] = pkeySlot{}
			cost += m.installKey(task, v, k, pk)
			return cost, nil
		}
		// Everything is in use: busy-wait for a release.
		if p == nil || m.released == nil {
			return cost, fmt.Errorf("%w: %d keys, all held", ErrNoFreeKey, UsableKeys)
		}
		m.Stats.BusyWaits++
		waited := m.released.Wait(p)
		m.Stats.BusyWaitCycles += waited
	}
}

func (m *Manager) chooseVictim() Vkey {
	var best Vkey
	var bestTS uint64
	for pk := firstPkey; pk < numPkeys; pk++ {
		if !m.pkeys[pk].used {
			continue
		}
		vk := m.key(m.pkeys[pk].vkey)
		if vk.inUse > 0 {
			continue
		}
		if best == 0 || vk.lastUse < bestTS {
			best = m.pkeys[pk].vkey
			bestTS = vk.lastUse
		}
	}
	return best
}

// installKey binds v to hardware key pk and restores its pages with an
// mprotect over every area (the second half of libmpk's eviction cost).
func (m *Manager) installKey(task *kernel.Task, v Vkey, k *keyMeta, pk pagetable.Pdom) cycles.Cost {
	m.pkeys[pk] = pkeySlot{vkey: v, used: true}
	k.pkey = pk
	k.mapped = true
	m.clock++
	k.lastUse = m.clock
	cost := m.retagAreas(k, pk)
	// Threads whose registers referenced the key under an old binding
	// are refreshed lazily on their next pkey_set; the restore mprotect
	// flushed stale translations already.
	if task != nil {
		cost += m.flushProcess(task, k)
	}
	return cost
}

// disablePages applies mprotect(PROT_NONE) to every page of the key and
// shoots down the TLBs of every core running the process.
func (m *Manager) disablePages(task *kernel.Task, k *keyMeta) cycles.Cost {
	cost := m.retagAreas(k, protNonePdom)
	if task != nil {
		cost += m.flushProcess(task, k)
	}
	return cost
}

// retagAreas rewrites the domain tag of every present page of the key in
// the process page table, charging the generic mprotect path.
func (m *Manager) retagAreas(k *keyMeta, pk pagetable.Pdom) cycles.Cost {
	shadow := m.proc.AS().Shadow()
	var units uint64
	for _, a := range k.areas {
		shadow.RetagRange(a.start, a.length, pk)
		units += m.costUnits(a.length)
	}
	c := m.params.SyscallReturn + m.params.MprotectPerPage*cycles.Cost(units)
	m.Stats.MgmtCycles += uint64(c)
	return c
}

// flushProcess performs the process-wide TLB shootdown that follows each
// libmpk mprotect: every core running any thread of the process flushes
// the process's translations.
func (m *Manager) flushProcess(task *kernel.Task, k *keyMeta) cycles.Cost {
	mach := m.proc.Kernel().Machine()
	targets := m.proc.RunningCores()
	asids := make([]tlb.ASID, 0, len(m.proc.Tasks()))
	for _, t := range m.proc.Tasks() {
		asids = append(asids, t.ASID())
	}
	rep := mach.Shootdown(task.CoreID(), targets, func(tb tlb.Cache) {
		for _, a := range asids {
			tb.FlushASID(a)
		}
	}, m.params.TLBFlushLocalAll)
	m.Stats.Shootdowns++
	// Remote cores service the IPI: charge their next scheduled burst.
	kern := m.proc.Kernel()
	for id := 0; id < mach.NumCores(); id++ {
		if id != task.CoreID() && targets.Has(id) {
			kern.AddPendingInterrupt(id, rep.ReceiverCycles)
		}
	}
	total := rep.InitiatorCycles + rep.ReceiverCycles*cycles.Cost(rep.RemoteCores)
	m.Stats.ShootdownCycles += uint64(total)
	return rep.InitiatorCycles
}

// syncRegister rebuilds the thread's permission register from its
// per-vkey permissions and the current key bindings.
func (m *Manager) syncRegister(task *kernel.Task) {
	var r hw.PermRegister
	r.SetRaw(hw.DenyAll())
	for _, k := range m.keys {
		if k == nil || !k.mapped {
			continue
		}
		if p, ok := k.perms[task]; ok {
			r.Set(uint8(k.pkey), p)
		}
	}
	task.SetSavedPerm(r.Raw())
}
