package core

import (
	"fmt"
	"sort"

	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore for the VDom core (vdom-snap/v2). The
// manager's VDSes refer to their page tables through the memory
// manager's stable ids, and VDRs/thread sets refer to tasks by TID, so a
// snapshot is free of live pointers. The section encodes the ManagerSnap
// fields in declaration order: unsigned values as uvarints, Go ints as
// zigzag varints, pdoms and permissions as one byte, and every slice as a
// count then its elements.

// maxSnapVdom caps the vdom ids a snapshot may carry in VDR permission
// entries: a VDR's permission table is dense up to its highest vdom, so
// a forged id would otherwise drive an unbounded allocation. It is far
// above any vdom count a run reaches.
const maxSnapVdom = 1 << 24

// MapEntrySnap is one serialized domain-map slot (indexed by pdom).
type MapEntrySnap struct {
	Vdom    VdomID
	Used    bool
	Threads int
	LastUse uint64
}

// VdomPdomSnap is one (vdom → pdom) pair of an HLRU hint map.
type VdomPdomSnap struct {
	Vdom VdomID
	Pdom pagetable.Pdom
}

// EvictSnap is one remembered eviction (vdom → how it left).
type EvictSnap struct {
	Vdom   VdomID
	Pdom   pagetable.Pdom
	ViaPMD bool
}

// VDSSnap is the serializable image of one VDS.
type VDSSnap struct {
	ID          int
	ASID        tlb.ASID
	TableID     int
	DomainMap   []MapEntrySnap // full slice, indexed by pdom
	ThreadTIDs  []int          // ascending
	Clock       uint64
	LastMapping []VdomPdomSnap // ascending vdom
	Evicted     []EvictSnap    // ascending vdom
	CachedCores hw.CPUSet
	NumPdoms    int
}

// VdomAreasSnap is one vdom's VDT area chain.
type VdomAreasSnap struct {
	Vdom  VdomID
	Areas []Area
}

// PermSnap is one VDR permission entry.
type PermSnap struct {
	Vdom VdomID
	Perm VPerm
}

// VDRSnap is the serializable image of one thread's VDR.
type VDRSnap struct {
	TID       int
	Nas       int
	VDSIDs    []int // attach order
	CurrentID int   // -1 = not resident
	Perms     []PermSnap
}

// ManagerSnap is the serializable image of a Manager.
type ManagerSnap struct {
	NextVdom VdomID
	Live     []VdomID // ascending
	Freq     []VdomID // ascending
	VDT      []VdomAreasSnap

	NextVDSID int
	VDSes     []VDSSnap // creation order
	VDRs      []VDRSnap // ascending TID
	Stats     Stats
}

// Snap captures the manager's image. tableID maps each VDS's page table
// to its stable id (see mm.TableID).
func (m *Manager) Snap(tableID func(*pagetable.Table) int) ManagerSnap {
	s := ManagerSnap{
		NextVdom:  m.nextVdom,
		NextVDSID: m.nextVDSID,
		Stats:     m.Stats,
	}
	for d := range m.live {
		s.Live = append(s.Live, d)
	}
	for d := range m.freq {
		s.Freq = append(s.Freq, d)
	}
	sortVdoms(s.Live)
	sortVdoms(s.Freq)
	s.VDT = m.vdt.snap()
	for _, v := range m.vdses {
		s.VDSes = append(s.VDSes, snapVDS(v, tableID))
	}
	for t, r := range m.vdrs {
		rs := VDRSnap{TID: t.TID(), Nas: r.nas, CurrentID: -1}
		for _, v := range r.vdses {
			rs.VDSIDs = append(rs.VDSIDs, v.id)
		}
		if r.current != nil {
			rs.CurrentID = r.current.id
		}
		for d, p := range r.perms {
			if p == VPermNone {
				continue // absent and explicit-None entries are identical
			}
			rs.Perms = append(rs.Perms, PermSnap{Vdom: VdomID(d), Perm: p})
		}
		sort.Slice(rs.Perms, func(i, j int) bool { return rs.Perms[i].Vdom < rs.Perms[j].Vdom })
		s.VDRs = append(s.VDRs, rs)
	}
	sort.Slice(s.VDRs, func(i, j int) bool { return s.VDRs[i].TID < s.VDRs[j].TID })
	return s
}

func snapVDS(v *VDS, tableID func(*pagetable.Table) int) VDSSnap {
	vs := VDSSnap{
		ID:          v.id,
		ASID:        v.asid,
		TableID:     tableID(v.table),
		DomainMap:   make([]MapEntrySnap, len(v.domainMap)),
		Clock:       v.clock,
		CachedCores: v.cachedCores,
		NumPdoms:    v.numPdoms,
	}
	for p, e := range v.domainMap {
		vs.DomainMap[p] = MapEntrySnap{Vdom: e.vdom, Used: e.used, Threads: e.threads, LastUse: e.lastUse}
	}
	for t := range v.threads {
		vs.ThreadTIDs = append(vs.ThreadTIDs, t.TID())
	}
	sort.Ints(vs.ThreadTIDs)
	for d, p := range v.lastMapping {
		vs.LastMapping = append(vs.LastMapping, VdomPdomSnap{Vdom: d, Pdom: p})
	}
	sort.Slice(vs.LastMapping, func(i, j int) bool { return vs.LastMapping[i].Vdom < vs.LastMapping[j].Vdom })
	for d, e := range v.evicted {
		vs.Evicted = append(vs.Evicted, EvictSnap{Vdom: d, Pdom: e.pdom, ViaPMD: e.viaPMD})
	}
	sort.Slice(vs.Evicted, func(i, j int) bool { return vs.Evicted[i].Vdom < vs.Evicted[j].Vdom })
	return vs
}

// LoadSnap restores the manager's image onto a freshly attached manager
// (no vdoms, no VDSes beyond none, no VDRs); s must have passed Read's
// validation. table resolves the memory manager's stable table ids; task
// resolves TIDs to restored tasks.
//
// VDSes are rebuilt directly — not through allocVDS, which would draw
// ASIDs and trace events — and VDT chains are reloaded slot-by-slot
// rather than through AddArea, whose adjacent-area coalescing would
// merge chains that the live system kept separate (breaking later
// exact-match RemoveArea calls).
func (m *Manager) LoadSnap(s ManagerSnap, table func(id int) *pagetable.Table, task func(tid int) *kernel.Task) {
	if len(m.vdses) != 0 || len(m.vdrs) != 0 || len(m.live) != 0 {
		panic("core: LoadSnap on a non-fresh manager")
	}
	m.nextVdom = s.NextVdom
	m.live = make(map[VdomID]bool, len(s.Live))
	for _, d := range s.Live {
		m.live[d] = true
	}
	m.freq = make(map[VdomID]bool, len(s.Freq))
	for _, d := range s.Freq {
		m.freq[d] = true
	}
	m.vdt.load(s.VDT)
	m.nextVDSID = s.NextVDSID
	m.Stats = s.Stats

	byID := make(map[int]*VDS, len(s.VDSes))
	for _, vs := range s.VDSes {
		v := loadVDS(vs, table, task)
		m.vdses = append(m.vdses, v)
		m.byTable[v.table] = v
		m.memoTable, m.memoVDS = nil, nil
		byID[v.id] = v
	}
	for _, rs := range s.VDRs {
		r := &VDR{task: task(rs.TID), nas: rs.Nas}
		for _, p := range rs.Perms {
			r.perms.set(p.Vdom, p.Perm)
		}
		for _, id := range rs.VDSIDs {
			r.vdses = append(r.vdses, byID[id])
		}
		if rs.CurrentID != -1 {
			r.current = byID[rs.CurrentID]
		}
		m.vdrs[r.task] = r
	}
}

func loadVDS(vs VDSSnap, table func(id int) *pagetable.Table, task func(tid int) *kernel.Task) *VDS {
	v := &VDS{
		id:          vs.ID,
		table:       table(vs.TableID),
		asid:        vs.ASID,
		domainMap:   make([]mapEntry, len(vs.DomainMap)),
		vdomPdom:    make(map[VdomID]pagetable.Pdom),
		threads:     make(map[*kernel.Task]bool),
		clock:       vs.Clock,
		lastMapping: make(map[VdomID]pagetable.Pdom, len(vs.LastMapping)),
		evicted:     make(map[VdomID]evictState, len(vs.Evicted)),
		cachedCores: vs.CachedCores,
		numPdoms:    vs.NumPdoms,
	}
	for p, e := range vs.DomainMap {
		v.domainMap[p] = mapEntry{vdom: e.Vdom, used: e.Used, threads: e.Threads, lastUse: e.LastUse}
		if e.Used {
			v.vdomPdom[e.Vdom] = pagetable.Pdom(p)
		}
	}
	for _, tid := range vs.ThreadTIDs {
		v.threads[task(tid)] = true
	}
	for _, e := range vs.LastMapping {
		v.lastMapping[e.Vdom] = e.Pdom
	}
	for _, e := range vs.Evicted {
		v.evicted[e.Vdom] = evictState{pdom: e.Pdom, viaPMD: e.ViaPMD}
	}
	return v
}

// snap serializes the VDT's chains, per vdom in ascending id order.
func (t *VDT) snap() []VdomAreasSnap {
	var out []VdomAreasSnap
	for hi, leaf := range t.top {
		for lo := range leaf.slots {
			if len(leaf.slots[lo]) == 0 {
				continue
			}
			out = append(out, VdomAreasSnap{
				Vdom:  VdomID(hi*vdtFanout + uint64(lo)),
				Areas: append([]Area(nil), leaf.slots[lo]...),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Vdom < out[j].Vdom })
	return out
}

// load rebuilds the VDT from serialized chains, preserving each chain's
// exact segmentation (no coalescing).
func (t *VDT) load(chains []VdomAreasSnap) {
	t.top = make(map[uint64]*vdtLeaf)
	t.areas = 0
	for _, c := range chains {
		leaf, lo := t.leafFor(c.Vdom, true)
		leaf.slots[lo] = append([]Area(nil), c.Areas...)
		t.areas += len(c.Areas)
	}
}

// Append appends the snapshot's encoding.
func (s ManagerSnap) Append(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(s.NextVdom))
	b = appendVdoms(b, s.Live)
	b = appendVdoms(b, s.Freq)
	b = wire.AppendUvarint(b, uint64(len(s.VDT)))
	for _, c := range s.VDT {
		b = wire.AppendUvarint(b, uint64(c.Vdom))
		b = wire.AppendUvarint(b, uint64(len(c.Areas)))
		for _, a := range c.Areas {
			b = wire.AppendUvarint(b, uint64(a.Start))
			b = wire.AppendUvarint(b, a.Length)
		}
	}
	b = wire.AppendVarint(b, int64(s.NextVDSID))
	b = wire.AppendUvarint(b, uint64(len(s.VDSes)))
	for _, v := range s.VDSes {
		b = v.append(b)
	}
	b = wire.AppendUvarint(b, uint64(len(s.VDRs)))
	for _, v := range s.VDRs {
		b = wire.AppendVarint(b, int64(v.TID))
		b = wire.AppendVarint(b, int64(v.Nas))
		b = appendInts(b, v.VDSIDs)
		b = wire.AppendVarint(b, int64(v.CurrentID))
		b = wire.AppendUvarint(b, uint64(len(v.Perms)))
		for _, p := range v.Perms {
			b = wire.AppendUvarint(b, uint64(p.Vdom))
			b = append(b, byte(p.Perm))
		}
	}
	st := s.Stats
	for _, v := range [...]uint64{st.WrVdrCalls, st.MapsToFree, st.Migrations, st.VDSAllocs,
		st.VDSSwitches, st.Evictions, st.EvictedPages, st.PMDFastEvicts, st.RangeFlushes,
		st.ASIDFlushes, st.Shootdowns, st.DomainFaults, st.RegisterSyncs, st.HLRUHits} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

func (v VDSSnap) append(b []byte) []byte {
	b = wire.AppendVarint(b, int64(v.ID))
	b = wire.AppendUvarint(b, uint64(v.ASID))
	b = wire.AppendVarint(b, int64(v.TableID))
	b = wire.AppendUvarint(b, uint64(len(v.DomainMap)))
	for _, e := range v.DomainMap {
		b = wire.AppendUvarint(b, uint64(e.Vdom))
		b = wire.AppendBool(b, e.Used)
		b = wire.AppendVarint(b, int64(e.Threads))
		b = wire.AppendUvarint(b, e.LastUse)
	}
	b = appendInts(b, v.ThreadTIDs)
	b = wire.AppendUvarint(b, v.Clock)
	b = wire.AppendUvarint(b, uint64(len(v.LastMapping)))
	for _, e := range v.LastMapping {
		b = wire.AppendUvarint(b, uint64(e.Vdom))
		b = append(b, byte(e.Pdom))
	}
	b = wire.AppendUvarint(b, uint64(len(v.Evicted)))
	for _, e := range v.Evicted {
		b = wire.AppendUvarint(b, uint64(e.Vdom))
		b = append(b, byte(e.Pdom))
		b = wire.AppendBool(b, e.ViaPMD)
	}
	b = wire.AppendUvarint(b, uint64(v.CachedCores))
	return wire.AppendVarint(b, int64(v.NumPdoms))
}

// Read decodes a snapshot Append wrote and validates its references so
// that LoadSnap cannot fail: every VDS must name a table within
// numTables (not "none") and a domain map of at most hw.MaxPdoms slots,
// every TID must resolve through task, every VDR's VDS ids must name
// snapshot VDSes, and permission vdoms must stay below maxSnapVdom.
func (s *ManagerSnap) Read(r *wire.Reader, numTables int, task func(tid int) *kernel.Task) {
	s.NextVdom = VdomID(r.Uvarint())
	s.Live = readVdoms(r)
	s.Freq = readVdoms(r)
	s.VDT = make([]VdomAreasSnap, r.Count("vdt chain"))
	for i := range s.VDT {
		c := &s.VDT[i]
		c.Vdom = VdomID(r.Uvarint())
		c.Areas = make([]Area, r.Count("vdt area"))
		for j := range c.Areas {
			c.Areas[j] = Area{Start: pagetable.VAddr(r.Uvarint()), Length: r.Uvarint()}
		}
	}
	s.NextVDSID = int(r.Varint())
	s.VDSes = make([]VDSSnap, r.Count("vds"))
	ids := make(map[int]bool, len(s.VDSes))
	for i := range s.VDSes {
		v := &s.VDSes[i]
		v.read(r, numTables, task)
		ids[v.ID] = true
	}
	s.VDRs = make([]VDRSnap, r.Count("vdr"))
	for i := range s.VDRs {
		v := &s.VDRs[i]
		v.TID = int(r.Varint())
		v.Nas = int(r.Varint())
		v.VDSIDs = readInts(r, "vdr vds")
		v.CurrentID = int(r.Varint())
		v.Perms = make([]PermSnap, r.Count("vdr perm"))
		for j := range v.Perms {
			v.Perms[j] = PermSnap{Vdom: VdomID(r.Uvarint()), Perm: VPerm(r.Byte())}
			if v.Perms[j].Vdom >= maxSnapVdom {
				r.Failf("vdr %d permission on vdom %d", v.TID, v.Perms[j].Vdom)
			}
		}
		if r.Err() == nil && task(v.TID) == nil {
			r.Failf("vdr of unknown task %d", v.TID)
		}
		for _, id := range v.VDSIDs {
			if !ids[id] {
				r.Failf("vdr %d attached to unknown vds %d", v.TID, id)
			}
		}
		if v.CurrentID != -1 && !ids[v.CurrentID] {
			r.Failf("vdr %d resident in unknown vds %d", v.TID, v.CurrentID)
		}
	}
	s.Stats = Stats{
		WrVdrCalls: r.Uvarint(), MapsToFree: r.Uvarint(), Migrations: r.Uvarint(),
		VDSAllocs: r.Uvarint(), VDSSwitches: r.Uvarint(), Evictions: r.Uvarint(),
		EvictedPages: r.Uvarint(), PMDFastEvicts: r.Uvarint(), RangeFlushes: r.Uvarint(),
		ASIDFlushes: r.Uvarint(), Shootdowns: r.Uvarint(), DomainFaults: r.Uvarint(),
		RegisterSyncs: r.Uvarint(), HLRUHits: r.Uvarint(),
	}
}

func (v *VDSSnap) read(r *wire.Reader, numTables int, task func(tid int) *kernel.Task) {
	v.ID = int(r.Varint())
	v.ASID = tlb.ReadASID(r)
	if v.TableID = pagetable.ReadTableID(r, numTables); v.TableID == -1 {
		r.Failf("vds %d has no table", v.ID)
	}
	v.DomainMap = make([]MapEntrySnap, r.Count("domain map"))
	for i := range v.DomainMap {
		v.DomainMap[i] = MapEntrySnap{Vdom: VdomID(r.Uvarint()), Used: r.Bool(), Threads: int(r.Varint()), LastUse: r.Uvarint()}
	}
	v.ThreadTIDs = readInts(r, "vds thread")
	v.Clock = r.Uvarint()
	v.LastMapping = make([]VdomPdomSnap, r.Count("last mapping"))
	for i := range v.LastMapping {
		v.LastMapping[i] = VdomPdomSnap{Vdom: VdomID(r.Uvarint()), Pdom: pagetable.Pdom(r.Byte())}
	}
	v.Evicted = make([]EvictSnap, r.Count("evicted"))
	for i := range v.Evicted {
		v.Evicted[i] = EvictSnap{Vdom: VdomID(r.Uvarint()), Pdom: pagetable.Pdom(r.Byte()), ViaPMD: r.Bool()}
	}
	v.CachedCores = hw.CPUSet(r.Uvarint())
	v.NumPdoms = int(r.Varint())
	if r.Err() != nil {
		return
	}
	if v.NumPdoms != len(v.DomainMap) || v.NumPdoms > hw.MaxPdoms {
		r.Failf("vds %d has %d pdoms over a %d-slot domain map", v.ID, v.NumPdoms, len(v.DomainMap))
	}
	for _, tid := range v.ThreadTIDs {
		if task(tid) == nil {
			r.Failf("vds %d references unknown task %d", v.ID, tid)
		}
	}
}

func appendVdoms(b []byte, ds []VdomID) []byte {
	b = wire.AppendUvarint(b, uint64(len(ds)))
	for _, d := range ds {
		b = wire.AppendUvarint(b, uint64(d))
	}
	return b
}

func readVdoms(r *wire.Reader) []VdomID {
	ds := make([]VdomID, r.Count("vdom"))
	for i := range ds {
		ds[i] = VdomID(r.Uvarint())
	}
	return ds
}

func appendInts(b []byte, vs []int) []byte {
	b = wire.AppendUvarint(b, uint64(len(vs)))
	for _, v := range vs {
		b = wire.AppendVarint(b, int64(v))
	}
	return b
}

func readInts(r *wire.Reader, name string) []int {
	vs := make([]int, r.Count(name))
	for i := range vs {
		vs[i] = int(r.Varint())
	}
	return vs
}

// TearDomainMap deterministically corrupts one VDS's domain map the way
// a crash in the middle of a multi-step map update would: the forward
// entry (domainMap) survives while its inverse (vdomPdom) is lost. The
// cross-layer auditor detects the inconsistency, and recovery discards
// the corrupted instance wholesale. It returns a description of the tear
// and false when no VDS has a mapped vdom to tear.
func (m *Manager) TearDomainMap() (string, bool) {
	for _, v := range m.vdses {
		for p := firstUsablePdom; p < v.numPdoms; p++ {
			e := v.domainMap[p]
			if !e.used {
				continue
			}
			delete(v.vdomPdom, e.vdom)
			v.dropMemo()
			return fmt.Sprintf("vds %d: vdom %d → pdom %d forward entry kept, inverse dropped", v.id, e.vdom, p), true
		}
	}
	return "", false
}

func sortVdoms(v []VdomID) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}
