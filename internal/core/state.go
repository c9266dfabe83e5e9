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

// Checkpoint capture and restore for the VDom core (vdom-snap/v2),
// encoded straight from the live structures. VDSes refer to their page
// tables through the memory manager's stable ids, and VDRs and thread
// sets refer to tasks by TID, so the image is free of live pointers.
// Unsigned values are uvarints, Go ints zigzag varints, pdoms and
// permissions one byte, and every collection a count then its elements;
// map-backed collections are sorted by key at encode time.
//
// The section is: the next vdom id; the live and frequently-switched
// vdom sets (ascending); the VDT chains (ascending vdom, each chain's
// areas in order); the next VDS id; the VDSes in creation order; the
// VDRs (ascending TID); and the Stats counters. A VDS is its id, ASID,
// table id, full domain map (indexed by pdom), thread TIDs (ascending),
// HLRU clock, last-mapping and evicted hints (ascending vdom), cached-
// core set and pdom count. A VDR is its TID, nas, attached VDS ids
// (attach order), resident VDS id (-1 = none) and its non-None
// permissions (ascending vdom).

// maxSnapVdom caps the vdom ids a snapshot may carry in VDR permission
// entries: a VDR's permission table is dense up to its highest vdom, so
// a forged id would otherwise drive an unbounded allocation. It is far
// above any vdom count a run reaches.
const maxSnapVdom = 1 << 24

// AppendState appends the manager's image. tableID maps each VDS's page
// table to its stable id (see mm.TableID).
func (m *Manager) AppendState(b []byte, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendUvarint(b, uint64(m.nextVdom))
	b = appendVdomSet(b, m.live)
	b = appendVdomSet(b, m.freq)
	b = m.vdt.appendState(b)
	b = wire.AppendVarint(b, int64(m.nextVDSID))
	b = wire.AppendUvarint(b, uint64(len(m.vdses)))
	for _, v := range m.vdses {
		b = v.appendState(b, tableID)
	}
	b = wire.AppendUvarint(b, uint64(len(m.vdrs)))
	for _, t := range kernel.TasksByTID(m.vdrs) {
		r := m.vdrs[t]
		b = wire.AppendVarint(b, int64(t.TID()))
		b = wire.AppendVarint(b, int64(r.nas))
		b = wire.AppendUvarint(b, uint64(len(r.vdses)))
		for _, v := range r.vdses {
			b = wire.AppendVarint(b, int64(v.id))
		}
		cur := -1
		if r.current != nil {
			cur = r.current.id
		}
		b = wire.AppendVarint(b, int64(cur))
		n := 0
		for _, p := range r.perms {
			if p != VPermNone { // absent and explicit-None entries are identical
				n++
			}
		}
		b = wire.AppendUvarint(b, uint64(n))
		for d, p := range r.perms {
			if p != VPermNone {
				b = wire.AppendUvarint(b, uint64(d))
				b = append(b, byte(p))
			}
		}
	}
	st := m.Stats
	for _, v := range [...]uint64{st.WrVdrCalls, st.MapsToFree, st.Migrations, st.VDSAllocs,
		st.VDSSwitches, st.Evictions, st.EvictedPages, st.PMDFastEvicts, st.RangeFlushes,
		st.ASIDFlushes, st.Shootdowns, st.DomainFaults, st.RegisterSyncs, st.HLRUHits} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

func (v *VDS) appendState(b []byte, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendVarint(b, int64(v.id))
	b = wire.AppendUvarint(b, uint64(v.asid))
	b = wire.AppendVarint(b, int64(tableID(v.table)))
	b = wire.AppendUvarint(b, uint64(len(v.domainMap)))
	for _, e := range v.domainMap {
		b = wire.AppendUvarint(b, uint64(e.vdom))
		b = wire.AppendBool(b, e.used)
		b = wire.AppendVarint(b, int64(e.threads))
		b = wire.AppendUvarint(b, e.lastUse)
	}
	b = wire.AppendUvarint(b, uint64(len(v.threads)))
	for _, t := range kernel.TasksByTID(v.threads) {
		b = wire.AppendVarint(b, int64(t.TID()))
	}
	b = wire.AppendUvarint(b, v.clock)
	b = wire.AppendUvarint(b, uint64(len(v.lastMapping)))
	for _, d := range sortedVdoms(v.lastMapping) {
		b = wire.AppendUvarint(b, uint64(d))
		b = append(b, byte(v.lastMapping[d]))
	}
	b = wire.AppendUvarint(b, uint64(len(v.evicted)))
	for _, d := range sortedVdoms(v.evicted) {
		e := v.evicted[d]
		b = wire.AppendUvarint(b, uint64(d))
		b = append(b, byte(e.pdom))
		b = wire.AppendBool(b, e.viaPMD)
	}
	b = wire.AppendUvarint(b, uint64(v.cachedCores))
	return wire.AppendVarint(b, int64(v.numPdoms))
}

// appendState appends the VDT's chains in ascending vdom order, each
// chain's exact segmentation included.
func (t *VDT) appendState(b []byte) []byte {
	his := make([]uint64, 0, len(t.top))
	n := 0
	for hi, leaf := range t.top {
		his = append(his, hi)
		for lo := range leaf.slots {
			if len(leaf.slots[lo]) != 0 {
				n++
			}
		}
	}
	sort.Slice(his, func(i, j int) bool { return his[i] < his[j] })
	b = wire.AppendUvarint(b, uint64(n))
	for _, hi := range his {
		for lo, areas := range t.top[hi].slots {
			if len(areas) == 0 {
				continue
			}
			b = wire.AppendUvarint(b, hi*vdtFanout+uint64(lo))
			b = wire.AppendUvarint(b, uint64(len(areas)))
			for _, a := range areas {
				b = wire.AppendUvarint(b, uint64(a.Start))
				b = wire.AppendUvarint(b, a.Length)
			}
		}
	}
	return b
}

// ReadState restores an image AppendState wrote onto a freshly attached
// manager (no vdoms, VDSes or VDRs). table resolves the memory manager's
// stable table ids, valid up to numTables; task resolves TIDs to restored
// tasks. Every VDS must name a table within numTables (not "none") and
// a domain map of exactly its pdom count, at most hw.MaxPdoms slots;
// every TID must resolve through task; every VDR's VDS ids must name
// VDSes of the image; and permission vdoms must stay below maxSnapVdom.
// Any other image fails the reader before the offending value is used.
//
// VDSes are rebuilt directly — not through allocVDS, which would draw
// ASIDs and trace events — and VDT chains are reloaded slot by slot
// rather than through AddArea, whose adjacent-area coalescing would
// merge chains that the live system kept separate (breaking later
// exact-match RemoveArea calls).
func (m *Manager) ReadState(r *wire.Reader, table func(id int) *pagetable.Table, numTables int, task func(tid int) *kernel.Task) {
	if len(m.vdses) != 0 || len(m.vdrs) != 0 || len(m.live) != 0 {
		panic("core: ReadState on a non-fresh manager")
	}
	m.nextVdom = VdomID(r.Uvarint())
	m.live = readVdomSet(r)
	m.freq = readVdomSet(r)
	m.vdt.readState(r)
	m.nextVDSID = int(r.Varint())
	n := r.Count("vds")
	byID := make(map[int]*VDS, n)
	for i := 0; i < n; i++ {
		v := readVDS(r, table, numTables, task)
		if r.Err() != nil {
			return
		}
		m.vdses = append(m.vdses, v)
		m.byTable[v.table] = v
		byID[v.id] = v
	}
	m.memoTable, m.memoVDS = nil, nil
	n = r.Count("vdr")
	for i := 0; i < n; i++ {
		tid := int(r.Varint())
		vr := &VDR{task: task(tid), nas: int(r.Varint())}
		ids := make([]int, r.Count("vdr vds"))
		for j := range ids {
			ids[j] = int(r.Varint())
		}
		cur := int(r.Varint())
		perms := r.Count("vdr perm")
		for j := 0; j < perms; j++ {
			d, p := VdomID(r.Uvarint()), VPerm(r.Byte())
			if d >= maxSnapVdom {
				r.Failf("vdr %d permission on vdom %d", tid, d)
				return
			}
			vr.perms.set(d, p)
		}
		if r.Err() != nil {
			return
		}
		if vr.task == nil {
			r.Failf("vdr of unknown task %d", tid)
			return
		}
		for _, id := range ids {
			v := byID[id]
			if v == nil {
				r.Failf("vdr %d attached to unknown vds %d", tid, id)
				return
			}
			vr.vdses = append(vr.vdses, v)
		}
		if cur != -1 {
			if vr.current = byID[cur]; vr.current == nil {
				r.Failf("vdr %d resident in unknown vds %d", tid, cur)
				return
			}
		}
		m.vdrs[vr.task] = vr
	}
	m.Stats = Stats{
		WrVdrCalls: r.Uvarint(), MapsToFree: r.Uvarint(), Migrations: r.Uvarint(),
		VDSAllocs: r.Uvarint(), VDSSwitches: r.Uvarint(), Evictions: r.Uvarint(),
		EvictedPages: r.Uvarint(), PMDFastEvicts: r.Uvarint(), RangeFlushes: r.Uvarint(),
		ASIDFlushes: r.Uvarint(), Shootdowns: r.Uvarint(), DomainFaults: r.Uvarint(),
		RegisterSyncs: r.Uvarint(), HLRUHits: r.Uvarint(),
	}
}

func readVDS(r *wire.Reader, table func(id int) *pagetable.Table, numTables int, task func(tid int) *kernel.Task) *VDS {
	v := &VDS{
		id:          int(r.Varint()),
		asid:        tlb.ReadASID(r),
		vdomPdom:    make(map[VdomID]pagetable.Pdom),
		threads:     make(map[*kernel.Task]bool),
		lastMapping: make(map[VdomID]pagetable.Pdom),
		evicted:     make(map[VdomID]evictState),
	}
	tableID := pagetable.ReadTableID(r, numTables)
	if r.Err() == nil && tableID == -1 {
		r.Failf("vds %d has no table", v.id)
		return nil
	}
	v.table = table(tableID)
	v.domainMap = make([]mapEntry, r.Count("domain map"))
	for p := range v.domainMap {
		e := mapEntry{vdom: VdomID(r.Uvarint()), used: r.Bool(), threads: int(r.Varint()), lastUse: r.Uvarint()}
		v.domainMap[p] = e
		if e.used {
			v.vdomPdom[e.vdom] = pagetable.Pdom(p)
		}
	}
	n := r.Count("vds thread")
	for i := 0; i < n; i++ {
		tid := int(r.Varint())
		t := task(tid)
		if r.Err() == nil && t == nil {
			r.Failf("vds %d references unknown task %d", v.id, tid)
			return nil
		}
		v.threads[t] = true
	}
	v.clock = r.Uvarint()
	n = r.Count("last mapping")
	for i := 0; i < n; i++ {
		d := VdomID(r.Uvarint())
		v.lastMapping[d] = pagetable.Pdom(r.Byte())
	}
	n = r.Count("evicted")
	for i := 0; i < n; i++ {
		d := VdomID(r.Uvarint())
		v.evicted[d] = evictState{pdom: pagetable.Pdom(r.Byte()), viaPMD: r.Bool()}
	}
	v.cachedCores = hw.CPUSet(r.Uvarint())
	v.numPdoms = int(r.Varint())
	if r.Err() == nil && (v.numPdoms != len(v.domainMap) || v.numPdoms > hw.MaxPdoms) {
		r.Failf("vds %d has %d pdoms over a %d-slot domain map", v.id, v.numPdoms, len(v.domainMap))
	}
	return v
}

// readState rebuilds the VDT from its chains, preserving each chain's
// exact segmentation (no coalescing).
func (t *VDT) readState(r *wire.Reader) {
	t.top = make(map[uint64]*vdtLeaf)
	t.areas = 0
	n := r.Count("vdt chain")
	for i := 0; i < n && r.Err() == nil; i++ {
		d := VdomID(r.Uvarint())
		areas := make([]Area, r.Count("vdt area"))
		for j := range areas {
			areas[j] = Area{Start: pagetable.VAddr(r.Uvarint()), Length: r.Uvarint()}
		}
		leaf, lo := t.leafFor(d, true)
		leaf.slots[lo] = areas
		t.areas += len(areas)
	}
}

func appendVdomSet(b []byte, set map[VdomID]bool) []byte {
	b = wire.AppendUvarint(b, uint64(len(set)))
	for _, d := range sortedVdoms(set) {
		b = wire.AppendUvarint(b, uint64(d))
	}
	return b
}

func readVdomSet(r *wire.Reader) map[VdomID]bool {
	n := r.Count("vdom")
	set := make(map[VdomID]bool, n)
	for i := 0; i < n; i++ {
		set[VdomID(r.Uvarint())] = true
	}
	return set
}

// sortedVdoms returns a vdom-keyed map's keys in ascending order.
func sortedVdoms[V any](m map[VdomID]V) []VdomID {
	ds := make([]VdomID, 0, len(m))
	for d := range m {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds
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
