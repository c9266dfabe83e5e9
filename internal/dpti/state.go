package dpti

import (
	"sort"

	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2). Materialized domain
// tables live in the address space's synchronization set, so the mm
// section carries their contents and the kernel section their ASIDs;
// this image only records the linkage (domain → table id → ASID) plus
// the manager's own bookkeeping. The section encodes the Snap fields in
// declaration order: unsigned values as uvarints, Go ints as zigzag
// varints, and every slice as a count then its elements.

// maxSnapDomains caps the domain-id space a snapshot may describe: the
// domain table is dense up to NextID, so a forged id would otherwise
// drive an unbounded allocation. It is far above any domain count a run
// reaches.
const maxSnapDomains = 1 << 20

// AreaSnap is one serialized protected area.
type AreaSnap struct {
	Start  pagetable.VAddr
	Length uint64
}

// DomainSnap is the serializable image of one domain's metadata.
type DomainSnap struct {
	ID      DomainID
	Areas   []AreaSnap
	TableID int // stable table id (see mm.TableID); -1 when not live
	ASID    tlb.ASID
	Live    bool
	LastUse uint64
}

// CurrentSnap records which domain one task has entered.
type CurrentSnap struct {
	TID int
	Dom DomainID
}

// Snap is the serializable image of a Manager.
type Snap struct {
	NextID    DomainID
	Domains   []DomainSnap  // ascending ID; freed slots omitted
	Current   []CurrentSnap // ascending TID
	MaxTables int
	Clock     uint64
	Stats     Stats
}

// Snap captures the manager's image. tableID maps each materialized
// domain's page table to its stable id.
func (m *Manager) Snap(tableID func(*pagetable.Table) int) Snap {
	s := Snap{
		NextID:    m.nextID,
		MaxTables: m.maxTables,
		Clock:     m.clock,
		Stats:     m.Stats,
	}
	for _, d := range m.domains {
		if d == nil {
			continue
		}
		ds := DomainSnap{ID: d.id, TableID: -1, ASID: d.asid, Live: d.live, LastUse: d.lastUse}
		if d.live {
			ds.TableID = tableID(d.table)
		}
		for _, a := range d.areas {
			ds.Areas = append(ds.Areas, AreaSnap{Start: a.start, Length: a.length})
		}
		s.Domains = append(s.Domains, ds)
	}
	for t, d := range m.current {
		s.Current = append(s.Current, CurrentSnap{TID: tapTID(t), Dom: d})
	}
	sort.Slice(s.Current, func(i, j int) bool { return s.Current[i].TID < s.Current[j].TID })
	return s
}

// LoadSnap restores a captured image onto a freshly attached manager; s
// must have passed Read's validation. table resolves stable table ids to
// the restored address space's tables; task resolves TIDs to restored
// tasks (TID 0 must resolve to nil). The tables themselves — and the
// ASID live set — are restored by the mm and kernel sections, so only
// linkage is rebuilt here.
func (m *Manager) LoadSnap(s Snap, table func(id int) *pagetable.Table, task func(tid int) *kernel.Task) {
	if len(m.domains) != 0 {
		panic("dpti: LoadSnap on a non-fresh manager")
	}
	m.nextID = s.NextID
	m.maxTables = s.MaxTables
	m.clock = s.Clock
	m.Stats = s.Stats
	m.domains = make([]*domain, int(s.NextID)-1)
	for _, ds := range s.Domains {
		d := &domain{id: ds.ID, asid: ds.ASID, live: ds.Live, lastUse: ds.LastUse}
		if ds.Live {
			d.table = table(ds.TableID)
			m.numLive++
		}
		for _, a := range ds.Areas {
			d.areas = append(d.areas, area{start: a.Start, length: a.Length})
		}
		m.domains[ds.ID-1] = d
	}
	for _, c := range s.Current {
		m.current[task(c.TID)] = c.Dom
	}
}

// Append appends the snapshot's encoding.
func (s Snap) Append(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(s.NextID))
	b = wire.AppendUvarint(b, uint64(len(s.Domains)))
	for _, d := range s.Domains {
		b = wire.AppendUvarint(b, uint64(d.ID))
		b = wire.AppendUvarint(b, uint64(len(d.Areas)))
		for _, a := range d.Areas {
			b = wire.AppendUvarint(b, uint64(a.Start))
			b = wire.AppendUvarint(b, a.Length)
		}
		b = wire.AppendVarint(b, int64(d.TableID))
		b = wire.AppendUvarint(b, uint64(d.ASID))
		b = wire.AppendBool(b, d.Live)
		b = wire.AppendUvarint(b, d.LastUse)
	}
	b = wire.AppendUvarint(b, uint64(len(s.Current)))
	for _, c := range s.Current {
		b = wire.AppendVarint(b, int64(c.TID))
		b = wire.AppendUvarint(b, uint64(c.Dom))
	}
	b = wire.AppendVarint(b, int64(s.MaxTables))
	b = wire.AppendUvarint(b, s.Clock)
	st := s.Stats
	for _, v := range [...]uint64{st.Enters, st.Exits, st.Materializations, st.Evictions,
		st.SwitchCycles, st.ShootdownCycles, st.MgmtCycles} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// Read decodes a snapshot Append wrote and validates it so that LoadSnap
// cannot fail: NextID within [1, maxSnapDomains], domain ids strictly
// ascending below it, a table within numTables for every live domain,
// task TIDs that are 0 or resolve through task, and a positive table
// cap.
func (s *Snap) Read(r *wire.Reader, numTables int, task func(tid int) *kernel.Task) {
	if s.NextID = DomainID(r.Uvarint()); s.NextID < 1 || s.NextID > maxSnapDomains {
		r.Failf("next domain id %d", s.NextID)
		return
	}
	s.Domains = make([]DomainSnap, r.Count("domain"))
	for i := range s.Domains {
		d := &s.Domains[i]
		d.ID = DomainID(r.Uvarint())
		if d.ID < 1 || d.ID >= s.NextID || i > 0 && d.ID <= s.Domains[i-1].ID {
			r.Failf("domain %d out of order or range", d.ID)
			return
		}
		d.Areas = make([]AreaSnap, r.Count("area"))
		for j := range d.Areas {
			d.Areas[j] = AreaSnap{Start: pagetable.VAddr(r.Uvarint()), Length: r.Uvarint()}
		}
		d.TableID = pagetable.ReadTableID(r, numTables)
		d.ASID = tlb.ReadASID(r)
		d.Live = r.Bool()
		d.LastUse = r.Uvarint()
		if d.Live && d.TableID == -1 {
			r.Failf("live domain %d has no table", d.ID)
		}
	}
	s.Current = make([]CurrentSnap, r.Count("current"))
	for i := range s.Current {
		c := CurrentSnap{TID: int(r.Varint()), Dom: DomainID(r.Uvarint())}
		if r.Err() == nil && c.TID != 0 && task(c.TID) == nil {
			r.Failf("unknown task %d entered domain %d", c.TID, c.Dom)
		}
		s.Current[i] = c
	}
	if s.MaxTables = int(r.Varint()); s.MaxTables < 1 {
		r.Failf("table cap %d", s.MaxTables)
	}
	s.Clock = r.Uvarint()
	s.Stats = Stats{
		Enters: r.Uvarint(), Exits: r.Uvarint(), Materializations: r.Uvarint(), Evictions: r.Uvarint(),
		SwitchCycles: r.Uvarint(), ShootdownCycles: r.Uvarint(), MgmtCycles: r.Uvarint(),
	}
}
