package dpti

import (
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2), encoded straight from
// the live structures. Materialized domain tables live in the address
// space's synchronization set, so the mm section carries their contents
// and the kernel section their ASIDs; this image only records the
// linkage (domain → table id → ASID) plus the manager's own bookkeeping.
// The section is the next domain id; the domains in ascending id order
// (freed slots omitted), each with its areas, table id (-1 when not
// live), ASID, live flag and last use; the entered domain per task
// (ascending TID); the table cap; the LRU clock; and the Stats counters.
// Unsigned values are uvarints, Go ints zigzag varints, and every
// collection a count then its elements.

// maxSnapDomains caps the domain-id space a snapshot may describe: the
// domain table is dense up to NextID, so a forged id would otherwise
// drive an unbounded allocation. It is far above any domain count a run
// reaches.
const maxSnapDomains = 1 << 20

// AppendState appends the manager's image. tableID maps each
// materialized domain's page table to its stable id.
func (m *Manager) AppendState(b []byte, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendUvarint(b, uint64(m.nextID))
	n := 0
	for _, d := range m.domains {
		if d != nil {
			n++
		}
	}
	b = wire.AppendUvarint(b, uint64(n))
	for _, d := range m.domains {
		if d == nil {
			continue
		}
		b = wire.AppendUvarint(b, uint64(d.id))
		b = wire.AppendUvarint(b, uint64(len(d.areas)))
		for _, a := range d.areas {
			b = wire.AppendUvarint(b, uint64(a.start))
			b = wire.AppendUvarint(b, a.length)
		}
		id := -1
		if d.live {
			id = tableID(d.table)
		}
		b = wire.AppendVarint(b, int64(id))
		b = wire.AppendUvarint(b, uint64(d.asid))
		b = wire.AppendBool(b, d.live)
		b = wire.AppendUvarint(b, d.lastUse)
	}
	b = wire.AppendUvarint(b, uint64(len(m.current)))
	for _, t := range kernel.TasksByTID(m.current) {
		b = wire.AppendVarint(b, int64(kernel.TIDOf(t)))
		b = wire.AppendUvarint(b, uint64(m.current[t]))
	}
	b = wire.AppendVarint(b, int64(m.maxTables))
	b = wire.AppendUvarint(b, m.clock)
	st := m.Stats
	for _, v := range [...]uint64{st.Enters, st.Exits, st.Materializations, st.Evictions,
		st.SwitchCycles, st.ShootdownCycles, st.MgmtCycles} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// ReadState restores an image AppendState wrote onto a freshly attached
// manager. table resolves stable table ids to the restored address
// space's tables, valid up to numTables; task resolves TIDs to restored
// tasks (TID 0 must resolve to nil). The next domain id must lie in
// [1, maxSnapDomains], domain ids strictly ascending below it, every
// live domain must name a table, task TIDs must be 0 or resolve, and the
// table cap must be positive; any other image fails the reader before
// the offending value is used. The tables themselves — and the ASID live
// set — are restored by the mm and kernel sections, so only linkage is
// rebuilt here.
func (m *Manager) ReadState(r *wire.Reader, table func(id int) *pagetable.Table, numTables int, task func(tid int) *kernel.Task) {
	if len(m.domains) != 0 {
		panic("dpti: ReadState on a non-fresh manager")
	}
	if m.nextID = DomainID(r.Uvarint()); m.nextID < 1 || m.nextID > maxSnapDomains {
		r.Failf("next domain id %d", m.nextID)
		return
	}
	m.domains = make([]*domain, int(m.nextID)-1)
	n := r.Count("domain")
	prev := DomainID(0)
	for i := 0; i < n; i++ {
		d := &domain{id: DomainID(r.Uvarint())}
		if d.id <= prev || d.id >= m.nextID {
			r.Failf("domain %d out of order or range", d.id)
			return
		}
		prev = d.id
		d.areas = make([]area, r.Count("area"))
		for j := range d.areas {
			d.areas[j] = area{start: pagetable.VAddr(r.Uvarint()), length: r.Uvarint()}
		}
		tableID := pagetable.ReadTableID(r, numTables)
		d.asid = tlb.ReadASID(r)
		d.live = r.Bool()
		d.lastUse = r.Uvarint()
		if d.live {
			if tableID == -1 {
				r.Failf("live domain %d has no table", d.id)
				return
			}
			d.table = table(tableID)
			m.numLive++
		}
		m.domains[d.id-1] = d
	}
	n = r.Count("current")
	for i := 0; i < n; i++ {
		tid, dom := int(r.Varint()), DomainID(r.Uvarint())
		t := task(tid)
		if r.Err() == nil && tid != 0 && t == nil {
			r.Failf("unknown task %d entered domain %d", tid, dom)
			return
		}
		m.current[t] = dom
	}
	if m.maxTables = int(r.Varint()); m.maxTables < 1 {
		r.Failf("table cap %d", m.maxTables)
	}
	m.clock = r.Uvarint()
	m.Stats = Stats{
		Enters: r.Uvarint(), Exits: r.Uvarint(), Materializations: r.Uvarint(), Evictions: r.Uvarint(),
		SwitchCycles: r.Uvarint(), ShootdownCycles: r.Uvarint(), MgmtCycles: r.Uvarint(),
	}
}
