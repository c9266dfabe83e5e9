package libmpk

import (
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2), encoded straight from
// the live structures. The section is the next vkey; the live keys in
// ascending vkey order, each with its areas, hardware key, mapped flag,
// per-thread permissions (ascending TID, 0 = the nil task of direct
// mode), in-use count and last use; the 16 hardware-key cache slots; the
// LRU clock; the page mode; and the Stats counters. Unsigned values are
// uvarints, Go ints zigzag varints, keys and permissions one byte, and
// every collection a count then its elements. The busy-wait signal and
// cache lock are simulator plumbing, not state: an idle checkpoint has
// no waiters.

// maxSnapVkey caps the vkeys a snapshot may carry: the key table is
// dense up to the highest vkey, so a forged one would otherwise drive an
// unbounded allocation. It is far above any key count a run reaches.
const maxSnapVkey = 1 << 20

// AppendState appends the manager's image.
func (m *Manager) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.nextVkey))
	n := 0
	for _, km := range m.keys {
		if km != nil {
			n++
		}
	}
	b = wire.AppendUvarint(b, uint64(n))
	for vk, km := range m.keys {
		if km == nil {
			continue
		}
		b = wire.AppendUvarint(b, uint64(vk))
		b = wire.AppendUvarint(b, uint64(len(km.areas)))
		for _, a := range km.areas {
			b = wire.AppendUvarint(b, uint64(a.start))
			b = wire.AppendUvarint(b, a.length)
		}
		b = append(b, byte(km.pkey))
		b = wire.AppendBool(b, km.mapped)
		b = wire.AppendUvarint(b, uint64(len(km.perms)))
		for _, t := range kernel.TasksByTID(km.perms) {
			b = wire.AppendVarint(b, int64(kernel.TIDOf(t)))
			b = append(b, byte(km.perms[t]))
		}
		b = wire.AppendVarint(b, int64(km.inUse))
		b = wire.AppendUvarint(b, km.lastUse)
	}
	b = wire.AppendUvarint(b, uint64(len(m.pkeys)))
	for _, slot := range m.pkeys {
		b = wire.AppendUvarint(b, uint64(slot.vkey))
		b = wire.AppendBool(b, slot.used)
	}
	b = wire.AppendUvarint(b, m.clock)
	b = wire.AppendVarint(b, int64(m.mode))
	st := m.Stats
	for _, v := range [...]uint64{st.Evictions, st.Shootdowns, st.BusyWaits,
		st.BusyWaitCycles, st.ShootdownCycles, st.MgmtCycles} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// ReadState restores an image AppendState wrote onto a freshly attached
// manager. task resolves TIDs to restored tasks (TID 0 must resolve to
// nil). Vkeys must be strictly ascending below maxSnapVkey, permission
// TIDs 0 or resolvable through task, the key cache exactly numPkeys
// slots, and the page mode known; any other image fails the reader
// before the offending value is used.
func (m *Manager) ReadState(r *wire.Reader, task func(tid int) *kernel.Task) {
	if len(m.keys) != 0 {
		panic("libmpk: ReadState on a non-fresh manager")
	}
	m.nextVkey = Vkey(r.Uvarint())
	n := r.Count("key")
	for i := 0; i < n; i++ {
		vk := Vkey(r.Uvarint())
		if vk >= maxSnapVkey || int(vk) < len(m.keys) {
			r.Failf("vkey %d out of order or range", vk)
			return
		}
		km := &keyMeta{areas: make([]area, r.Count("area"))}
		for j := range km.areas {
			km.areas[j] = area{start: pagetable.VAddr(r.Uvarint()), length: r.Uvarint()}
		}
		km.pkey = pagetable.Pdom(r.Byte())
		km.mapped = r.Bool()
		perms := r.Count("perm")
		km.perms = make(map[*kernel.Task]hw.Perm, perms)
		for j := 0; j < perms; j++ {
			tid, p := int(r.Varint()), hw.Perm(r.Byte())
			t := task(tid)
			if r.Err() == nil && tid != 0 && t == nil {
				r.Failf("vkey %d permission of unknown task %d", vk, tid)
				return
			}
			km.perms[t] = p
		}
		km.inUse = int(r.Varint())
		km.lastUse = r.Uvarint()
		m.setKey(vk, km)
	}
	if n := r.Count("pkey slot"); n != numPkeys {
		r.Failf("%d pkey slots, want %d", n, numPkeys)
		return
	}
	for i := range m.pkeys {
		m.pkeys[i] = pkeySlot{vkey: Vkey(r.Uvarint()), used: r.Bool()}
	}
	m.clock = r.Uvarint()
	if m.mode = PageMode(r.Varint()); m.mode != Page4K && m.mode != Huge2M {
		r.Failf("page mode %d", m.mode)
	}
	m.Stats = Stats{
		Evictions: r.Uvarint(), Shootdowns: r.Uvarint(), BusyWaits: r.Uvarint(),
		BusyWaitCycles: r.Uvarint(), ShootdownCycles: r.Uvarint(), MgmtCycles: r.Uvarint(),
	}
}
