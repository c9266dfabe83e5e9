package libmpk

import (
	"sort"

	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2). The section encodes the
// Snap fields in declaration order: unsigned values as uvarints, Go ints
// as zigzag varints, keys and permissions as one byte, and every slice as
// a count then its elements.

// maxSnapVkey caps the vkeys a snapshot may carry: the key table is
// dense up to the highest vkey, so a forged one would otherwise drive an
// unbounded allocation. It is far above any key count a run reaches.
const maxSnapVkey = 1 << 20

// AreaSnap is one serialized protected area.
type AreaSnap struct {
	Start  pagetable.VAddr
	Length uint64
}

// TaskPermSnap is one per-thread permission on a key (TID 0 = the nil
// task of direct mode).
type TaskPermSnap struct {
	TID  int
	Perm hw.Perm
}

// KeySnap is the serializable image of one virtual key's metadata.
type KeySnap struct {
	Vkey    Vkey
	Areas   []AreaSnap
	Pkey    pagetable.Pdom
	Mapped  bool
	Perms   []TaskPermSnap // ascending TID
	InUse   int
	LastUse uint64
}

// PkeySlotSnap is one hardware-key cache slot.
type PkeySlotSnap struct {
	Vkey Vkey
	Used bool
}

// Snap is the serializable image of a Manager.
type Snap struct {
	NextVkey Vkey
	Keys     []KeySnap // ascending Vkey
	Pkeys    []PkeySlotSnap
	Clock    uint64
	Mode     PageMode
	Stats    Stats
}

// Snap captures the manager's image. The busy-wait signal and cache lock
// are simulator plumbing, not state: an idle checkpoint has no waiters.
func (m *Manager) Snap() Snap {
	s := Snap{
		NextVkey: m.nextVkey,
		Clock:    m.clock,
		Mode:     m.mode,
		Stats:    m.Stats,
	}
	for vk, km := range m.keys {
		if km == nil {
			continue
		}
		ks := KeySnap{Vkey: Vkey(vk), Pkey: km.pkey, Mapped: km.mapped, InUse: km.inUse, LastUse: km.lastUse}
		for _, a := range km.areas {
			ks.Areas = append(ks.Areas, AreaSnap{Start: a.start, Length: a.length})
		}
		for t, p := range km.perms {
			ks.Perms = append(ks.Perms, TaskPermSnap{TID: tapTID(t), Perm: p})
		}
		sort.Slice(ks.Perms, func(i, j int) bool { return ks.Perms[i].TID < ks.Perms[j].TID })
		s.Keys = append(s.Keys, ks)
	}
	sort.Slice(s.Keys, func(i, j int) bool { return s.Keys[i].Vkey < s.Keys[j].Vkey })
	for _, slot := range m.pkeys {
		s.Pkeys = append(s.Pkeys, PkeySlotSnap{Vkey: slot.vkey, Used: slot.used})
	}
	return s
}

// LoadSnap restores a captured image onto a freshly attached manager; s
// must have passed Read's validation. task resolves TIDs to restored
// tasks (TID 0 must resolve to nil).
func (m *Manager) LoadSnap(s Snap, task func(tid int) *kernel.Task) {
	if len(m.keys) != 0 {
		panic("libmpk: LoadSnap on a non-fresh manager")
	}
	m.nextVkey = s.NextVkey
	m.clock = s.Clock
	m.mode = s.Mode
	m.Stats = s.Stats
	for _, ks := range s.Keys {
		km := &keyMeta{
			pkey:    ks.Pkey,
			mapped:  ks.Mapped,
			inUse:   ks.InUse,
			lastUse: ks.LastUse,
			perms:   make(map[*kernel.Task]hw.Perm, len(ks.Perms)),
		}
		for _, a := range ks.Areas {
			km.areas = append(km.areas, area{start: a.Start, length: a.Length})
		}
		for _, p := range ks.Perms {
			km.perms[task(p.TID)] = p.Perm
		}
		m.setKey(ks.Vkey, km)
	}
	for i, slot := range s.Pkeys {
		m.pkeys[i] = pkeySlot{vkey: slot.Vkey, used: slot.Used}
	}
}

// Append appends the snapshot's encoding.
func (s Snap) Append(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(s.NextVkey))
	b = wire.AppendUvarint(b, uint64(len(s.Keys)))
	for _, k := range s.Keys {
		b = wire.AppendUvarint(b, uint64(k.Vkey))
		b = wire.AppendUvarint(b, uint64(len(k.Areas)))
		for _, a := range k.Areas {
			b = wire.AppendUvarint(b, uint64(a.Start))
			b = wire.AppendUvarint(b, a.Length)
		}
		b = append(b, byte(k.Pkey))
		b = wire.AppendBool(b, k.Mapped)
		b = wire.AppendUvarint(b, uint64(len(k.Perms)))
		for _, p := range k.Perms {
			b = wire.AppendVarint(b, int64(p.TID))
			b = append(b, byte(p.Perm))
		}
		b = wire.AppendVarint(b, int64(k.InUse))
		b = wire.AppendUvarint(b, k.LastUse)
	}
	b = wire.AppendUvarint(b, uint64(len(s.Pkeys)))
	for _, p := range s.Pkeys {
		b = wire.AppendUvarint(b, uint64(p.Vkey))
		b = wire.AppendBool(b, p.Used)
	}
	b = wire.AppendUvarint(b, s.Clock)
	b = wire.AppendVarint(b, int64(s.Mode))
	st := s.Stats
	for _, v := range [...]uint64{st.Evictions, st.Shootdowns, st.BusyWaits,
		st.BusyWaitCycles, st.ShootdownCycles, st.MgmtCycles} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// Read decodes a snapshot Append wrote and validates it so that LoadSnap
// cannot fail: exactly numPkeys key-cache slots, strictly ascending vkeys
// below maxSnapVkey, a known page mode, and permission TIDs that are 0
// or resolve through task.
func (s *Snap) Read(r *wire.Reader, task func(tid int) *kernel.Task) {
	s.NextVkey = Vkey(r.Uvarint())
	s.Keys = make([]KeySnap, r.Count("key"))
	for i := range s.Keys {
		k := &s.Keys[i]
		k.Vkey = Vkey(r.Uvarint())
		if k.Vkey >= maxSnapVkey || i > 0 && k.Vkey <= s.Keys[i-1].Vkey {
			r.Failf("vkey %d out of order or range", k.Vkey)
			return
		}
		k.Areas = make([]AreaSnap, r.Count("area"))
		for j := range k.Areas {
			k.Areas[j] = AreaSnap{Start: pagetable.VAddr(r.Uvarint()), Length: r.Uvarint()}
		}
		k.Pkey = pagetable.Pdom(r.Byte())
		k.Mapped = r.Bool()
		k.Perms = make([]TaskPermSnap, r.Count("perm"))
		for j := range k.Perms {
			p := TaskPermSnap{TID: int(r.Varint()), Perm: hw.Perm(r.Byte())}
			if r.Err() == nil && p.TID != 0 && task(p.TID) == nil {
				r.Failf("vkey %d permission of unknown task %d", k.Vkey, p.TID)
			}
			k.Perms[j] = p
		}
		k.InUse = int(r.Varint())
		k.LastUse = r.Uvarint()
	}
	if n := r.Count("pkey slot"); n != numPkeys {
		r.Failf("%d pkey slots, want %d", n, numPkeys)
		return
	}
	s.Pkeys = make([]PkeySlotSnap, numPkeys)
	for i := range s.Pkeys {
		s.Pkeys[i] = PkeySlotSnap{Vkey: Vkey(r.Uvarint()), Used: r.Bool()}
	}
	s.Clock = r.Uvarint()
	if s.Mode = PageMode(r.Varint()); s.Mode != Page4K && s.Mode != Huge2M {
		r.Failf("page mode %d", s.Mode)
	}
	s.Stats = Stats{
		Evictions: r.Uvarint(), Shootdowns: r.Uvarint(), BusyWaits: r.Uvarint(),
		BusyWaitCycles: r.Uvarint(), ShootdownCycles: r.Uvarint(), MgmtCycles: r.Uvarint(),
	}
}
