package tlb

import (
	"math"

	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2). A TLB snapshot keeps
// the exact slot layout — valid holes, reference bits, and the clock
// hand(s) — so that victim selection, and therefore every future
// hit/miss, is bit-identical after restore. The image is encoded
// straight from the live slots, with no intermediate copy.
//
// Each slot is one flag byte (slotValid, slotReferenced, slotWritable,
// slotEntry) followed, only when slotEntry is set, by the entry's ASID,
// VPN, frame (uvarints) and pdom (one byte). A cold slot costs one byte.

const (
	slotValid = 1 << iota
	slotReferenced
	slotWritable
	slotEntry
	slotFlagMask = slotValid | slotReferenced | slotWritable | slotEntry
)

func appendSlot(b []byte, s slot) []byte {
	var f byte
	if s.valid {
		f |= slotValid
	}
	if s.referenced {
		f |= slotReferenced
	}
	e := s.entry
	if e.Writable {
		f |= slotWritable
	}
	if e.ASID == 0 && e.VPN == 0 && e.Frame == 0 && e.Pdom == 0 {
		return append(b, f)
	}
	b = append(b, f|slotEntry)
	b = wire.AppendUvarint(b, uint64(e.ASID))
	b = wire.AppendUvarint(b, e.VPN)
	b = wire.AppendUvarint(b, uint64(e.Frame))
	return append(b, byte(e.Pdom))
}

func readSlot(r *wire.Reader) slot {
	f := r.Byte()
	if f&^slotFlagMask != 0 {
		r.Failf("tlb slot flags %#x", f)
		return slot{}
	}
	s := slot{valid: f&slotValid != 0, referenced: f&slotReferenced != 0}
	s.entry.Writable = f&slotWritable != 0
	if f&slotEntry != 0 {
		s.entry.ASID = ReadASID(r)
		s.entry.VPN = r.Uvarint()
		s.entry.Frame = pagetable.Frame(r.Uvarint())
		s.entry.Pdom = pagetable.Pdom(r.Byte())
	}
	return s
}

// ReadASID reads an ASID written as a uvarint; a value beyond the 16-bit
// ASID space fails the reader.
func ReadASID(r *wire.Reader) ASID {
	v := r.Uvarint()
	if v > math.MaxUint16 {
		r.Failf("asid %d out of range", v)
	}
	return ASID(v)
}

func appendStats(b []byte, s Stats) []byte {
	for _, v := range [...]uint64{s.Hits, s.Misses, s.Inserts, s.PageFlushes,
		s.ASIDFlushes, s.FullFlushes, s.RangeFlushes, s.Invalidated} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

func readStats(r *wire.Reader) Stats {
	return Stats{
		Hits:         r.Uvarint(),
		Misses:       r.Uvarint(),
		Inserts:      r.Uvarint(),
		PageFlushes:  r.Uvarint(),
		ASIDFlushes:  r.Uvarint(),
		FullFlushes:  r.Uvarint(),
		RangeFlushes: r.Uvarint(),
		Invalidated:  r.Uvarint(),
	}
}

// AppendState appends the TLB's image: capacity, clock hand, the
// materialized slot prefix (trailing never-used slots are implied, as in
// the live array), and the stats.
func (t *TLB) AppendState(b []byte) []byte {
	n := len(t.slots)
	for n > 0 && t.slots[n-1] == (slot{}) {
		n--
	}
	b = wire.AppendUvarint(b, uint64(t.capacity))
	b = wire.AppendUvarint(b, uint64(t.hand))
	b = wire.AppendUvarint(b, uint64(n))
	for _, s := range t.slots[:n] {
		b = appendSlot(b, s)
	}
	return appendStats(b, t.stats)
}

// ReadState overwrites the TLB in place with an image AppendState wrote,
// then rebuilds the index and the per-ASID lists from the decoded slots.
// A capacity or hand that does not fit this TLB, or two valid slots
// holding the same (ASID, VPN), fails the reader. The lookup memo
// restores to the unset state, which is behaviorally transparent (its hit
// path has the exact side effects of an indexed hit).
func (t *TLB) ReadState(r *wire.Reader) {
	if c := r.Uvarint(); c != uint64(t.capacity) {
		r.Failf("tlb capacity %d, booted %d", c, t.capacity)
		return
	}
	hand := r.Uvarint()
	n := r.Count("tlb slot")
	if hand >= uint64(t.capacity) || n > t.capacity {
		r.Failf("tlb hand %d or %d slots beyond capacity %d", hand, n, t.capacity)
		return
	}
	if cap(t.slots) >= n {
		t.slots = t.slots[:n]
	} else {
		t.slots = make([]slot, n)
	}
	for i := range t.slots {
		t.slots[i] = readSlot(r)
	}
	t.hand = int(hand)
	t.stats = readStats(r)
	t.lastIdx = -1

	clear(t.index)
	clear(t.heads)
	clear(t.counts)
	t.n = 0
	for i := range t.slots {
		if !t.slots[i].valid {
			continue
		}
		e := t.slots[i].entry
		if t.find(e.ASID, e.VPN) >= 0 {
			r.Failf("tlb slot %d duplicates asid %d vpn %#x", i, e.ASID, e.VPN)
			return
		}
		t.add(i)
	}
}

// AppendState appends the set-associative TLB's image: geometry, the
// per-set clock hands, every slot set-major, and the stats.
func (t *SetAssoc) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(t.sets)))
	b = wire.AppendUvarint(b, uint64(t.ways))
	for _, h := range t.hands {
		b = wire.AppendUvarint(b, uint64(h))
	}
	for s := range t.sets {
		for _, sl := range t.sets[s] {
			b = appendSlot(b, sl)
		}
	}
	return appendStats(b, t.stats)
}

// ReadState overwrites the set-associative TLB in place with an image
// AppendState wrote. A geometry (sets × ways) or hand that does not fit
// this TLB fails the reader, and so does a valid slot outside its VPN's
// set or two valid slots holding the same (ASID, VPN).
func (t *SetAssoc) ReadState(r *wire.Reader) {
	sets, ways := r.Uvarint(), r.Uvarint()
	if sets != uint64(len(t.sets)) || ways != uint64(t.ways) {
		r.Failf("tlb geometry %d×%d, booted %d×%d", sets, ways, len(t.sets), t.ways)
		return
	}
	for s := range t.hands {
		h := r.Uvarint()
		if h >= ways {
			r.Failf("tlb set %d hand %d beyond %d ways", s, h, ways)
			return
		}
		t.hands[s] = int(h)
	}
	t.n = 0
	for s := range t.sets {
		set := t.sets[s]
		for w := range set {
			set[w] = readSlot(r)
			if !set[w].valid {
				continue
			}
			e := set[w].entry
			if t.setOf(e.VPN) != s {
				r.Failf("tlb set %d holds vpn %#x of set %d", s, e.VPN, t.setOf(e.VPN))
				return
			}
			if wayOf(set[:w], e.ASID, e.VPN) >= 0 {
				r.Failf("tlb set %d way %d duplicates asid %d vpn %#x", s, w, e.ASID, e.VPN)
				return
			}
			t.n++
		}
	}
	t.stats = readStats(r)
}
