// Package tlb models a per-core, ASID-tagged translation lookaside buffer.
//
// ASID tagging is what lets VDom switch page global directories without
// flushing: entries of the previous address space stay resident under their
// own tag and become live again when the core switches back. The model is a
// capacity-bounded cache with clock (second-chance) replacement — enough to
// reproduce the miss behaviour that separates VDom from VM-based and
// shootdown-based approaches, while staying deterministic.
//
// The fully-associative TLB finds an entry through a pointer-free
// open-addressed index and keeps each ASID's resident entries on an
// intrusive list, so a per-ASID flush (VDom's vdom eviction, DPTI's
// domain switch) visits only that ASID's entries. Neither structure is
// observable: hits, misses, victims, stats, Each order and the snapshot
// image depend on the slot array alone.
package tlb

import (
	"math/bits"

	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// ASID is an address-space identifier (PCID on x86).
type ASID uint16

// Entry is one cached translation.
type Entry struct {
	ASID  ASID
	VPN   uint64
	Frame pagetable.Frame
	// Pdom is the memory-domain tag cached with the translation; the
	// permission-register check happens on every access, even on hits.
	Pdom     pagetable.Pdom
	Writable bool
}

type slot struct {
	entry      Entry
	valid      bool
	referenced bool
	// prev and next link a valid slot into its ASID's resident list, as
	// slot+1 (0 ends the list). Only TLB uses them; they are never
	// encoded, and an invalid slot has both at zero.
	prev, next int32
}

// Stats counts TLB events since the last ResetStats.
type Stats struct {
	Hits         uint64
	Misses       uint64
	Inserts      uint64
	PageFlushes  uint64
	ASIDFlushes  uint64
	FullFlushes  uint64
	RangeFlushes uint64
	Invalidated  uint64 // entries removed by any flush
}

// Add accumulates another core's stats into s, for machine-wide totals.
func (s *Stats) Add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Inserts += o.Inserts
	s.PageFlushes += o.PageFlushes
	s.ASIDFlushes += o.ASIDFlushes
	s.FullFlushes += o.FullFlushes
	s.RangeFlushes += o.RangeFlushes
	s.Invalidated += o.Invalidated
}

// Emit publishes the stats as named metrics counters under the tlb/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("tlb/hits", s.Hits)
	emit("tlb/misses", s.Misses)
	emit("tlb/inserts", s.Inserts)
	emit("tlb/flush-page", s.PageFlushes)
	emit("tlb/flush-asid", s.ASIDFlushes)
	emit("tlb/flush-full", s.FullFlushes)
	emit("tlb/flush-range", s.RangeFlushes)
	emit("tlb/invalidated", s.Invalidated)
}

// TLB is one core's translation cache.
type TLB struct {
	// slots materializes lazily, only as far as the clock hand has
	// reached (see victim), and index on the first insert. A machine's
	// worth of cold TLBs then costs almost nothing to construct, and a
	// lightly used one stays small — which the short-lived systems replay
	// and the perf harness build in bulk rely on.
	slots    []slot
	capacity int
	hand     int
	stats    Stats
	n        int // valid slots

	// index maps (ASID, VPN) to its slot by linear probing. A bucket
	// holds slot+1, 0 when empty; the key is the slot's own entry, so
	// the table stores no keys and no pointers. Its length is a power of
	// two (64 at first, doubled to keep the load at most ½), shift is
	// 64 - log2(len), and deletion shifts back rather than leaving
	// tombstones. A nil index is an empty one.
	index []int32
	shift uint8

	// lastIdx memoizes the slot of the most recent hit (-1 when unset), a
	// host-side fast path that skips the index probe when the same page is
	// hit repeatedly. The memo self-validates against the slot's live
	// content — flushes invalidate the slot and evictions overwrite it, so
	// a stale memo simply fails the content check — and its hit path
	// performs the exact side effects of an indexed hit (reference bit,
	// Hits counter), keeping clock replacement and stats bit-identical.
	lastIdx int

	// heads and counts are dense per-ASID arrays, grown on demand:
	// heads[a] is the first slot+1 of a's resident list and counts[a]
	// its length. FlushASID walks the list, so it costs the ASID's own
	// entries rather than the capacity, and returns at once for a
	// dormant ASID.
	heads  []int32
	counts []uint32
}

// DefaultCapacity approximates a unified second-level TLB.
const DefaultCapacity = 1536

// New returns a TLB with the given entry capacity.
func New(capacity int) *TLB {
	if capacity <= 0 {
		panic("tlb: capacity must be positive")
	}
	return &TLB{
		capacity: capacity,
		lastIdx:  -1,
	}
}

// Capacity returns the number of entry slots.
func (t *TLB) Capacity() int { return t.capacity }

// Len returns the number of valid entries.
func (t *TLB) Len() int { return t.n }

// Stats returns a copy of the event counters.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the event counters.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Lookup searches for (asid, vpn). A hit refreshes the entry's reference
// bit.
func (t *TLB) Lookup(asid ASID, vpn uint64) (Entry, bool) {
	if i := t.lastIdx; i >= 0 {
		if s := &t.slots[i]; s.valid && s.entry.ASID == asid && s.entry.VPN == vpn {
			s.referenced = true
			t.stats.Hits++
			return s.entry, true
		}
	}
	if i := t.find(asid, vpn); i >= 0 {
		t.slots[i].referenced = true
		t.stats.Hits++
		t.lastIdx = i
		return t.slots[i].entry, true
	}
	t.stats.Misses++
	return Entry{}, false
}

// Insert caches a translation, evicting by clock replacement if full. An
// existing entry for the same (asid, vpn) is overwritten in place.
func (t *TLB) Insert(e Entry) {
	t.stats.Inserts++
	if i := t.find(e.ASID, e.VPN); i >= 0 {
		t.slots[i].entry = e
		t.slots[i].referenced = true
		return
	}
	i := t.victim()
	if t.slots[i].valid {
		t.remove(i)
	}
	t.slots[i] = slot{entry: e, valid: true, referenced: true}
	t.add(i)
}

// bucket is the home bucket of (asid, vpn): the top bits of a
// multiplicative (Fibonacci) hash.
func (t *TLB) bucket(asid ASID, vpn uint64) int {
	return int((vpn ^ uint64(asid)<<48) * 0x9e3779b97f4a7c15 >> t.shift)
}

// find returns the slot holding (asid, vpn), or -1.
func (t *TLB) find(asid ASID, vpn uint64) int {
	if t.index == nil {
		return -1
	}
	mask := len(t.index) - 1
	for b := t.bucket(asid, vpn); ; b = (b + 1) & mask {
		v := t.index[b]
		if v == 0 {
			return -1
		}
		if e := &t.slots[v-1].entry; e.VPN == vpn && e.ASID == asid {
			return int(v - 1)
		}
	}
}

// add indexes the valid slot i, whose key is not resident yet, and
// pushes it onto its ASID's list.
func (t *TLB) add(i int) {
	if 2*(t.n+1) > len(t.index) {
		t.rehash(max(64, 2*len(t.index)))
	}
	t.n++
	t.place(int32(i + 1))

	s := &t.slots[i]
	a := s.entry.ASID
	for int(a) >= len(t.counts) {
		t.heads = append(t.heads, 0)
		t.counts = append(t.counts, 0)
	}
	if h := t.heads[a]; h != 0 {
		t.slots[h-1].prev = int32(i + 1)
		s.next = h
	}
	t.heads[a] = int32(i + 1)
	t.counts[a]++
}

// place puts slot+1 v into the first free bucket of its probe sequence.
func (t *TLB) place(v int32) {
	mask := len(t.index) - 1
	e := &t.slots[v-1].entry
	b := t.bucket(e.ASID, e.VPN)
	for t.index[b] != 0 {
		b = (b + 1) & mask
	}
	t.index[b] = v
}

// rehash replaces the index with an empty one of size buckets (a power of
// two) and re-places every entry the old one held.
func (t *TLB) rehash(size int) {
	old := t.index
	t.index = make([]int32, size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for _, v := range old {
		if v != 0 {
			t.place(v)
		}
	}
}

// remove invalidates the valid slot i: it unindexes the slot, unlinks
// it from its ASID's list, and zeroes it.
func (t *TLB) remove(i int) {
	s := &t.slots[i]
	a := s.entry.ASID

	mask := len(t.index) - 1
	hole := t.bucket(a, s.entry.VPN)
	for t.index[hole] != int32(i+1) {
		hole = (hole + 1) & mask
	}
	// Backward-shift deletion: pull each later entry of the probe run
	// into the hole unless its home bucket lies cyclically in (hole, j].
	for j := (hole + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		v := t.index[j]
		e := &t.slots[v-1].entry
		if (j-t.bucket(e.ASID, e.VPN))&mask >= (j-hole)&mask {
			t.index[hole] = v
			hole = j
		}
	}
	t.index[hole] = 0
	t.n--

	if s.prev != 0 {
		t.slots[s.prev-1].next = s.next
	} else {
		t.heads[a] = s.next
	}
	if s.next != 0 {
		t.slots[s.next-1].prev = s.prev
	}
	t.counts[a]--
	*s = slot{}
}

// victim finds a free slot or evicts via the clock algorithm. The hand
// walks the full configured capacity; a position beyond the materialized
// slot array is by definition an invalid (never-used) slot, so the array
// grows only as far as the clock has actually reached — bit-identical to
// walking a fully allocated array of zero slots, at a fraction of the
// boot cost for the mostly-empty TLBs replay and the perf harness build
// in bulk.
func (t *TLB) victim() int {
	for {
		i := t.hand
		t.hand++
		if t.hand == t.capacity {
			t.hand = 0
		}
		if i >= len(t.slots) {
			for len(t.slots) <= i {
				t.slots = append(t.slots, slot{})
			}
			return i
		}
		s := &t.slots[i]
		if !s.valid {
			return i
		}
		if !s.referenced {
			return i
		}
		s.referenced = false
	}
}

// FlushPage invalidates one page of one address space (invlpg/TLBIMVA).
func (t *TLB) FlushPage(asid ASID, vpn uint64) {
	t.stats.PageFlushes++
	if i := t.find(asid, vpn); i >= 0 {
		t.remove(i)
		t.stats.Invalidated++
	}
}

// FlushRange invalidates [startVPN, startVPN+pages) of one address space,
// modelling the range-flush instructions §5.5 leans on. The probe loop
// stops once the ASID has no entries left.
func (t *TLB) FlushRange(asid ASID, startVPN, pages uint64) {
	t.stats.RangeFlushes++
	for vpn := startVPN; vpn < startVPN+pages && t.CountASID(asid) > 0; vpn++ {
		if i := t.find(asid, vpn); i >= 0 {
			t.remove(i)
			t.stats.Invalidated++
		}
	}
}

// FlushASID invalidates every entry of one address space by walking the
// ASID's resident list: the set of entries removed, and so every counter,
// is the same as a scan of every slot would give.
func (t *TLB) FlushASID(asid ASID) {
	t.stats.ASIDFlushes++
	if int(asid) >= len(t.heads) {
		return
	}
	for t.heads[asid] != 0 {
		t.remove(int(t.heads[asid] - 1))
		t.stats.Invalidated++
	}
}

// FlushAll invalidates the whole TLB. The slot array, index and per-ASID
// arrays are cleared in place and kept for reuse.
func (t *TLB) FlushAll() {
	t.stats.FullFlushes++
	t.stats.Invalidated += uint64(t.n)
	clear(t.slots)
	clear(t.index)
	clear(t.heads)
	clear(t.counts)
	t.n = 0
	t.hand = 0
}

// Each calls fn for every valid entry, in slot order. It is an
// introspection helper for consistency auditors and tests, not a hardware
// operation.
func (t *TLB) Each(fn func(Entry)) {
	for i := range t.slots {
		if t.slots[i].valid {
			fn(t.slots[i].entry)
		}
	}
}

// CountASID returns the number of resident entries tagged with asid.
// It is an introspection helper for tests and experiments, not a hardware
// operation.
func (t *TLB) CountASID(asid ASID) int {
	if int(asid) >= len(t.counts) {
		return 0
	}
	return int(t.counts[asid])
}

// Cache is the operation set common to the TLB organizations (fully
// associative with global clock, or set-associative). Hardware cores and
// kernel flush paths operate through it.
type Cache interface {
	Lookup(asid ASID, vpn uint64) (Entry, bool)
	Insert(e Entry)
	FlushPage(asid ASID, vpn uint64)
	FlushRange(asid ASID, startVPN, pages uint64)
	FlushASID(asid ASID)
	FlushAll()
	Len() int
	Capacity() int
	Stats() Stats
	ResetStats()
	CountASID(asid ASID) int
	Each(fn func(Entry))
	// AppendState and ReadState encode and restore the cache image for
	// the checkpoint subsystem (see internal/snapshot). Interposers that
	// embed a Cache inherit them, so snapshots see through wrappers to
	// the underlying hardware state.
	AppendState(b []byte) []byte
	ReadState(r *wire.Reader)
}

var (
	_ Cache = (*TLB)(nil)
	_ Cache = (*SetAssoc)(nil)
)
