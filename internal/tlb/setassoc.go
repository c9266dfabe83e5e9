package tlb

// SetAssoc is a set-associative TLB: the VPN selects a set, and a small
// clock sweep replaces within the set's ways. Compared to the
// fully-associative TLB it models conflict misses — pathological strides
// evict hot translations even when capacity remains — which is the
// behaviour real second-level TLBs show under the PMO benchmark's random
// 2 MiB-strided accesses. It implements the same operations as TLB.
//
// An entry can only live in its VPN's set, so lookups, inserts and page
// flushes compare that set's ways, as the hardware does, and need no
// index.
type SetAssoc struct {
	sets  [][]slot
	ways  int
	hands []int
	n     int // valid slots
	stats Stats
}

// NewSetAssoc builds a TLB with the given number of sets and ways (total
// capacity = sets × ways). Sets must be a power of two.
func NewSetAssoc(sets, ways int) *SetAssoc {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic("tlb: sets must be a positive power of two and ways positive")
	}
	t := &SetAssoc{
		ways:  ways,
		sets:  make([][]slot, sets),
		hands: make([]int, sets),
	}
	for i := range t.sets {
		t.sets[i] = make([]slot, ways)
	}
	return t
}

// Capacity returns total entry slots.
func (t *SetAssoc) Capacity() int { return len(t.sets) * t.ways }

// Len returns the number of valid entries.
func (t *SetAssoc) Len() int { return t.n }

// Stats returns a copy of the event counters.
func (t *SetAssoc) Stats() Stats { return t.stats }

// ResetStats zeroes the counters.
func (t *SetAssoc) ResetStats() { t.stats = Stats{} }

func (t *SetAssoc) setOf(vpn uint64) int { return int(vpn) & (len(t.sets) - 1) }

// wayOf returns the way of set holding (asid, vpn), or -1.
func wayOf(set []slot, asid ASID, vpn uint64) int {
	for w := range set {
		if s := &set[w]; s.valid && s.entry.VPN == vpn && s.entry.ASID == asid {
			return w
		}
	}
	return -1
}

// Lookup searches for (asid, vpn).
func (t *SetAssoc) Lookup(asid ASID, vpn uint64) (Entry, bool) {
	set := t.sets[t.setOf(vpn)]
	if w := wayOf(set, asid, vpn); w >= 0 {
		set[w].referenced = true
		t.stats.Hits++
		return set[w].entry, true
	}
	t.stats.Misses++
	return Entry{}, false
}

// Insert caches a translation, evicting within the VPN's set if needed.
func (t *SetAssoc) Insert(e Entry) {
	t.stats.Inserts++
	s := t.setOf(e.VPN)
	set := t.sets[s]
	if w := wayOf(set, e.ASID, e.VPN); w >= 0 {
		set[w].entry = e
		set[w].referenced = true
		return
	}
	w := t.victimIn(s)
	if !set[w].valid {
		t.n++
	}
	set[w] = slot{entry: e, valid: true, referenced: true}
}

func (t *SetAssoc) victimIn(s int) int {
	set := t.sets[s]
	for {
		w := t.hands[s]
		t.hands[s] = (t.hands[s] + 1) % t.ways
		if !set[w].valid || !set[w].referenced {
			return w
		}
		set[w].referenced = false
	}
}

// FlushPage invalidates one page of one address space.
func (t *SetAssoc) FlushPage(asid ASID, vpn uint64) {
	t.stats.PageFlushes++
	t.drop(asid, vpn)
}

func (t *SetAssoc) drop(asid ASID, vpn uint64) {
	set := t.sets[t.setOf(vpn)]
	if w := wayOf(set, asid, vpn); w >= 0 {
		set[w] = slot{}
		t.n--
		t.stats.Invalidated++
	}
}

// FlushRange invalidates [startVPN, startVPN+pages) of one address space.
func (t *SetAssoc) FlushRange(asid ASID, startVPN, pages uint64) {
	t.stats.RangeFlushes++
	for vpn := startVPN; vpn < startVPN+pages; vpn++ {
		t.drop(asid, vpn)
	}
}

// FlushASID invalidates every entry of one address space.
func (t *SetAssoc) FlushASID(asid ASID) {
	t.stats.ASIDFlushes++
	for _, set := range t.sets {
		for w := range set {
			if set[w].valid && set[w].entry.ASID == asid {
				set[w] = slot{}
				t.n--
				t.stats.Invalidated++
			}
		}
	}
}

// FlushAll invalidates the whole TLB.
func (t *SetAssoc) FlushAll() {
	t.stats.FullFlushes++
	t.stats.Invalidated += uint64(t.n)
	for s := range t.sets {
		clear(t.sets[s])
		t.hands[s] = 0
	}
	t.n = 0
}

// Each calls fn for every valid entry, in set-then-way order
// (introspection for consistency auditors and tests).
func (t *SetAssoc) Each(fn func(Entry)) {
	for s := range t.sets {
		for w := range t.sets[s] {
			if t.sets[s][w].valid {
				fn(t.sets[s][w].entry)
			}
		}
	}
}

// CountASID returns resident entries tagged asid (introspection).
func (t *SetAssoc) CountASID(asid ASID) int {
	n := 0
	t.Each(func(e Entry) {
		if e.ASID == asid {
			n++
		}
	})
	return n
}
