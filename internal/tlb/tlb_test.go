package tlb

import (
	"testing"
	"testing/quick"
)

func mk(asid ASID, vpn uint64) Entry {
	return Entry{ASID: asid, VPN: vpn, Frame: 100, Pdom: 2, Writable: true}
}

func TestInsertLookup(t *testing.T) {
	c := New(16)
	c.Insert(mk(1, 0x40))
	e, ok := c.Lookup(1, 0x40)
	if !ok {
		t.Fatal("miss after insert")
	}
	if e.Frame != 100 || e.Pdom != 2 || !e.Writable {
		t.Errorf("entry = %+v", e)
	}
	if _, ok := c.Lookup(2, 0x40); ok {
		t.Error("hit under wrong ASID")
	}
	if _, ok := c.Lookup(1, 0x41); ok {
		t.Error("hit on wrong VPN")
	}
}

func TestASIDSeparation(t *testing.T) {
	c := New(16)
	c.Insert(Entry{ASID: 1, VPN: 5, Frame: 10})
	c.Insert(Entry{ASID: 2, VPN: 5, Frame: 20})
	e1, _ := c.Lookup(1, 5)
	e2, _ := c.Lookup(2, 5)
	if e1.Frame != 10 || e2.Frame != 20 {
		t.Errorf("frames = %d, %d; want 10, 20", e1.Frame, e2.Frame)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New(4)
	c.Insert(Entry{ASID: 1, VPN: 7, Frame: 1})
	c.Insert(Entry{ASID: 1, VPN: 7, Frame: 2})
	if c.Len() != 1 {
		t.Errorf("Len = %d after overwrite, want 1", c.Len())
	}
	e, _ := c.Lookup(1, 7)
	if e.Frame != 2 {
		t.Errorf("frame = %d, want 2", e.Frame)
	}
}

func TestCapacityEviction(t *testing.T) {
	c := New(8)
	for vpn := uint64(0); vpn < 20; vpn++ {
		c.Insert(mk(1, vpn))
	}
	if c.Len() != 8 {
		t.Errorf("Len = %d, want capacity 8", c.Len())
	}
}

func TestClockKeepsReferencedEntries(t *testing.T) {
	c := New(4)
	for vpn := uint64(0); vpn < 4; vpn++ {
		c.Insert(mk(1, vpn))
	}
	// All four entries are referenced, so this insert sweeps the clock
	// hand across the whole cache (clearing reference bits) and evicts
	// the first slot.
	c.Insert(mk(1, 100))
	if _, ok := c.Lookup(1, 0); ok {
		t.Error("expected vpn 0 to be the clock victim")
	}
	// Re-reference vpn 2; the next insert must pick the first
	// unreferenced entry (vpn 1) and spare the re-referenced one.
	c.Lookup(1, 2)
	c.Insert(mk(1, 101))
	if _, ok := c.Lookup(1, 1); ok {
		t.Error("expected vpn 1 to be evicted")
	}
	if _, ok := c.Lookup(1, 2); !ok {
		t.Error("recently referenced entry was evicted while unreferenced entries existed")
	}
}

func TestFlushPage(t *testing.T) {
	c := New(16)
	c.Insert(mk(1, 5))
	c.Insert(mk(1, 6))
	c.FlushPage(1, 5)
	if _, ok := c.Lookup(1, 5); ok {
		t.Error("flushed page still resident")
	}
	if _, ok := c.Lookup(1, 6); !ok {
		t.Error("unrelated page flushed")
	}
}

func TestFlushRange(t *testing.T) {
	c := New(64)
	for vpn := uint64(0); vpn < 32; vpn++ {
		c.Insert(mk(1, vpn))
		c.Insert(mk(2, vpn))
	}
	c.FlushRange(1, 8, 16)
	for vpn := uint64(0); vpn < 32; vpn++ {
		_, ok := c.Lookup(1, vpn)
		inRange := vpn >= 8 && vpn < 24
		if inRange && ok {
			t.Fatalf("vpn %d in flushed range still resident", vpn)
		}
		if !inRange && !ok {
			t.Fatalf("vpn %d outside range was flushed", vpn)
		}
		if _, ok := c.Lookup(2, vpn); !ok {
			t.Fatalf("ASID 2 vpn %d flushed by ASID 1 range flush", vpn)
		}
	}
}

func TestFlushASID(t *testing.T) {
	c := New(64)
	for vpn := uint64(0); vpn < 10; vpn++ {
		c.Insert(mk(3, vpn))
		c.Insert(mk(4, vpn))
	}
	c.FlushASID(3)
	if c.CountASID(3) != 0 {
		t.Errorf("ASID 3 count = %d after flush", c.CountASID(3))
	}
	if c.CountASID(4) != 10 {
		t.Errorf("ASID 4 count = %d, want 10", c.CountASID(4))
	}
}

func TestFlushAll(t *testing.T) {
	c := New(32)
	for vpn := uint64(0); vpn < 10; vpn++ {
		c.Insert(mk(1, vpn))
	}
	c.FlushAll()
	if c.Len() != 0 {
		t.Errorf("Len = %d after FlushAll", c.Len())
	}
	// Table remains usable.
	c.Insert(mk(1, 99))
	if _, ok := c.Lookup(1, 99); !ok {
		t.Error("insert after FlushAll failed")
	}
}

func TestStats(t *testing.T) {
	c := New(16)
	c.Insert(mk(1, 1))
	c.Lookup(1, 1) // hit
	c.Lookup(1, 2) // miss
	c.FlushPage(1, 1)
	c.FlushASID(1)
	c.FlushAll()
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Inserts != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.PageFlushes != 1 || s.ASIDFlushes != 1 || s.FullFlushes != 1 {
		t.Errorf("flush stats = %+v", s)
	}
	if s.Invalidated != 1 {
		t.Errorf("Invalidated = %d, want 1 (page flush removed the only entry)", s.Invalidated)
	}
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero stats")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// Property: Len never exceeds capacity and index/slots stay consistent
// under random operation sequences.
func TestLenBoundedProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		c := New(16)
		for _, op := range ops {
			asid := ASID(op % 4)
			vpn := uint64(op % 64)
			switch op % 5 {
			case 0, 1:
				c.Insert(mk(asid, vpn))
			case 2:
				c.Lookup(asid, vpn)
			case 3:
				c.FlushPage(asid, vpn)
			case 4:
				c.FlushASID(asid)
			}
			if c.Len() > c.Capacity() {
				return false
			}
		}
		// Every indexed entry must be resident and agree on its key.
		for asid := ASID(0); asid < 4; asid++ {
			for vpn := uint64(0); vpn < 64; vpn++ {
				if e, ok := c.Lookup(asid, vpn); ok {
					if e.ASID != asid || e.VPN != vpn {
						return false
					}
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: after FlushASID(a), no entry under a survives, and entries of
// other ASIDs are untouched.
func TestFlushASIDProperty(t *testing.T) {
	if err := quick.Check(func(vpns []uint8, target uint8) bool {
		c := New(256)
		a := ASID(target % 4)
		for _, v := range vpns {
			c.Insert(mk(ASID(v%4), uint64(v)))
		}
		before := map[ASID]int{}
		for x := ASID(0); x < 4; x++ {
			before[x] = countEach(c, x)
		}
		c.FlushASID(a)
		if countEach(c, a) != 0 || c.CountASID(a) != 0 {
			return false
		}
		for x := ASID(0); x < 4; x++ {
			if x != a && (countEach(c, x) != before[x] || c.CountASID(x) != before[x]) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestLookupMemoStaleness exercises the last-hit memo's self-validation:
// after the memoized slot is flushed, evicted, or reused for a different
// key, a lookup must fall back to the index and never return stale data.
func TestLookupMemoStaleness(t *testing.T) {
	tl := New(2)
	e1 := Entry{ASID: 1, VPN: 10, Frame: 100}
	e2 := Entry{ASID: 1, VPN: 20, Frame: 200}
	tl.Insert(e1)
	if got, ok := tl.Lookup(1, 10); !ok || got != e1 {
		t.Fatalf("warm lookup = %+v, %v", got, ok)
	}

	// Flush the memoized page: the memo's slot is invalid now.
	tl.FlushPage(1, 10)
	if _, ok := tl.Lookup(1, 10); ok {
		t.Fatal("lookup hit a flushed page via the memo")
	}

	// Reuse the memoized slot for a different translation: content check
	// must reject the memo and the index must resolve the new key.
	tl.Insert(e2)
	if got, ok := tl.Lookup(1, 20); !ok || got != e2 {
		t.Fatalf("lookup after slot reuse = %+v, %v", got, ok)
	}
	if _, ok := tl.Lookup(1, 10); ok {
		t.Fatal("stale key still resolves")
	}

	// FlushAll clears every slot; the memo must not resurrect anything.
	tl.Insert(e1)
	tl.Lookup(1, 10)
	tl.FlushAll()
	if _, ok := tl.Lookup(1, 10); ok {
		t.Fatal("lookup hit after FlushAll")
	}
}

// TestLookupMemoSideEffects: a memo hit must be indistinguishable from an
// indexed hit — same Hits counter, same reference-bit refresh (observable
// through clock replacement ordering).
func TestLookupMemoSideEffects(t *testing.T) {
	tl := New(2)
	tl.Insert(Entry{ASID: 1, VPN: 1})
	tl.Insert(Entry{ASID: 1, VPN: 2})
	// Two consecutive hits on VPN 1: the second goes through the memo.
	tl.Lookup(1, 1)
	tl.Lookup(1, 1)
	if s := tl.Stats(); s.Hits != 2 {
		t.Fatalf("Hits = %d, want 2", s.Hits)
	}
	// Both slots referenced → clock sweeps hand over slot 0 (clearing its
	// bit), then slot 1, then evicts slot 0. The memo hit on VPN 1 must
	// have set the reference bit for this to hold.
	tl.Insert(Entry{ASID: 1, VPN: 3})
	if _, ok := tl.Lookup(1, 2); !ok {
		t.Error("VPN 2 evicted; memo hit failed to set reference bit ordering")
	}
}

// TestWarmOpsAllocFree pins the hot operations of a warm, full TLB to
// zero allocations: the index and the per-ASID lists live in
// preallocated arrays.
func TestWarmOpsAllocFree(t *testing.T) {
	for _, c := range []Cache{New(DefaultCapacity), NewSetAssoc(128, 8)} {
		for vpn := uint64(0); vpn < 2*DefaultCapacity; vpn++ {
			c.Insert(mk(ASID(1+vpn%3), vpn))
		}
		for _, op := range []struct {
			name string
			fn   func()
		}{
			{"Lookup", func() { c.Lookup(1, 2*DefaultCapacity-3); c.Lookup(2, 2*DefaultCapacity-2) }},
			{"Insert over an existing key", func() { c.Insert(mk(1, 2*DefaultCapacity-3)) }},
			{"FlushPage", func() { c.Insert(mk(4, 7)); c.FlushPage(4, 7) }},
			{"FlushASID", func() {
				for vpn := uint64(0); vpn < 8; vpn++ {
					c.Insert(mk(5, vpn))
				}
				c.FlushASID(5)
			}},
		} {
			if n := testing.AllocsPerRun(100, op.fn); n != 0 {
				t.Errorf("%T %s: %.1f allocations per run, want 0", c, op.name, n)
			}
		}
	}
}
