package pagetable

import (
	"testing"
	"testing/quick"
)

func TestMapThenWalk(t *testing.T) {
	pt := New()
	a := VAddr(0x400000)
	pt.Map(a, 42, true, 3)
	wr := pt.Walk(a)
	if !wr.Present {
		t.Fatal("mapped page not present")
	}
	if wr.PTE.Frame != 42 || !wr.PTE.Writable || wr.PTE.Pdom != 3 {
		t.Errorf("PTE = %+v, want frame 42 writable pdom 3", wr.PTE)
	}
	if wr.LevelsVisited != Levels {
		t.Errorf("LevelsVisited = %d, want %d", wr.LevelsVisited, Levels)
	}
}

func TestWalkUnmappedShortCircuits(t *testing.T) {
	pt := New()
	wr := pt.Walk(0x1000)
	if wr.Present {
		t.Error("empty table reported a present page")
	}
	if wr.LevelsVisited != 1 {
		t.Errorf("LevelsVisited = %d on empty table, want 1", wr.LevelsVisited)
	}
	// Sibling page in the same PT: walk reaches level 4 but not present.
	pt.Map(0x2000, 1, false, 0)
	wr = pt.Walk(0x3000)
	if wr.Present || wr.LevelsVisited != 4 {
		t.Errorf("sibling walk = %+v, want not-present at level 4", wr)
	}
}

func TestUnmap(t *testing.T) {
	pt := New()
	pt.Map(0x5000, 7, false, 0)
	if pt.Present() != 1 {
		t.Fatalf("Present = %d, want 1", pt.Present())
	}
	if !pt.Unmap(0x5000) {
		t.Error("Unmap of mapped page returned false")
	}
	if pt.Present() != 0 {
		t.Errorf("Present = %d after unmap, want 0", pt.Present())
	}
	if pt.Unmap(0x5000) {
		t.Error("double Unmap returned true")
	}
	if pt.Walk(0x5000).Present {
		t.Error("unmapped page still walks")
	}
}

func TestSetPdom(t *testing.T) {
	pt := New()
	pt.Map(0x7000, 9, true, 2)
	if !pt.SetPdom(0x7000, 5) {
		t.Fatal("SetPdom on mapped page failed")
	}
	if got := pt.Walk(0x7000).PTE.Pdom; got != 5 {
		t.Errorf("pdom = %d, want 5", got)
	}
	if pt.SetPdom(0x9000, 5) {
		t.Error("SetPdom on unmapped page succeeded")
	}
}

func TestSetWritable(t *testing.T) {
	pt := New()
	pt.Map(0x7000, 9, true, 2)
	if !pt.SetWritable(0x7000, false) {
		t.Fatal("SetWritable failed")
	}
	if pt.Walk(0x7000).PTE.Writable {
		t.Error("page still writable")
	}
	if pt.SetWritable(0xA000, true) {
		t.Error("SetWritable on unmapped page succeeded")
	}
}

func TestPMDDisableFaultsWholeChunk(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000) // 1 GiB, 2 MiB aligned
	for i := 0; i < 512; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 4)
	}
	if !pt.DisablePMD(base) {
		t.Fatal("DisablePMD failed")
	}
	for _, off := range []VAddr{0, PageSize, PMDSize - PageSize} {
		wr := pt.Walk(base + off)
		if wr.Present || !wr.PMDDisabled {
			t.Fatalf("walk at +%#x = %+v, want PMD-disabled fault", uint64(off), wr)
		}
		if wr.LevelsVisited != 3 {
			t.Errorf("disabled-PMD walk visited %d levels, want 3", wr.LevelsVisited)
		}
	}
	// PTEs under the PMD survive: re-enabling restores translations.
	if !pt.EnablePMD(base) {
		t.Fatal("EnablePMD failed")
	}
	wr := pt.Walk(base + PageSize)
	if !wr.Present || wr.PTE.Frame != 1 {
		t.Errorf("after re-enable: %+v, want frame 1 present", wr)
	}
}

func TestDisablePMDEdgeCases(t *testing.T) {
	pt := New()
	if pt.DisablePMD(0x40000000) {
		t.Error("DisablePMD with no PT underneath succeeded")
	}
	pt.Map(0x40000000, 1, false, 0)
	if !pt.DisablePMD(0x40000000) {
		t.Fatal("DisablePMD failed")
	}
	if pt.DisablePMD(0x40000000) {
		t.Error("double DisablePMD succeeded")
	}
	if !pt.PMDDisabled(0x40000000) {
		t.Error("PMDDisabled = false on disabled entry")
	}
	if pt.PMDDisabled(0x80000000) {
		t.Error("PMDDisabled = true on untouched address")
	}
	if pt.EnablePMD(0x80000000) {
		t.Error("EnablePMD on untouched address succeeded")
	}
}

func TestMapUnderDisabledPMDReenables(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000)
	pt.Map(base, 1, false, 0)
	pt.DisablePMD(base)
	pt.Map(base+PageSize, 2, false, 0)
	if pt.PMDDisabled(base) {
		t.Error("Map under disabled PMD did not re-enable it")
	}
	if !pt.Walk(base).Present {
		t.Error("original page lost after re-enable")
	}
}

func TestSetPdomUnderDisabledPMDReenables(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000)
	pt.Map(base, 1, false, 2)
	pt.DisablePMD(base)
	if !pt.SetPdom(base, 7) {
		t.Fatal("SetPdom under disabled PMD failed")
	}
	if pt.PMDDisabled(base) {
		t.Error("SetPdom did not re-enable the PMD entry")
	}
}

func TestEvictRangeUsesPMDFastPath(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000)
	// 2 MiB + 2 pages of mapped memory.
	total := PMDSize/PageSize + 2
	for i := 0; i < total; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 4)
	}
	pmds, ptes := pt.EvictRange(base, PMDSize+2*PageSize, 1)
	if pmds != 1 {
		t.Errorf("pmds disabled = %d, want 1", pmds)
	}
	if ptes != 2 {
		t.Errorf("ptes retagged = %d, want 2", ptes)
	}
	// The tail pages carry the access-never pdom.
	if got := pt.Walk(base + PMDSize).PTE.Pdom; got != 1 {
		t.Errorf("tail page pdom = %d, want 1", got)
	}
}

func TestEvictRangeUnalignedStartUsesPTEs(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000 + PageSize) // not 2 MiB aligned
	for i := 0; i < 8; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 4)
	}
	pmds, ptes := pt.EvictRange(base, 8*PageSize, 1)
	if pmds != 0 || ptes != 8 {
		t.Errorf("(pmds, ptes) = (%d, %d), want (0, 8)", pmds, ptes)
	}
}

func TestEvictRangeCounts64MB(t *testing.T) {
	pt := New()
	base := VAddr(0x100000000)
	length := uint64(64 << 20)
	for off := uint64(0); off < length; off += PageSize {
		pt.Map(base+VAddr(off), Frame(off/PageSize), true, 4)
	}
	pmds, ptes := pt.EvictRange(base, length, 1)
	if pmds != 32 || ptes != 0 {
		t.Errorf("64 MiB eviction = (%d PMDs, %d PTEs), want (32, 0)", pmds, ptes)
	}
}

func TestRetagRange(t *testing.T) {
	pt := New()
	base := VAddr(0x10000)
	for i := 0; i < 4; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 0)
	}
	n := pt.RetagRange(base, 6*PageSize, 9) // 2 pages unmapped
	if n != 4 {
		t.Errorf("retagged %d pages, want 4", n)
	}
	for i := 0; i < 4; i++ {
		if got := pt.Walk(base + VAddr(i*PageSize)).PTE.Pdom; got != 9 {
			t.Errorf("page %d pdom = %d, want 9", i, got)
		}
	}
}

func TestWriteCounters(t *testing.T) {
	pt := New()
	pt.Map(0x1000, 1, false, 0)
	// First map in a fresh table: 3 directory installs + 1 PTE.
	if pt.PTEWrites != 4 {
		t.Errorf("PTEWrites = %d after first map, want 4", pt.PTEWrites)
	}
	pt.ResetCounts()
	pt.Map(0x2000, 2, false, 0) // same PT: 1 write
	if pt.PTEWrites != 1 {
		t.Errorf("PTEWrites = %d, want 1", pt.PTEWrites)
	}
	pt.ResetCounts()
	pt.DisablePMD(0x1000)
	if pt.PMDWrites != 1 || pt.PTEWrites != 0 {
		t.Errorf("counters = (%d PTE, %d PMD), want (0, 1)", pt.PTEWrites, pt.PMDWrites)
	}
}

func TestPagesIteratesInOrder(t *testing.T) {
	pt := New()
	addrs := []VAddr{0x40000000, 0x1000, 0x200000, 0x7fff000}
	for i, a := range addrs {
		pt.Map(a, Frame(i), false, 0)
	}
	var got []VAddr
	pt.Pages(func(a VAddr, pte PTE) bool { got = append(got, a); return true })
	if len(got) != len(addrs) {
		t.Fatalf("iterated %d pages, want %d", len(got), len(addrs))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Errorf("iteration not ascending: %v", got)
		}
	}
}

func TestAlignmentHelpers(t *testing.T) {
	a := VAddr(0x40000000 + 0x1234)
	if a.PageAlign() != 0x40001000 {
		t.Errorf("PageAlign = %#x", uint64(a.PageAlign()))
	}
	if a.PMDAlign() != 0x40000000 {
		t.Errorf("PMDAlign = %#x", uint64(a.PMDAlign()))
	}
	if VAddr(0x3000).VPN() != 3 {
		t.Errorf("VPN(0x3000) = %d", VAddr(0x3000).VPN())
	}
}

func TestUnalignedRangePanics(t *testing.T) {
	pt := New()
	defer func() {
		if recover() == nil {
			t.Error("unaligned EvictRange did not panic")
		}
	}()
	pt.EvictRange(0x1001, PageSize, 1)
}

// Property: Map then Walk round-trips arbitrary (page, frame, pdom) triples.
func TestMapWalkRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(vpn uint32, frame uint32, pdom uint8, w bool) bool {
		pt := New()
		a := VAddr(uint64(vpn) << PageShift)
		d := Pdom(pdom % 16)
		pt.Map(a, Frame(frame), w, d)
		wr := pt.Walk(a)
		return wr.Present && wr.PTE.Frame == Frame(frame) &&
			wr.PTE.Writable == w && wr.PTE.Pdom == d
	}, nil); err != nil {
		t.Error(err)
	}
}

// Property: Present() always equals the number of pages Pages() visits,
// across a random operation sequence.
func TestPresentCountConsistencyProperty(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		pt := New()
		for _, op := range ops {
			a := VAddr(uint64(op%256) << PageShift)
			switch op % 3 {
			case 0:
				pt.Map(a, Frame(op), true, Pdom(op%16))
			case 1:
				pt.Unmap(a)
			case 2:
				pt.SetPdom(a, Pdom(op%16))
			}
		}
		n := 0
		pt.Pages(func(VAddr, PTE) bool { n++; return true })
		return n == pt.Present()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRemapRangeInvertsEvictRange(t *testing.T) {
	pt := New()
	base := VAddr(0x40000000)
	total := PMDSize/PageSize + 3 // one full chunk + 3 tail pages
	for i := 0; i < total; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 4)
	}
	pt.EvictRange(base, PMDSize+3*PageSize, 1)
	pmds, ptes := pt.RemapRange(base, PMDSize+3*PageSize, 4)
	if pmds != 1 {
		t.Errorf("RemapRange enabled %d PMDs, want 1", pmds)
	}
	if ptes != 3 {
		t.Errorf("RemapRange retagged %d PTEs, want 3 (the tail)", ptes)
	}
	// Every page is reachable again under the original domain.
	for i := 0; i < total; i++ {
		wr := pt.Walk(base + VAddr(i*PageSize))
		if !wr.Present || wr.PTE.Pdom != 4 {
			t.Fatalf("page %d after remap: %+v", i, wr)
		}
	}
}

func TestRemapRangeOnUntouchedRange(t *testing.T) {
	pt := New()
	pmds, ptes := pt.RemapRange(0x40000000, PMDSize, 4)
	if pmds != 0 || ptes != 0 {
		t.Errorf("RemapRange on empty table = (%d, %d)", pmds, ptes)
	}
}

// Property: EvictRange followed by RemapRange to the same pdom restores
// every present page's tag, for arbitrary sub-chunk layouts.
func TestEvictRemapRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(present [16]bool, chunks uint8) bool {
		pt := New()
		base := VAddr(0x80000000)
		n := int(chunks%3) + 1 // 1..3 2MiB chunks plus a partial tail
		length := uint64(n)*PMDSize + 4*PageSize
		// Map a scattered subset of pages.
		for off := uint64(0); off < length; off += PageSize {
			if present[(off/PageSize)%16] {
				pt.Map(base+VAddr(off), Frame(off/PageSize), true, 7)
			}
		}
		pt.EvictRange(base, length, 1)
		pt.RemapRange(base, length, 7)
		ok := true
		pt.Pages(func(a VAddr, pte PTE) bool {
			if pte.Pdom != 7 {
				ok = false
			}
			return true
		})
		// No PMD may remain disabled.
		for off := uint64(0); off < length; off += PMDSize {
			if pt.PMDDisabled(base + VAddr(off)) {
				ok = false
			}
		}
		return ok
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
