package pagetable

import (
	"slices"
	"testing"
)

// mixedTable builds a table whose leaves take every form: one full run,
// DPTI's four single-page runs, a run leaf under a disabled PMD entry, an
// emptied run leaf, an expanded flat leaf, and a flat leaf thinned back
// to two runs.
func mixedTable() *Table {
	pt := New()
	frames := make([]Frame, EntriesPerTable)
	next := Frame(1000)
	alloc := func(n int) Frame { f := next; next += Frame(n); return f }
	leaf := func(j int) VAddr { return VAddr(0x40000000 + uint64(j)*PMDSize) }

	pt.PopulateChunk(leaf(0), EntriesPerTable, true, 3, alloc, frames)
	for k := 0; k < 4; k++ {
		pt.Map(leaf(1)+VAddr(k*128)<<PageShift, Frame(10+k), k%2 == 0, 5)
	}
	pt.MapChunk(leaf(2)+8*PageSize, frames[:64], false, 6)
	pt.DisablePMD(leaf(2))
	pt.Map(leaf(3), 7, true, 1)
	pt.Unmap(leaf(3))
	expandLeaf(pt, leaf(4))
	expandLeaf(pt, leaf(5))
	pt.UnmapRange(leaf(5)+VAddr(leafPageIndex(0, 2, leafRuns+1))<<PageShift, PMDSize/2)
	return pt
}

func TestMixedLeafRoundTrip(t *testing.T) {
	pt := mixedTable()
	forms := map[int]bool{} // leaf j → flat
	for j := 0; j < 6; j++ {
		h, _, _ := pt.leafOf(VAddr(0x40000000 + uint64(j)*PMDSize))
		forms[j] = h > 0
	}
	if !forms[4] || !forms[5] || forms[0] || forms[1] || forms[2] || forms[3] {
		t.Fatalf("leaf forms (flat) = %v, want only leaves 4 and 5 flat", forms)
	}
	restored := roundTrip(t, pt)
	for j := 0; j < 6; j++ {
		base := VAddr(0x40000000 + uint64(j)*PMDSize)
		for i0 := 0; i0 < EntriesPerTable; i0++ {
			a := base + VAddr(i0)<<PageShift
			if g, w := restored.Walk(a), pt.Walk(a); g != w {
				t.Fatalf("restored walk(%#x) = %+v, want %+v", uint64(a), g, w)
			}
		}
	}
	// ReadState rebuilds as runs every leaf that fits: leaf 5 now does.
	for j, wantFlat := range map[int]bool{4: true, 5: false} {
		h, _, _ := restored.leafOf(VAddr(0x40000000 + uint64(j)*PMDSize))
		if (h > 0) != wantFlat {
			t.Errorf("restored leaf %d: handle %d, want flat=%v", j, h, wantFlat)
		}
	}
}

func TestPagesStopsEarly(t *testing.T) {
	pt := mixedTable()
	var all []VAddr
	pt.Pages(func(a VAddr, _ PTE) bool { all = append(all, a); return true })
	if len(all) != pt.Present() {
		t.Fatalf("Pages visited %d pages, Present = %d", len(all), pt.Present())
	}
	for _, n := range []int{1, 2, 511, 512, 513, 517, len(all) - 1} {
		var got []VAddr
		pt.Pages(func(a VAddr, _ PTE) bool {
			got = append(got, a)
			return len(got) < n
		})
		if !slices.Equal(got, all[:n]) {
			t.Fatalf("stop after %d: visited %d pages, want the first %d in address order", n, len(got), n)
		}
	}
}

func TestPopulatedDomainStaysOneRun(t *testing.T) {
	base := VAddr(0x40000000)
	frames := make([]Frame, EntriesPerTable)
	shadow, vds := New(), New()
	shadow.PopulateChunk(base, EntriesPerTable, true, 3, func(int) Frame { return 77 }, frames)
	vds.MapChunk(base, frames, true, 4)
	oneRun := func(what string, pt *Table) {
		t.Helper()
		h, _, _ := pt.leafOf(base)
		if h >= 0 || len(pt.leaves.s) != 0 {
			t.Fatalf("%s: leaf handle %d, %d flat-leaf slabs; want a run leaf and no flat leaf", what, h, len(pt.leaves.s))
		}
		if runs := pt.runLeaf(h).list(); len(runs) != 1 || runs[0] != newRun(packPTE(PTE{Frame: 77, Present: true, Writable: true, Pdom: runs[0].base.unpack().Pdom}), 0, EntriesPerTable) {
			t.Fatalf("%s: runs %+v, want one run of 512 pages from frame 77", what, runs)
		}
	}
	oneRun("populate", shadow)
	oneRun("map chunk", vds)
	// Whole-domain and partial evictions and remaps split and re-merge
	// the run without allocating.
	mid := base + PageSize
	allocs := testing.AllocsPerRun(20, func() {
		vds.RetagRange(base, PMDSize, 5)
		vds.EvictRange(base, PMDSize, 1)
		vds.RemapRange(base, PMDSize, 5)
		vds.EvictRange(mid, PMDSize-2*PageSize, 1)
		vds.RemapRange(mid, PMDSize-2*PageSize, 4)
		vds.RetagRange(base, PMDSize, 4)
	})
	if allocs != 0 {
		t.Fatalf("retag/evict/remap cycle: %v allocs/op, want 0", allocs)
	}
	oneRun("after the cycle", vds)
	if wr := vds.Walk(base + 100*PageSize); !wr.Present || wr.PTE != (PTE{Frame: 177, Present: true, Writable: true, Pdom: 4}) {
		t.Fatalf("walk after the cycle = %+v", wr)
	}
}

// TestRunTapesReachBoundaries checks that the run-boundary fuzz seeds
// build the leaf shapes they are named for.
func TestRunTapesReachBoundaries(t *testing.T) {
	tapes := runTapes()
	want := []struct {
		runs int // runs in leaf 0 after the splitting ops, -1 for flat
		op   int // number of leading ops to run
	}{{2, 2}, {2, 2}, {3, 2}, {-1, 1 + leafRuns/2}, {3, 3}}
	for i, w := range want {
		pt := New()
		tape := tapes[i]
		for j := 0; j < w.op; j++ {
			op, hi, lo := tape[3*j], tape[3*j+1], tape[3*j+2]
			a := fuzzAddr(hi, lo)
			switch op % numOps {
			case opMapChunk:
				frames := make([]Frame, 512)
				for k := range frames {
					frames[k] = Frame(k)
				}
				pt.MapChunk(a, frames, false, 0)
			case opSetPdom:
				pt.SetPdom(a, Pdom(op%16))
			case opUnmap:
				pt.Unmap(a)
			case opMap:
				pt.Map(a, Frame(hi)<<8|Frame(lo), op&0x80 != 0, Pdom(op%16))
			}
		}
		h, _, _ := pt.leafOf(0)
		got := -1
		if h < 0 {
			got = len(pt.runLeaf(h).list())
		}
		if got != w.runs {
			t.Errorf("tape %d: %d runs after %d ops, want %d", i, got, w.op, w.runs)
		}
	}
}
