package pagetable

import (
	"bytes"
	"testing"

	"vdom/internal/wire"
)

// slabLeafCounts are leaf totals on both sides of the slab boundaries,
// with the number of slabs each takes. Slabs hold 1, 2, 4 and 8 leaves
// and then leafSlabMax (16) each, so boundaries fall at 1, 3, 7, 15,
// then every 16th leaf: 31, 47, 63, 79, ...
var slabLeafCounts = []struct{ leaves, slabs int }{
	{1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3}, {8, 4}, {9, 4},
	{15, 4}, {16, 5}, {17, 5}, {31, 5}, {32, 6},
	{64, 8}, {65, 8}, {79, 8}, {80, 9}, {257, 20},
}

// slabLeafAddr returns the base of the j-th leaf of a spread layout:
// consecutive leaves alternate between two puds and two pmds under each,
// so any table of two or more leaves spans at least two of each.
func slabLeafAddr(j int) VAddr {
	i3 := [2]uint64{1, 300}[j%2]
	i2 := uint64(j / 2 % 2)
	i1 := uint64(j / 4)
	return VAddr(i3<<39 | i2<<30 | i1<<21)
}

// slabPMDCoords materializes the four pmds slabLeafAddr spreads over,
// without any leaf.
func slabPMDCoords(pt *Table) {
	for j := 0; j < 4; j++ {
		pt.materializePMD(uint64(slabLeafAddr(j)) >> PMDShift)
	}
}

// roundTrip snapshots pt, restores the image into a fresh table and
// checks the restored table re-encodes to the same bytes.
func roundTrip(t testing.TB, pt *Table) *Table {
	t.Helper()
	img := pt.AppendState(nil)
	got := New()
	r := wire.NewReader(img)
	got.ReadState(r)
	if err := r.Done(); err != nil {
		t.Fatalf("ReadState: %v", err)
	}
	if again := got.AppendState(nil); !bytes.Equal(again, img) {
		t.Fatalf("snapshot round trip changed the image:\n got %x\nwant %x", again, img)
	}
	if got.Present() != pt.Present() {
		t.Fatalf("restored Present = %d, want %d", got.Present(), pt.Present())
	}
	return got
}

func TestLeafSlabBoundaries(t *testing.T) {
	for _, c := range slabLeafCounts {
		n := c.leaves
		pt := New()
		ref := map[VAddr]PTE{}
		var order []VAddr // ascending page addresses, built leaf by leaf
		var first *ptNode
		for j := 0; j < n; j++ {
			base := slabLeafAddr(j)
			for k, i0 := range [...]uint64{0, uint64(j%509) + 1, 511} {
				a := base + VAddr(i0<<PageShift)
				e := PTE{Frame: Frame(3*j + k + 1), Present: true, Writable: k != 1, Pdom: Pdom(j % 16)}
				pt.Map(a, e.Frame, e.Writable, e.Pdom)
				ref[a] = e
				order = append(order, a)
			}
			if j == 0 {
				first = pt.ptOf(base)
			}
		}
		if got := pt.ptOf(slabLeafAddr(0)); got != first {
			t.Fatalf("n=%d: leaf 0 moved while later leaves materialized", n)
		}
		if len(pt.leaves) != c.slabs {
			t.Fatalf("n=%d: %d slabs, want %d", n, len(pt.leaves), c.slabs)
		}
		used := 0
		for s, slab := range pt.leaves {
			if want := min(1<<s, leafSlabMax); cap(slab) != want {
				t.Fatalf("n=%d: slab %d holds %d leaves, want %d", n, s, cap(slab), want)
			}
			used += len(slab)
		}
		if used != n {
			t.Fatalf("n=%d: %d leaves in use", n, used)
		}
		for a, want := range ref {
			if wr := pt.Walk(a); !wr.Present || wr.PTE != want || wr.LevelsVisited != Levels {
				t.Fatalf("n=%d: walk(%#x) = %+v, want %+v", n, uint64(a), wr, want)
			}
		}

		// Pages visits exactly the reference pages in ascending order.
		var got []VAddr
		pt.Pages(func(a VAddr, pte PTE) {
			if pte != ref[a] {
				t.Fatalf("n=%d: Pages(%#x) = %+v, want %+v", n, uint64(a), pte, ref[a])
			}
			got = append(got, a)
		})
		if len(got) != len(order) {
			t.Fatalf("n=%d: Pages visited %d pages, want %d", n, len(got), len(order))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("n=%d: Pages not ascending at %d: %#x then %#x", n, i, uint64(got[i-1]), uint64(got[i]))
			}
		}

		// Disabled marks and an emptied leaf ride through the snapshot.
		for j := 0; j < n; j += 3 {
			pt.DisablePMD(slabLeafAddr(j))
		}
		pt.UnmapRange(slabLeafAddr(n-1), PMDSize)
		restored := roundTrip(t, pt)
		for a := range ref {
			if g, w := restored.Walk(a), pt.Walk(a); g != w {
				t.Fatalf("n=%d: restored walk(%#x) = %+v, want %+v", n, uint64(a), g, w)
			}
		}
	}
}

var tableSink *Table

func TestMapExistingLeafAllocFree(t *testing.T) {
	pt := New()
	pt.Map(slabLeafAddr(0), 1, true, 2)
	pt.Map(slabLeafAddr(1), 2, true, 2)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		// Alternate leaves so both the memoized and the full descent run.
		a := slabLeafAddr(i%2) + VAddr(i%EntriesPerTable)<<PageShift
		pt.Map(a, Frame(i), true, Pdom(i%16))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Map into an existing leaf: %v allocs/op, want 0", allocs)
	}
}

func TestLeafSlabAllocations(t *testing.T) {
	// A one-leaf table allocates the Table, one pud, one pmd and one
	// leaf: its slab directory lives inside the Table.
	one := testing.AllocsPerRun(10, func() {
		pt := New()
		pt.Map(0x40000000, 1, true, 1)
		tableSink = pt
	})
	if one != 4 {
		t.Errorf("one-leaf table: %v allocations, want 4", one)
	}
	// Every run builds the same pud/pmd skeleton and slab directory, so
	// the difference between the two counts is the leaf slabs alone.
	skeleton := func() *Table {
		pt := New()
		slabPMDCoords(pt)
		pt.leaves = make([][]ptNode, 0, 32)
		return pt
	}
	base := testing.AllocsPerRun(10, func() { tableSink = skeleton() })
	for _, c := range slabLeafCounts {
		allocs := testing.AllocsPerRun(10, func() {
			pt := skeleton()
			for j := 0; j < c.leaves; j++ {
				pt.Map(slabLeafAddr(j), Frame(j), true, 1)
			}
			tableSink = pt
		})
		if got := allocs - base; got != float64(c.slabs) {
			t.Errorf("%d fresh leaves: %v leaf-slab allocations, want one per slab (%d)", c.leaves, got, c.slabs)
		}
	}
}
