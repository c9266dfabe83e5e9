package pagetable

import (
	"bytes"
	"runtime"
	"slices"
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

// bigLeafCounts run past the 63rd slab: slabs 0..62 hold 959 leaves, and
// an uncapped 1<<s slab size overflows int at s = 63.
var bigLeafCounts = []struct{ leaves, slabs int }{
	{959, 63}, {960, 64}, {2000, 129},
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

// leafForms are the two page layouts TestLeafSlabBoundaries builds each
// leaf from: three scattered pages keep it a run leaf, and leafRuns+1
// scattered pages expand it into a flat one.
var leafForms = []struct {
	name  string
	pages int
}{
	{"runs", 3},
	{"flat", leafRuns + 1},
}

// leafPageIndex returns the leaf index of page k of n in leaf j: the two
// leaf edges and n-2 pages between them, never adjacent, so no two share
// a run.
func leafPageIndex(j, k, n int) uint64 {
	switch k {
	case 0:
		return 0
	case n - 1:
		return EntriesPerTable - 1
	}
	return uint64(j%50 + 1 + 64*(k-1))
}

// leafNode returns the node backing the leaf covering a, of either form.
func leafNode(pt *Table, a VAddr) any {
	switch h, _, _ := pt.leafOf(a); {
	case h > 0:
		return pt.leaf(h)
	case h < 0:
		return pt.runLeaf(h)
	}
	return nil
}

// checkSlabs fails unless store p holds n nodes in the given number of
// slabs, each at its scheduled capacity.
func checkSlabs[N any](t *testing.T, what string, p *slabs[N], n, want int) {
	t.Helper()
	if len(p.s) != want {
		t.Fatalf("%s: %d slabs, want %d", what, len(p.s), want)
	}
	used := 0
	for s, slab := range p.s {
		if c := 1 << min(s, leafSlabShift); cap(slab) != c {
			t.Fatalf("%s: slab %d holds %d nodes, want %d", what, s, cap(slab), c)
		}
		used += len(slab)
	}
	if used != n {
		t.Fatalf("%s: %d nodes in use, want %d", what, used, n)
	}
}

func TestLeafSlabBoundaries(t *testing.T) {
	for _, form := range leafForms {
		for _, c := range append(slices.Clone(slabLeafCounts), bigLeafCounts...) {
			n := c.leaves
			pt := New()
			ref := map[VAddr]PTE{}
			var order []VAddr // ascending page addresses, built leaf by leaf
			var first any
			for j := 0; j < n; j++ {
				base := slabLeafAddr(j)
				for k := 0; k < form.pages; k++ {
					a := base + VAddr(leafPageIndex(j, k, form.pages)<<PageShift)
					e := PTE{Frame: Frame(form.pages*j + k + 1), Present: true, Writable: k != 1, Pdom: Pdom(j % 16)}
					pt.Map(a, e.Frame, e.Writable, e.Pdom)
					ref[a] = e
					order = append(order, a)
				}
				if h, _, _ := pt.leafOf(base); (h > 0) != (form.pages > leafRuns) {
					t.Fatalf("%s n=%d: leaf %d has handle %d", form.name, n, j, h)
				}
				if j == 0 {
					first = leafNode(pt, base)
				}
			}
			if leafNode(pt, slabLeafAddr(0)) != first {
				t.Fatalf("%s n=%d: leaf 0 moved while later leaves materialized", form.name, n)
			}
			// Every leaf starts as runs; an expanded one leaves its run
			// node behind.
			checkSlabs(t, form.name+" run leaves", &pt.runs, n, c.slabs)
			if form.pages > leafRuns {
				checkSlabs(t, form.name+" flat leaves", &pt.leaves, n, c.slabs)
			} else {
				checkSlabs(t, form.name+" flat leaves", &pt.leaves, 0, 0)
			}
			for a, want := range ref {
				if wr := pt.Walk(a); !wr.Present || wr.PTE != want || wr.LevelsVisited != Levels {
					t.Fatalf("%s n=%d: walk(%#x) = %+v, want %+v", form.name, n, uint64(a), wr, want)
				}
			}

			// Pages visits exactly the reference pages in ascending order.
			var got []VAddr
			pt.Pages(func(a VAddr, pte PTE) bool {
				if pte != ref[a] {
					t.Fatalf("%s n=%d: Pages(%#x) = %+v, want %+v", form.name, n, uint64(a), pte, ref[a])
				}
				got = append(got, a)
				return true
			})
			if len(got) != len(order) {
				t.Fatalf("%s n=%d: Pages visited %d pages, want %d", form.name, n, len(got), len(order))
			}
			for i := 1; i < len(got); i++ {
				if got[i-1] >= got[i] {
					t.Fatalf("%s n=%d: Pages not ascending at %d: %#x then %#x", form.name, n, i, uint64(got[i-1]), uint64(got[i]))
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
					t.Fatalf("%s n=%d: restored walk(%#x) = %+v, want %+v", form.name, n, uint64(a), g, w)
				}
			}
		}
	}
}

var tableSink *Table

// expandLeaf maps leafRuns+1 scattered pages into the leaf at base, which
// expands it into a flat leaf.
func expandLeaf(pt *Table, base VAddr) {
	for k := 0; k <= leafRuns; k++ {
		pt.Map(base+VAddr(leafPageIndex(0, k, leafRuns+1)<<PageShift), Frame(2*k), true, 2)
	}
}

func TestMapExistingLeafAllocFree(t *testing.T) {
	// Run leaves: remapping DPTI's four touch pages (indices 0, 128,
	// 256, 384) with fresh frames and tags edits runs in place.
	pt := New()
	pt.Map(slabLeafAddr(0), 1, true, 2)
	pt.Map(slabLeafAddr(1), 2, true, 2)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		// Alternate leaves so both the memoized and the full descent run.
		a := slabLeafAddr(i%2) + VAddr(i/2%4*128)<<PageShift
		pt.Map(a, Frame(i), true, Pdom(i%16))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Map into an existing run leaf: %v allocs/op, want 0", allocs)
	}
	if len(pt.leaves.s) != 0 {
		t.Fatalf("four pages per leaf expanded %d slabs of flat leaves", len(pt.leaves.s))
	}

	// Flat leaves: any page, any frame.
	pt = New()
	expandLeaf(pt, slabLeafAddr(0))
	expandLeaf(pt, slabLeafAddr(1))
	i = 0
	allocs = testing.AllocsPerRun(100, func() {
		a := slabLeafAddr(i%2) + VAddr(i%EntriesPerTable)<<PageShift
		pt.Map(a, Frame(i), true, Pdom(i%16))
		i++
	})
	if allocs != 0 {
		t.Fatalf("Map into an existing flat leaf: %v allocs/op, want 0", allocs)
	}
}

// allocsOf returns the objects and bytes one call of fn allocates, on
// average over runs calls.
func allocsOf(runs int, fn func()) (objects, size uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs), (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

func TestLeafSlabAllocations(t *testing.T) {
	// A one-leaf table allocates the Table, one pmd slab and one run-leaf
	// slab: the pmd directory and the slab directories live inside the
	// Table. Almost all of its 3 KiB is the one pmd node.
	objects, size := allocsOf(100, func() {
		pt := New()
		pt.Map(0x40000000, 1, true, 1)
		tableSink = pt
	})
	if objects != 3 || size > 3<<10 {
		t.Errorf("one-leaf table: %d allocations and %d bytes, want 3 and at most %d", objects, size, 3<<10)
	}
	// Every run builds the same pud/pmd skeleton and slab directories,
	// so the difference between the two counts is the leaf slabs alone.
	skeleton := func() *Table {
		pt := New()
		slabPMDCoords(pt)
		pt.leaves.s = make([][]ptNode, 0, 32)
		pt.runs.s = make([][]runNode, 0, 32)
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
			t.Errorf("%d fresh run leaves: %v leaf-slab allocations, want one per slab (%d)", c.leaves, got, c.slabs)
		}
		// Expanded leaves add one flat-leaf slab per slab of run leaves.
		allocs = testing.AllocsPerRun(10, func() {
			pt := skeleton()
			for j := 0; j < c.leaves; j++ {
				expandLeaf(pt, slabLeafAddr(j))
			}
			tableSink = pt
		})
		if got := allocs - base; got != float64(2*c.slabs) {
			t.Errorf("%d expanded leaves: %v leaf-slab allocations, want two per slab (%d)", c.leaves, got, 2*c.slabs)
		}
	}
}

// dirRegionKey returns the directory key of region r of
// TestManyPMDNodes: 500 pgd indices with four puds under each.
func dirRegionKey(r int) uint32 { return uint32(r%500)<<9 | uint32(r/500*100) }

// TestManyPMDNodes builds a table of 2000 pmd nodes, past the 63rd pmd
// slab, inserting them in descending key order so every insert lands at
// the front of the directory. The directory stays sorted, the radix
// install counts are those of the four-level walk, every present page,
// sibling pud slot and absent pgd slot walks as the radix would, and the
// snapshot round-trips.
func TestManyPMDNodes(t *testing.T) {
	const n = 2000
	pt := New()
	for r := n - 1; r >= 0; r-- {
		pt.Map(VAddr(uint64(dirRegionKey(r))<<dirShift|uint64(r%512)<<PageShift), Frame(r), true, Pdom(r%16))
	}
	checkSlabs(t, "pmd nodes", &pt.pmds, n, 129)
	for i := 1; i < len(pt.dir); i++ {
		if pt.dir[i-1].key >= pt.dir[i].key {
			t.Fatalf("directory not ascending at %d: %#x then %#x", i, pt.dir[i-1].key, pt.dir[i].key)
		}
	}
	// Per region: one PTE, one leaf install and one pud install; per
	// pgd index, one more install.
	if got, want := pt.CumulativePTEWrites(), uint64(3*n+500); got != want {
		t.Errorf("cumulative PTE writes = %d, want %d", got, want)
	}
	check := func(pt *Table) {
		t.Helper()
		for r := 0; r < n; r++ {
			key := uint64(dirRegionKey(r))
			a := VAddr(key<<dirShift | uint64(r%512)<<PageShift)
			if wr := pt.Walk(a); !wr.Present || wr.PTE.Frame != Frame(r) || wr.LevelsVisited != 4 {
				t.Fatalf("walk(%#x) = %+v, want frame %d at level 4", uint64(a), wr, r)
			}
			if wr := pt.Walk(a + PMDSize); wr.Present || wr.LevelsVisited != 3 {
				t.Fatalf("sibling pmd entry walk(%#x) = %+v, want level 3", uint64(a+PMDSize), wr)
			}
			if wr := pt.Walk(VAddr((key + 1) << dirShift)); wr.Present || wr.LevelsVisited != 2 {
				t.Fatalf("sibling pud walk(%#x) = %+v, want level 2", (key+1)<<dirShift, wr)
			}
		}
		for i3 := uint64(500); i3 < 512; i3++ {
			if wr := pt.Walk(VAddr(i3 << 39)); wr.Present || wr.LevelsVisited != 1 {
				t.Fatalf("absent pgd walk(%#x) = %+v, want level 1", i3<<39, wr)
			}
		}
	}
	check(pt)
	check(roundTrip(t, pt))
}
