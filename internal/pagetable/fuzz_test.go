package pagetable

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
)

// fuzzAddr spreads a 16-bit tape argument over all four radix indices:
// four puds (including the top of the address space), eight pmds under
// each, 32 leaves under each pmd and 64 pages per leaf, both leaf edges
// included. Tapes therefore build many leaves, pmds and puds.
func fuzzAddr(hi, lo byte) VAddr {
	i3 := [4]uint64{0, 1, 256, 511}[hi>>6]
	i2 := uint64(hi >> 3 & 7)
	i1 := uint64(hi&7)<<2 | uint64(lo>>6)
	i0 := uint64(lo&63)<<3 | uint64(lo&63)>>3
	return VAddr(i3<<39 | i2<<30 | i1<<21 | i0<<12)
}

// Tape operations, selected by op % numOps. The range operations are
// checked against a loop over their per-page primitives on a twin table.
const (
	opMap byte = iota
	opUnmap
	opSetPdom
	opDisablePMD
	opEnablePMD
	opRetagRange       // against SetPdom per page
	opUnmapRange       // against Unmap per page
	opSetWritableRange // against SetWritable per page
	opMapChunk         // against ResetCounts+Map per page
	numOps
)

// opMapWritable is a Map op byte with the writable bit (0x80) set.
const opMapWritable = 16 * numOps

// rangePages are the range lengths in pages; a range op's op byte
// selects rangePages[op/numOps % len]. They cover single pages, runs
// ending inside a leaf, whole leaves and runs crossing one, two and
// three 2 MiB boundaries.
var rangePages = [...]uint64{1, 2, 4, 5, 8, 64, 65, 200, 511, 512, 513, 600, 1024, 1025, 1100, 1537}

// rangeOp returns the op byte of range operation kind over pages pages.
func rangeOp(kind byte, pages uint64) byte {
	for i, n := range rangePages {
		if n == pages {
			return kind + byte(i)*numOps
		}
	}
	panic("rangeOp: no such length")
}

// step appends one tape triple addressing leaf i1 (0..31) of the first
// pmd node and page selector v (0..63): leaf index v<<3|v>>3, so v=0 is
// index 0, v=1 index 8 and v=63 index 511.
func step(tape []byte, op, i1, v byte) []byte {
	return append(tape, op, i1>>2, (i1&3)<<6|v)
}

// leafTape returns a tape that materializes n distinct leaves (n ≤ 256),
// disabling every fourth one's PMD entry and unmapping every fifth page.
func leafTape(n int) []byte {
	var tape []byte
	for j := 0; j < n; j++ {
		hi := byte(j * 67) // odd multiplier: distinct hi for every j < 256
		lo := byte(j*13) & 63
		tape = append(tape, byte(j%2)*opMapWritable, hi, lo) // Map, read-only or writable
		if j%4 == 3 {
			tape = append(tape, opDisablePMD, hi, lo)
		}
		if j%5 == 4 {
			tape = append(tape, opUnmap, hi, lo)
		}
	}
	return tape
}

// rangeTapes are seeds for the range operations: ranges from leaf index
// 0 through 511, ranges crossing 2 MiB boundaries, ranges under a
// disabled PMD entry, and ranges spanning absent leaves.
func rangeTapes() [][]byte {
	var whole, cross, disabled, absent []byte
	// Whole leaf: a few pages of leaf 0, then every range op over
	// indices 0..511.
	for _, v := range []byte{0, 1, 5, 63} {
		whole = step(whole, opMapWritable, 0, v)
	}
	for _, k := range []byte{opRetagRange, opSetWritableRange, opUnmapRange, opMapChunk, opRetagRange} {
		whole = step(whole, rangeOp(k, 512), 0, 0)
	}
	whole = step(whole, rangeOp(opUnmapRange, 512), 0, 0)

	// Crossing 2 MiB boundaries: fill leaf 0 and half of leaf 1, then
	// ranges from index 511 of leaf 0 and from index 0 across three
	// leaves.
	cross = step(cross, rangeOp(opMapChunk, 512), 0, 0)
	cross = step(cross, rangeOp(opMapChunk, 200), 1, 0)
	for _, k := range []byte{opRetagRange, opSetWritableRange, opUnmapRange} {
		cross = step(cross, rangeOp(k, 65), 0, 63)
		cross = step(cross, rangeOp(k, 1100), 0, 0)
	}

	// Under a disabled PMD entry: each range op meets a disabled entry
	// with present pages underneath.
	disabled = step(disabled, rangeOp(opMapChunk, 64), 2, 0)
	disabled = step(disabled, opMap, 3, 9)
	for _, k := range []byte{opSetWritableRange, opRetagRange, opUnmapRange, opMapChunk} {
		disabled = step(disabled, opDisablePMD, 2, 0)
		disabled = step(disabled, rangeOp(k, 600), 2, 0)
	}
	disabled = step(disabled, opDisablePMD, 3, 0)
	disabled = step(disabled, rangeOp(opRetagRange, 1025), 2, 0)

	// Spanning absent leaves: leaves 4 and 7 exist, 5 and 6 never do,
	// and the ranges run on into leaf 8 and past it.
	absent = step(absent, opMapWritable, 4, 7)
	absent = step(absent, rangeOp(opMapChunk, 8), 7, 0)
	for _, k := range []byte{opRetagRange, opSetWritableRange, opUnmapRange} {
		absent = step(absent, rangeOp(k, 1537), 4, 0)
		absent = step(absent, rangeOp(k, 1024), 5, 0)
	}
	return [][]byte{whole, cross, disabled, absent}
}

// runTapes are seeds for run-leaf boundaries. Each starts with leaf 0
// populated as one run (frames 0..511), then splits it at index 0, at
// index 511 or in the middle; splits four middle pages to reach
// leafRuns+1 runs, the expansion point; or unmaps a page inside the run
// and maps the hole again with a frame that does not continue it.
func runTapes() [][]byte {
	one := step(nil, rangeOp(opMapChunk, 512), 0, 0)
	split := func(v byte) []byte { return step(slices.Clone(one), opSetPdom, 0, v) }
	expand := slices.Clone(one)
	for s := byte(1); s <= leafRuns/2; s++ { // 1+2*(leafRuns/2) runs
		expand = step(expand, opSetPdom, 0, 8*s)
	}
	expand = step(expand, rangeOp(opRetagRange, 512), 0, 0)
	expand = step(expand, rangeOp(opUnmapRange, 200), 0, 8)
	hole := step(slices.Clone(one), opUnmap, 0, 10)
	hole = step(hole, opMap, 0, 10) // frame 10 at index 81
	return [][]byte{split(0), split(63), split(32), expand, hole}
}

// descendingTape maps one page in each of the 32 pmds fuzzAddr reaches,
// across all four puds, in descending directory-key order, so every
// insert lands at the front of the directory.
func descendingTape() []byte {
	var tape []byte
	for i3 := 3; i3 >= 0; i3-- {
		for i2 := 7; i2 >= 0; i2-- {
			tape = append(tape, opMapWritable, byte(i3<<6|i2<<3), byte(i2))
		}
	}
	return tape
}

// walkModel is the radix a tape has built, kept apart from the table:
// the pages present, the pgd slots (va>>39), pud slots (va>>30) and leaf
// coordinates (va>>21) materialized, and the disabled pmd entries.
type walkModel struct {
	pages                       map[VAddr]PTE
	pgds, puds, leaves, disable map[uint64]bool
}

func newWalkModel() *walkModel {
	return &walkModel{pages: map[VAddr]PTE{}, pgds: map[uint64]bool{},
		puds: map[uint64]bool{}, leaves: map[uint64]bool{}, disable: map[uint64]bool{}}
}

// materialize records the path to a's leaf, as Map and MapChunk build it.
func (m *walkModel) materialize(a VAddr) {
	v := uint64(a)
	m.pgds[v>>39], m.puds[v>>dirShift], m.leaves[v>>PMDShift] = true, true, true
}

// reenable clears the disabled mark of the pmd entries of [a, end)
// holding a present page there, as a retag that reaches a page does.
func (m *walkModel) reenable(a, end VAddr) {
	for p := range m.pages {
		if p >= a && p < end {
			m.disable[uint64(p)>>PMDShift] = false
		}
	}
}

// walk returns the walk the model predicts for a.
func (m *walkModel) walk(a VAddr) WalkResult {
	v := uint64(a)
	switch c := v >> PMDShift; {
	case !m.pgds[v>>39]:
		return WalkResult{LevelsVisited: 1}
	case !m.puds[v>>dirShift]:
		return WalkResult{LevelsVisited: 2}
	case m.disable[c]:
		return WalkResult{LevelsVisited: 3, PMDDisabled: true}
	case !m.leaves[c]:
		return WalkResult{LevelsVisited: 3}
	}
	pte := m.pages[a]
	return WalkResult{PTE: pte, Present: pte.Present, LevelsVisited: 4}
}

// walkProbes are fixed addresses around the ones fuzzAddr reaches: pgd
// slot 2, which no tape touches, beside the four it does; pud slot 8,
// the sibling of the eight a tape may fill; pmd entry 32, the sibling of
// leaves 0..31, which only ranges reach and none maps; and leaf index 1,
// which only a range or chunk covers.
var walkProbes = func() []VAddr {
	var ps []VAddr
	for _, i3 := range []uint64{0, 1, 2, 256, 511} {
		for _, i2 := range []uint64{0, 7, 8} {
			for _, i1 := range []uint64{0, 32} {
				for _, i0 := range []uint64{0, 1} {
					ps = append(ps, VAddr(i3<<39|i2<<30|i1<<21|i0<<12))
				}
			}
		}
	}
	return ps
}()

// checkProbes fails unless every probe walks as the model predicts after
// op (the restored table when op < 0).
func checkProbes(t *testing.T, op int, pt *Table, m *walkModel) {
	t.Helper()
	for _, a := range walkProbes {
		if got, want := pt.Walk(a), m.walk(a); got != want {
			what := fmt.Sprintf("op %d", op)
			if op < 0 {
				what = "restored table"
			}
			t.Fatalf("%s: walk(%#x) = %+v, model %+v", what, uint64(a), got, want)
		}
	}
}

// sameTable fails unless the range-op table and its per-page twin agree
// on every observable: the snapshot image (radix skeleton, disabled
// marks, PTEs, counters, generation) and the live counters.
func sameTable(t *testing.T, op int, fast, slow *Table) {
	t.Helper()
	if fast.Gen() != slow.Gen() || fast.PTEWrites != slow.PTEWrites ||
		fast.PMDWrites != slow.PMDWrites || fast.Present() != slow.Present() {
		t.Fatalf("op %d: gen/pte/pmd/present = %d/%d/%d/%d, per-page %d/%d/%d/%d", op,
			fast.Gen(), fast.PTEWrites, fast.PMDWrites, fast.Present(),
			slow.Gen(), slow.PTEWrites, slow.PMDWrites, slow.Present())
	}
	if !bytes.Equal(fast.AppendState(nil), slow.AppendState(nil)) {
		t.Fatalf("op %d: table image differs from the per-page twin", op)
	}
}

// perPage runs fn on every page of [a, a+pages*PageSize) and counts the
// pages it reports true for.
func perPage(a VAddr, pages uint64, fn func(VAddr) bool) int {
	n := 0
	for j := uint64(0); j < pages; j++ {
		if fn(a + VAddr(j*PageSize)) {
			n++
		}
	}
	return n
}

// FuzzTableOps drives a page table with an arbitrary operation tape of
// (op, addr-hi, addr-lo) triples and checks the structural invariants the
// rest of the system depends on. A twin table runs the same tape with
// every range operation replaced by a loop over its per-page primitive;
// the two must agree on the returned count and on the whole table after
// every op. A walk model built from the tape predicts every walk of a
// fixed probe set, misses included, after every op and on the restored
// table.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 16, 16, 32, 255, 1, 9})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 100, 200, 50, 60})
	for _, n := range []int{3, 5, 9, 65} { // across leaf-slab boundaries
		f.Add(leafTape(n))
	}
	for _, tape := range rangeTapes() {
		f.Add(tape)
	}
	for _, tape := range runTapes() {
		f.Add(tape)
	}
	f.Add(descendingTape())
	f.Fuzz(func(t *testing.T, tape []byte) {
		pt, twin := New(), New()
		m := newWalkModel()
		ref := m.pages // page → expected
		for i := 0; i+2 < len(tape); i += 3 {
			op, hi, lo := tape[i], tape[i+1], tape[i+2]
			a := fuzzAddr(hi, lo)
			pages := rangePages[int(op/numOps)%len(rangePages)]
			end := a + VAddr(pages*PageSize)
			inRange := func(p VAddr) bool { return p >= a && p < end }
			// Range ops take their pdom and writable bit from the address
			// bytes, so every length meets every tag.
			d, w := Pdom((hi^lo)%16), (hi^lo)&16 != 0
			got, want := 0, 0
			switch op % numOps {
			case opMap:
				pte := PTE{Frame: Frame(hi)<<8 | Frame(lo), Present: true,
					Writable: op&0x80 != 0, Pdom: Pdom(op % 16)}
				pt.Map(a, pte.Frame, pte.Writable, pte.Pdom)
				twin.Map(a, pte.Frame, pte.Writable, pte.Pdom)
				ref[a] = pte
				m.materialize(a)
				m.disable[uint64(a)>>PMDShift] = false
			case opUnmap:
				had := ref[a].Present
				delete(ref, a)
				twin.Unmap(a)
				if pt.Unmap(a) != had {
					t.Fatalf("Unmap(%#x) disagreement", uint64(a))
				}
			case opSetPdom:
				d := Pdom(op % 16)
				m.reenable(a, a+PageSize)
				twin.SetPdom(a, d)
				if pt.SetPdom(a, d) {
					e := ref[a]
					if !e.Present {
						t.Fatalf("SetPdom succeeded on absent page %#x", uint64(a))
					}
					e.Pdom = d
					ref[a] = e
				} else if ref[a].Present {
					t.Fatalf("SetPdom failed on present page %#x", uint64(a))
				}
			case opDisablePMD:
				pt.DisablePMD(a)
				twin.DisablePMD(a)
				if c := uint64(a) >> PMDShift; m.leaves[c] {
					m.disable[c] = true
				}
			case opEnablePMD:
				pt.EnablePMD(a)
				twin.EnablePMD(a)
				m.disable[uint64(a)>>PMDShift] = false
			case opRetagRange:
				m.reenable(a, end)
				got = pt.RetagRange(a, pages*PageSize, d)
				want = perPage(a, pages, func(p VAddr) bool { return twin.SetPdom(p, d) })
				for p, e := range ref {
					if inRange(p) {
						e.Pdom = d
						ref[p] = e
					}
				}
			case opUnmapRange:
				got = pt.UnmapRange(a, pages*PageSize)
				want = perPage(a, pages, twin.Unmap)
				for p := range ref {
					if inRange(p) {
						delete(ref, p)
					}
				}
			case opSetWritableRange:
				// Pages under a disabled PMD entry walk as not-present
				// and keep their bit.
				for p, e := range ref {
					if inRange(p) && !pt.PMDDisabled(p) {
						e.Writable = w
						ref[p] = e
					}
				}
				got = pt.SetWritableRange(a, pages*PageSize, w)
				want = perPage(a, pages, func(p VAddr) bool { return twin.SetWritable(p, w) })
			case opMapChunk:
				pages = min(pages, uint64(a.PMDAlign()+PMDSize-a)/PageSize)
				frames := make([]Frame, pages)
				for j := range frames {
					frames[j] = Frame(hi)<<16 | Frame(lo)<<8 + Frame(j)
				}
				pt.MapChunk(a, frames, w, d)
				m.materialize(a)
				m.disable[uint64(a)>>PMDShift] = false
				for j, fr := range frames {
					p := a + VAddr(j*PageSize)
					twin.ResetCounts()
					twin.Map(p, fr, w, d)
					ref[p] = PTE{Frame: fr, Present: true, Writable: w, Pdom: d}
				}
			}
			if got != want {
				t.Fatalf("op %d (%d at %#x, %d pages) returned %d, per-page %d",
					i/3, op%numOps, uint64(a), pages, got, want)
			}
			sameTable(t, i/3, pt, twin)
			checkProbes(t, i/3, pt, m)
		}
		// Present() equals the reference count.
		if pt.Present() != len(ref) {
			t.Fatalf("Present = %d, ref = %d", pt.Present(), len(ref))
		}
		// The snapshot is a fixed point and reproduces every walk,
		// disabled PMD entries included.
		restored := roundTrip(t, pt)
		for a := range ref {
			if g, w := restored.Walk(a), m.walk(a); g != w {
				t.Fatalf("restored walk(%#x) = %+v, model %+v", uint64(a), g, w)
			}
		}
		checkProbes(t, -1, restored, m)
		// Every reference entry is found by a walk (modulo PMD
		// disables, which hide but never lose entries; the model's
		// walks above pin the disabled ones).
		for a, want := range ref {
			pt.EnablePMD(a) // unhide for verification
			wr := pt.Walk(a)
			if !wr.Present || wr.PTE != want {
				t.Fatalf("walk(%#x) = %+v, want %+v", uint64(a), wr, want)
			}
		}
	})
}
