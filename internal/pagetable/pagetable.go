// Package pagetable implements the 4-level radix page tables of the
// simulated machine, including the per-PTE memory-domain tags that Intel
// MPK and ARM Memory Domain attach to translations, and the PMD-disable
// fast path VDom uses to evict 2 MiB-spanning domains cheaply.
//
// The package is purely structural: operations return *counts* of PTE/PMD
// writes and walk depths; charging cycles for them is the caller's job
// (internal/hw and internal/kernel), keeping the cost model in one place.
//
// # Representation
//
// The radix levels are stored as index-addressed node arrays rather than
// pointer-linked tables: every directory entry is a nonzero int32 that
// locates its child in the next level's node store (0 means absent). The
// nodes hold no pointers, so the garbage collector never scans them,
// installing an entry needs no write barrier, and a walk is a handful of
// array indexations. Nodes are never freed — matching real hardware,
// where an unmapped-but-materialized page table still adds a walk level —
// so entries stay valid for a table's lifetime.
//
// The pud and pmd levels are contiguous slices indexed by entry-1: a
// table has few of them and they rarely grow. The leaf level, which grows
// with every 2 MiB a table touches, lives in slabs that are never copied:
// slab s holds 1<<s leaves up to a cap of 16 (64 KiB), and a pmd entry
// holds the leaf's (slab<<4 | offset)+1. Materializing a leaf allocates
// only when it opens a new slab, nothing is ever copied or zeroed twice,
// and a leaf pointer stays valid for the table's lifetime. The doubling
// keeps one-leaf tables at one 4 KiB allocation; the cap bounds the
// unused tail of the last slab at 15 leaves. A leaf is exactly 4 KiB, a
// Go size class, so small slabs waste nothing to rounding.
//
// Range operations (RetagRange, EvictRange, RemapRange, UnmapRange,
// SetWritableRange, MapChunk, PopulateChunk) descend the radix once per
// leaf table instead of once per page, but keep counter and generation
// accounting identical to the equivalent loop over the per-page
// primitives (SetPdom, Unmap, SetWritable, Map). Those primitives are the
// reference: FuzzTableOps runs RetagRange, UnmapRange, SetWritableRange
// and MapChunk against that loop on a twin table and compares the two
// tables byte for byte after each op. EvictRange and RemapRange are built
// from RetagRange and the PMD primitives; mm's FuzzPopulate checks
// PopulateChunk against the demand-fault loop.
package pagetable

import "fmt"

// Virtual address geometry (x86-64-style 4-level, 4 KiB pages). The ARM
// model reuses the same geometry; its 2 MiB domain granularity is enforced
// a level up, in the kernel.
const (
	PageShift = 12
	// PageSize is the size of one page in bytes.
	PageSize = 1 << PageShift
	// EntriesPerTable is the fan-out of every table level.
	EntriesPerTable = 512
	// PMDShift is the shift of one page-middle-directory entry (2 MiB).
	PMDShift = PageShift + 9
	// PMDSize is the bytes covered by one PMD entry.
	PMDSize = 1 << PMDShift
	// Levels is the number of radix levels (pgd, pud, pmd, pt).
	Levels = 4
	// AddrBits is the number of meaningful virtual-address bits.
	AddrBits = PageShift + 9*Levels
)

// VAddr is a virtual address in the simulated machine.
type VAddr uint64

// Frame is a physical frame number.
type Frame uint64

// Pdom is a hardware protection-domain identifier (0..15).
type Pdom uint8

// VPN returns the virtual page number of the address.
func (a VAddr) VPN() uint64 { return uint64(a) >> PageShift }

// PageAlign rounds the address down to a page boundary.
func (a VAddr) PageAlign() VAddr { return a &^ (PageSize - 1) }

// PMDAlign rounds the address down to a 2 MiB boundary.
func (a VAddr) PMDAlign() VAddr { return a &^ (PMDSize - 1) }

// PTE is one page-table entry: a translation plus its domain tag.
type PTE struct {
	Frame    Frame
	Present  bool
	Writable bool
	Pdom     Pdom
}

// pudNode is one page-upper-directory: 512 pmd references.
type pudNode struct {
	pmds [EntriesPerTable]int32 // index+1 into Table.pmds; 0 = absent
}

// pmdNode is one page-middle-directory: 512 leaf-table references plus
// the per-entry disabled bitmap of VDom's §5.5 eviction fast path.
type pmdNode struct {
	pts [EntriesPerTable]int32 // leaf handle (see Table.leaf); 0 = absent
	// disabled marks PMD entries VDom has made access-never without
	// touching the 512 PTEs underneath (§5.5 page-table optimization).
	disabled [EntriesPerTable / 64]uint64
}

func (p *pmdNode) isDisabled(i1 int) bool {
	return p.disabled[i1>>6]&(1<<(uint(i1)&63)) != 0
}

func (p *pmdNode) setDisabled(i1 int, v bool) {
	if v {
		p.disabled[i1>>6] |= 1 << (uint(i1) & 63)
	} else {
		p.disabled[i1>>6] &^= 1 << (uint(i1) & 63)
	}
}

// ptNode is one leaf page table. Entries are stored packed (one machine
// word each, see packedPTE) so a leaf costs exactly 4 KiB instead of 8:
// half the zeroing when nodes materialize, and a size the allocator
// serves without rounding.
type ptNode struct {
	ptes [EntriesPerTable]packedPTE
}

// packedPTE is the in-node encoding of a PTE: bit 0 present, bit 1
// writable, bits 2..9 the pdom, bits 10..63 the frame number. The zero
// value is the absent entry, exactly like the zero PTE.
type packedPTE uint64

const (
	pteP        packedPTE = 1 << 0
	pteW        packedPTE = 1 << 1
	ptePdomMask packedPTE = 0xff << 2
)

// setWritable flips the packed writable bit.
func (p *packedPTE) setWritable(w bool) {
	if w {
		*p |= pteW
	} else {
		*p &^= pteW
	}
}

// packPTE encodes e into its storage form.
func packPTE(e PTE) packedPTE {
	v := packedPTE(e.Frame)<<10 | packedPTE(e.Pdom)<<2
	if e.Present {
		v |= pteP
	}
	if e.Writable {
		v |= pteW
	}
	return v
}

// unpack decodes the storage form back into the public PTE view.
func (p packedPTE) unpack() PTE {
	return PTE{
		Frame:    Frame(p >> 10),
		Present:  p&pteP != 0,
		Writable: p&pteW != 0,
		Pdom:     Pdom(p >> 2),
	}
}

// Table is one address space's page table, rooted at a pgd. The radix is
// index-addressed: pgd/pud/pmd entries hold int32 locations (offset by
// one, zero meaning absent) in the node stores, so the nodes are
// pointer-free and walks touch only dense arrays.
type Table struct {
	pgd  [EntriesPerTable]int32 // index+1 into puds; 0 = absent
	puds []pudNode
	pmds []pmdNode
	// leaves holds the leaf slabs. Slab s holds min(1<<s, leafSlabMax)
	// leaves; its backing array is allocated whole when its first leaf
	// materializes and its length counts the leaves in use. The slab
	// directory starts on leafDir, so a table of up to len(leafDir)
	// slabs allocates no directory.
	leaves  [][]ptNode
	leafDir [4][]ptNode

	present int

	// PTEWrites and PMDWrites count structural updates since the last
	// ResetCounts. The memory-management layer converts them to cycles.
	PTEWrites uint64
	PMDWrites uint64

	// retiredPTE/retiredPMD accumulate counts cleared by ResetCounts, so
	// cumulative totals survive the per-operation reset protocol.
	retiredPTE uint64
	retiredPMD uint64

	// gen increments on every structural mutation (Map, Unmap, SetPdom,
	// SetWritable, DisablePMD, EnablePMD, and the range operations built
	// on them). Translation caches key their validity on it: a cached
	// Walk result is reusable iff the table's generation is unchanged.
	gen uint64

	// curCoord/curPT/curPMD memoize the leaf resolved by the last
	// ensurePT so dense same-2MiB mutation runs (populate, retag) skip
	// the radix descent. curPT == 0 means no memo. Links from pmd to pt
	// are never severed (Unmap keeps the skeleton), and every caller
	// rechecks the disabled bit through the returned pmd, so the memo
	// needs no invalidation; ReadState's full reset clears it.
	curCoord uint64
	curPT    int32
	curPMD   int32
}

// Gen returns the table's mutation generation. It changes whenever any
// operation that could alter a Walk outcome runs, so callers may reuse a
// cached WalkResult as long as Gen is unchanged.
func (t *Table) Gen() uint64 { return t.gen }

// New returns an empty page table.
func New() *Table {
	return &Table{}
}

// Present returns the number of present PTEs.
func (t *Table) Present() int { return t.present }

// ResetCounts zeroes the PTE/PMD write counters.
func (t *Table) ResetCounts() {
	t.retiredPTE += t.PTEWrites
	t.retiredPMD += t.PMDWrites
	t.PTEWrites = 0
	t.PMDWrites = 0
}

// CumulativePTEWrites returns the table's lifetime PTE write count,
// unaffected by ResetCounts.
func (t *Table) CumulativePTEWrites() uint64 { return t.retiredPTE + t.PTEWrites }

// CumulativePMDWrites returns the table's lifetime PMD write count,
// unaffected by ResetCounts.
func (t *Table) CumulativePMDWrites() uint64 { return t.retiredPMD + t.PMDWrites }

// WalkResult describes the outcome of a page walk.
type WalkResult struct {
	// PTE is the entry found; only meaningful when Present.
	PTE PTE
	// Present reports whether a present translation exists.
	Present bool
	// PMDDisabled reports that the walk hit a PMD entry VDom disabled;
	// the access must fault even though PTEs may exist underneath.
	PMDDisabled bool
	// LevelsVisited is the number of table levels the walker touched
	// (1..4); hardware charges walk cost proportionally.
	LevelsVisited int
}

// Walk performs a page-table walk for the address.
func (t *Table) Walk(a VAddr) WalkResult {
	v := uint64(a)
	pi := t.pgd[v>>39&0x1ff]
	if pi == 0 {
		return WalkResult{LevelsVisited: 1}
	}
	mi := t.puds[pi-1].pmds[v>>30&0x1ff]
	if mi == 0 {
		return WalkResult{LevelsVisited: 2}
	}
	pmd := &t.pmds[mi-1]
	i1 := int(v >> 21 & 0x1ff)
	if pmd.isDisabled(i1) {
		return WalkResult{LevelsVisited: 3, PMDDisabled: true}
	}
	ti := pmd.pts[i1]
	if ti == 0 {
		return WalkResult{LevelsVisited: 3}
	}
	pte := t.leaf(ti).ptes[v>>12&0x1ff]
	return WalkResult{PTE: pte.unpack(), Present: pte&pteP != 0, LevelsVisited: 4}
}

// pmdOf resolves the pmd node covering a, or nil.
func (t *Table) pmdOf(a VAddr) *pmdNode {
	v := uint64(a)
	pi := t.pgd[v>>39&0x1ff]
	if pi == 0 {
		return nil
	}
	mi := t.puds[pi-1].pmds[v>>30&0x1ff]
	if mi == 0 {
		return nil
	}
	return &t.pmds[mi-1]
}

// ptOf resolves the leaf page table covering a, or nil.
func (t *Table) ptOf(a VAddr) *ptNode {
	pmd := t.pmdOf(a)
	if pmd == nil {
		return nil
	}
	ti := pmd.pts[uint64(a)>>21&0x1ff]
	if ti == 0 {
		return nil
	}
	return t.leaf(ti)
}

// leafSlabShift caps leaf slabs at leafSlabMax leaves (64 KiB). Slabs
// double up to the cap, so a one-leaf table zeroes one leaf, and stay at
// the cap after it, so no table zeroes more than leafSlabMax-1 leaves it
// does not use (an uncapped doubling would zero 511 for 256).
const (
	leafSlabShift = 4
	leafSlabMax   = 1 << leafSlabShift
)

// leaf resolves a leaf handle, (slab<<leafSlabShift | offset) + 1, to
// its node.
func (t *Table) leaf(h int32) *ptNode {
	i := uint32(h) - 1
	return &t.leaves[i>>leafSlabShift][i&(leafSlabMax-1)]
}

// newLeaf materializes one zero leaf and returns its handle. Only the
// first leaf of a slab allocates; the rest of the slab is still the zero
// memory the allocator handed out, so no leaf is ever copied or cleared
// twice.
func (t *Table) newLeaf() int32 {
	s := len(t.leaves) - 1
	if s < 0 || len(t.leaves[s]) == cap(t.leaves[s]) {
		if t.leaves == nil {
			t.leaves = t.leafDir[:0]
		}
		s++
		t.leaves = append(t.leaves, make([]ptNode, 0, min(1<<s, leafSlabMax)))
	}
	off := len(t.leaves[s])
	t.leaves[s] = t.leaves[s][:off+1]
	return int32(s<<leafSlabShift|off) + 1
}

// appendNode appends one zero node to a directory-node array, growing the
// backing array fourfold when full. Only the pud and pmd levels use it:
// a table has few such nodes, so their occasional copy is cheap and keeps
// the walk's first levels a single indexation each. Within capacity it
// extends the length without writing: nodes are only ever appended, never
// removed (ReadState replaces the arrays wholesale), so the slack beyond
// len is still the pristine zero memory the allocator handed out. Pud and
// pmd pointers do not survive a call; indices do.
func appendNode[N any](nodes []N) []N {
	if len(nodes) == cap(nodes) {
		c := cap(nodes) * 4
		if c == 0 {
			c = 1
		}
		grown := make([]N, len(nodes), c)
		copy(grown, nodes)
		nodes = grown
	}
	return nodes[: len(nodes)+1 : cap(nodes)]
}

// materializePMD ensures the pud/pmd path for a pmd-entry coordinate
// (virtual address >> PMDShift) exists and returns the pmd's index+1
// together with the number of directory entries it installed.
func (t *Table) materializePMD(coord uint64) (mi int32, installs uint64) {
	i3 := int(coord >> 18 & 0x1ff)
	i2 := int(coord >> 9 & 0x1ff)
	pi := t.pgd[i3]
	if pi == 0 {
		t.puds = appendNode(t.puds)
		pi = int32(len(t.puds))
		t.pgd[i3] = pi
		installs++
	}
	mi = t.puds[pi-1].pmds[i2]
	if mi == 0 {
		t.pmds = appendNode(t.pmds)
		mi = int32(len(t.pmds))
		t.puds[pi-1].pmds[i2] = mi
		installs++
	}
	return mi, installs
}

// ensurePT materializes the path to the page table covering a and returns
// it together with the owning pmd node and the pmd index. Each directory
// install counts one PTE write, as before the flattening.
func (t *Table) ensurePT(a VAddr) (*ptNode, *pmdNode, int) {
	coord := uint64(a) >> PMDShift
	i1 := int(coord & 0x1ff)
	if t.curPT != 0 && t.curCoord == coord {
		return t.leaf(t.curPT), &t.pmds[t.curPMD-1], i1
	}
	mi, installs := t.materializePMD(coord)
	t.PTEWrites += installs
	pmd := &t.pmds[mi-1]
	ti := pmd.pts[i1]
	if ti == 0 {
		ti = t.newLeaf()
		pmd.pts[i1] = ti
		t.PTEWrites++
	}
	t.curCoord = coord
	t.curPT = ti
	t.curPMD = mi
	return t.leaf(ti), pmd, i1
}

// Map installs a translation for the page containing a. Mapping a page
// under a disabled PMD re-enables that PMD entry (one PMD write), matching
// the remap path of VDom's HLRU policy.
func (t *Table) Map(a VAddr, f Frame, writable bool, d Pdom) {
	t.gen++
	pt, pmd, i1 := t.ensurePT(a)
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		t.PMDWrites++
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if pt.ptes[i0]&pteP == 0 {
		t.present++
	}
	pt.ptes[i0] = packPTE(PTE{Frame: f, Present: true, Writable: writable, Pdom: d})
	t.PTEWrites++
}

// Unmap removes the translation for the page containing a. It reports
// whether a present mapping existed. Unlike Walk, Unmap reaches PTEs under
// a disabled PMD entry (revocation must not be maskable by an eviction).
func (t *Table) Unmap(a VAddr) bool {
	t.gen++
	pt := t.ptOf(a)
	if pt == nil {
		return false
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if pt.ptes[i0]&pteP == 0 {
		return false
	}
	pt.ptes[i0] = 0
	t.present--
	t.PTEWrites++
	return true
}

// SetPdom retags the page containing a with domain d. It reports whether a
// present mapping existed. Retagging a page under a disabled PMD re-enables
// the PMD entry.
func (t *Table) SetPdom(a VAddr, d Pdom) bool {
	t.gen++
	pmd := t.pmdOf(a)
	if pmd == nil {
		return false
	}
	i1 := int(uint64(a) >> 21 & 0x1ff)
	ti := pmd.pts[i1]
	if ti == 0 {
		return false
	}
	pt := t.leaf(ti)
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if pt.ptes[i0]&pteP == 0 {
		return false
	}
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		t.PMDWrites++
	}
	pt.ptes[i0] = pt.ptes[i0]&^ptePdomMask | packedPTE(d)<<2
	t.PTEWrites++
	return true
}

// SetWritable flips the writable bit of the page containing a. A page
// whose PMD entry is disabled walks as not-present and is left untouched.
func (t *Table) SetWritable(a VAddr, w bool) bool {
	t.gen++
	wr := t.Walk(a)
	if !wr.Present {
		return false
	}
	pt := t.ptOf(a)
	pt.ptes[uint64(a)>>12&0x1ff].setWritable(w)
	t.PTEWrites++
	return true
}

// DisablePMD marks the 2 MiB PMD entry covering a as access-never without
// touching its PTEs. It reports whether the entry existed and was enabled.
func (t *Table) DisablePMD(a VAddr) bool {
	t.gen++
	pmd := t.pmdOf(a)
	i1 := int(uint64(a) >> 21 & 0x1ff)
	if pmd == nil || pmd.pts[i1] == 0 || pmd.isDisabled(i1) {
		return false
	}
	pmd.setDisabled(i1, true)
	t.PMDWrites++
	return true
}

// EnablePMD clears the disabled mark on the PMD entry covering a.
func (t *Table) EnablePMD(a VAddr) bool {
	t.gen++
	pmd := t.pmdOf(a)
	i1 := int(uint64(a) >> 21 & 0x1ff)
	if pmd == nil || !pmd.isDisabled(i1) {
		return false
	}
	pmd.setDisabled(i1, false)
	t.PMDWrites++
	return true
}

// PMDDisabled reports whether the PMD entry covering a is disabled.
func (t *Table) PMDDisabled(a VAddr) bool {
	pmd := t.pmdOf(a)
	return pmd != nil && pmd.isDisabled(int(uint64(a)>>21&0x1ff))
}

// RetagRange retags every present page in [start, start+length) with d and
// returns the number of pages retagged. length must be page-aligned.
//
// It descends the radix once per 2 MiB leaf instead of once per page; its
// counter and generation accounting is exactly that of a SetPdom loop
// (one generation bump per page scanned, one PTE write per present page,
// one PMD write when the first present page under a disabled PMD entry
// re-enables it).
func (t *Table) RetagRange(start VAddr, length uint64, d Pdom) int {
	checkAligned(start, length)
	n := 0
	end := start + VAddr(length)
	for a := start; a < end; {
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		pages := uint64(chunk-a) / PageSize
		t.gen += pages // one SetPdom call per page
		pmd := t.pmdOf(a)
		if pmd == nil {
			a = chunk
			continue
		}
		i1 := int(uint64(a) >> 21 & 0x1ff)
		ti := pmd.pts[i1]
		if ti == 0 {
			a = chunk
			continue
		}
		pt := t.leaf(ti)
		i0 := int(uint64(a) >> 12 & 0x1ff)
		disabled := pmd.isDisabled(i1) // loop-invariant until first present page
		pp := pt.ptes[i0 : i0+int(pages)]
		cnt := 0
		tag := packedPTE(d) << 2
		for j := range pp {
			if pp[j]&pteP == 0 {
				continue
			}
			if disabled {
				pmd.setDisabled(i1, false)
				t.PMDWrites++
				disabled = false
			}
			pp[j] = pp[j]&^ptePdomMask | tag
			cnt++
		}
		t.PTEWrites += uint64(cnt)
		n += cnt
		a = chunk
	}
	return n
}

// PopulateChunk eagerly maps every non-present page of the aligned run
// [a, a+pages*PageSize), which must not cross a 2 MiB boundary. Fresh
// frames come from a single alloc(n) call — frames for absent pages are
// assigned in ascending page order, exactly as one allocation per fault
// would. frames[i] receives the frame backing page i afterwards, present
// pages included. writable pages whose PTE carries a stale write-protect
// bit are repaired in place. It returns the number of pages freshly
// mapped.
//
// The operation is the fused equivalent of the demand-fault loop: for
// each page it performs exactly the counter-reset, map, and repair
// sequence HandleFault would, so generations, write counters (current
// and cumulative), and frame assignment are bit-identical to pages
// faulted one at a time. The per-page counter windows are tracked in
// locals (curP/curM are the live window, retP/retM the windows already
// retired by later pages' resets) and written back once at the end;
// nothing can observe the table mid-operation, so only the final counter
// state matters.
func (t *Table) PopulateChunk(a VAddr, pages int, writable bool, d Pdom, alloc func(n int) Frame, frames []Frame) int {
	i1 := int(uint64(a) >> 21 & 0x1ff)
	i0 := int(uint64(a) >> 12 & 0x1ff)
	pmd := t.pmdOf(a)
	var pt *ptNode
	disabled := false
	if pmd != nil {
		disabled = pmd.isDisabled(i1)
		if ti := pmd.pts[i1]; ti != 0 {
			pt = t.leaf(ti)
		}
	}
	// Count the pages that will fault fresh frames, then allocate them in
	// one call. A disabled PMD entry makes the first page remap fresh
	// regardless of its PTE (it walks as not-present); the pages after it
	// see the entry re-enabled.
	fresh := 0
	switch {
	case pt == nil:
		fresh = pages
	case disabled:
		fresh = 1
		for j := 1; j < pages; j++ {
			if pt.ptes[i0+j]&pteP == 0 {
				fresh++
			}
		}
	default:
		for j := 0; j < pages; j++ {
			if pt.ptes[i0+j]&pteP == 0 {
				fresh++
			}
		}
	}
	var next Frame
	if fresh > 0 {
		next = alloc(fresh)
	}
	tmpl := packPTE(PTE{Present: true, Writable: writable, Pdom: d})
	if pt == nil && pages > 0 {
		// Whole chunk faults fresh pages into a just-materialized page
		// table — the dominant case when populating new areas. The
		// counter evolution is deterministic here, so compute it in
		// closed form and reduce the loop to pure PTE stores: page 0's
		// window holds the directory installs and its own write; every
		// later page's reset retires exactly one write.
		retP, retM := t.PTEWrites, t.PMDWrites // pre-op window, retired by page 0's reset
		t.PTEWrites, t.PMDWrites = 0, 0
		pt, pmd, _ = t.ensurePT(a)
		e := t.PTEWrites // directory installs charged by ensurePT
		var m uint64
		if pmd.isDisabled(i1) {
			pmd.setDisabled(i1, false)
			m = 1
		}
		v := tmpl | packedPTE(next)<<10
		pp := pt.ptes[i0 : i0+pages]
		for j := range pp {
			pp[j] = v
			v += 1 << 10
			frames[j] = next
			next++
		}
		if pages == 1 {
			t.PTEWrites, t.PMDWrites = e+1, m
		} else {
			t.PTEWrites, t.PMDWrites = 1, 0
			retP += e + uint64(pages-1)
			retM += m
		}
		t.retiredPTE += retP
		t.retiredPMD += retM
		t.gen += uint64(pages)
		t.present += pages
		return fresh
	}
	curP, curM := t.PTEWrites, t.PMDWrites
	var retP, retM, gen uint64
	newPresent := 0
	for j := 0; j < pages; j++ {
		if pt != nil && !disabled {
			if pte := &pt.ptes[i0+j]; *pte&pteP != 0 {
				frames[j] = Frame(*pte >> 10)
				if writable && *pte&pteW == 0 {
					// SetWritable, inlined: reset, bump, repair.
					retP += curP
					retM += curM
					curM = 0
					gen++
					*pte |= pteW
					curP = 1
				}
				continue
			}
		}
		// Absent (or shadowed by a disabled PMD entry): map the next
		// fresh frame, exactly as a ResetCounts+Map pair would — the
		// leaf page table materializes inside the first absent page's
		// counter window, where Map's ensurePT would charge it.
		frames[j] = next
		retP += curP
		retM += curM
		curP, curM = 0, 0
		gen++
		if pt == nil {
			// ensurePT charges directory installs to the table's live
			// counters; sync the local window across the call.
			t.PTEWrites, t.PMDWrites = curP, curM
			pt, pmd, _ = t.ensurePT(a)
			curP, curM = t.PTEWrites, t.PMDWrites
			disabled = pmd.isDisabled(i1)
		}
		if disabled {
			pmd.setDisabled(i1, false)
			curM++
			disabled = false
		}
		pte := &pt.ptes[i0+j]
		if *pte&pteP == 0 {
			newPresent++
		}
		*pte = tmpl | packedPTE(next)<<10
		next++
		curP++
	}
	t.PTEWrites, t.PMDWrites = curP, curM
	t.retiredPTE += retP
	t.retiredPMD += retM
	t.gen += gen
	t.present += newPresent
	return fresh
}

// MapChunk installs frames[j] for every page of the aligned run
// [a, a+len(frames)*PageSize), which must not cross a 2 MiB boundary. It
// is the fused equivalent of a ResetCounts+Map call per page, with
// identical generation and counter accounting: directory nodes (and any
// PMD re-enable) are charged inside the first page's window, where Map
// would put them, and each later page's reset retires exactly one PTE
// write — a deterministic evolution the method applies in closed form
// around a pure store loop.
func (t *Table) MapChunk(a VAddr, frames []Frame, writable bool, d Pdom) {
	n := len(frames)
	if n == 0 {
		return
	}
	i1 := int(uint64(a) >> 21 & 0x1ff)
	i0 := int(uint64(a) >> 12 & 0x1ff)
	hadPT := false
	if pmd := t.pmdOf(a); pmd != nil && pmd.pts[i1] != 0 {
		hadPT = true
	}
	retP, retM := t.PTEWrites, t.PMDWrites // pre-op window, retired by page 0's reset
	t.PTEWrites, t.PMDWrites = 0, 0
	pt, pmd, _ := t.ensurePT(a)
	e := t.PTEWrites // directory installs charged by ensurePT
	var m uint64
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		m = 1
	}
	tmpl := packPTE(PTE{Present: true, Writable: writable, Pdom: d})
	pp := pt.ptes[i0 : i0+n]
	newPresent := 0
	if !hadPT {
		// Freshly materialized page table: every entry is absent.
		for j := range pp {
			pp[j] = tmpl | packedPTE(frames[j])<<10
		}
		newPresent = n
	} else {
		for j := range pp {
			if pp[j]&pteP == 0 {
				newPresent++
			}
			pp[j] = tmpl | packedPTE(frames[j])<<10
		}
	}
	if n == 1 {
		t.PTEWrites, t.PMDWrites = e+1, m
	} else {
		t.PTEWrites, t.PMDWrites = 1, 0
		retP += e + uint64(n-1)
		retM += m
	}
	t.retiredPTE += retP
	t.retiredPMD += retM
	t.gen += uint64(n)
	t.present += newPresent
}

// UnmapRange removes every present translation in [start, start+length)
// and returns the number of pages unmapped. length must be page-aligned.
// Equivalent to calling Unmap on each page (PTEs under disabled PMD
// entries are unmapped too), with one radix descent per leaf.
func (t *Table) UnmapRange(start VAddr, length uint64) int {
	checkAligned(start, length)
	n := 0
	end := start + VAddr(length)
	for a := start; a < end; {
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		pages := uint64(chunk-a) / PageSize
		t.gen += pages
		pt := t.ptOf(a)
		if pt == nil {
			a = chunk
			continue
		}
		i0 := int(uint64(a) >> 12 & 0x1ff)
		for ; a < chunk; a, i0 = a+PageSize, i0+1 {
			if pt.ptes[i0]&pteP == 0 {
				continue
			}
			pt.ptes[i0] = 0
			t.present--
			t.PTEWrites++
			n++
		}
	}
	return n
}

// SetWritableRange flips the writable bit of every present page in
// [start, start+length) and returns the number of pages updated. length
// must be page-aligned. Equivalent to calling SetWritable on each page:
// pages under a disabled PMD entry walk as not-present and are skipped.
func (t *Table) SetWritableRange(start VAddr, length uint64, w bool) int {
	checkAligned(start, length)
	n := 0
	end := start + VAddr(length)
	for a := start; a < end; {
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		pages := uint64(chunk-a) / PageSize
		t.gen += pages
		pmd := t.pmdOf(a)
		if pmd == nil {
			a = chunk
			continue
		}
		i1 := int(uint64(a) >> 21 & 0x1ff)
		if pmd.isDisabled(i1) { // walks as not-present: skipped
			a = chunk
			continue
		}
		ti := pmd.pts[i1]
		if ti == 0 {
			a = chunk
			continue
		}
		pt := t.leaf(ti)
		i0 := int(uint64(a) >> 12 & 0x1ff)
		for ; a < chunk; a, i0 = a+PageSize, i0+1 {
			if pt.ptes[i0]&pteP == 0 {
				continue
			}
			pt.ptes[i0].setWritable(w)
			t.PTEWrites++
			n++
		}
	}
	return n
}

// EvictRange makes [start, start+length) inaccessible for a domain
// eviction. Full 2 MiB-aligned chunks are disabled at the PMD level (one
// PMD write per 2 MiB, the §5.5 optimization); partial chunks fall back to
// per-PTE retagging with the access-never domain. It returns the number of
// PMD entries disabled and PTEs retagged.
func (t *Table) EvictRange(start VAddr, length uint64, accessNever Pdom) (pmds, ptes int) {
	checkAligned(start, length)
	end := start + VAddr(length)
	a := start
	for a < end {
		if a == a.PMDAlign() && uint64(end-a) >= PMDSize {
			// A PMD entry with no leaf under it, or one already
			// disabled, has nothing to evict.
			if t.DisablePMD(a) {
				pmds++
			}
			a += PMDSize
			continue
		}
		// Partial chunk: per-PTE retag up to the next 2 MiB boundary or
		// the end of the range.
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		ptes += t.RetagRange(a, uint64(chunk-a), accessNever)
		a = chunk
	}
	return pmds, ptes
}

// RemapRange is the inverse of EvictRange for the HLRU fast-remap path
// (§5.5): full 2 MiB-aligned chunks whose PTEs still carry the target
// domain tag are brought back by re-enabling their PMD entries (one PMD
// write each); partial chunks are retagged per PTE. It returns the number
// of PMD entries enabled and PTEs retagged.
func (t *Table) RemapRange(start VAddr, length uint64, d Pdom) (pmds, ptes int) {
	checkAligned(start, length)
	end := start + VAddr(length)
	a := start
	for a < end {
		if a == a.PMDAlign() && uint64(end-a) >= PMDSize {
			if t.EnablePMD(a) {
				pmds++
			}
			a += PMDSize
			continue
		}
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		ptes += t.RetagRange(a, uint64(chunk-a), d)
		a = chunk
	}
	return pmds, ptes
}

// Pages calls fn for every present PTE, in ascending address order. fn may
// not mutate the table.
func (t *Table) Pages(fn func(a VAddr, pte PTE)) {
	for i3, pi := range t.pgd {
		if pi == 0 {
			continue
		}
		pud := &t.puds[pi-1]
		for i2, mi := range pud.pmds {
			if mi == 0 {
				continue
			}
			pmd := &t.pmds[mi-1]
			for i1, ti := range pmd.pts {
				if ti == 0 {
					continue
				}
				pt := t.leaf(ti)
				for i0 := range pt.ptes {
					if pt.ptes[i0]&pteP == 0 {
						continue
					}
					a := VAddr(uint64(i3)<<39 | uint64(i2)<<30 |
						uint64(i1)<<21 | uint64(i0)<<12)
					fn(a, pt.ptes[i0].unpack())
				}
			}
		}
	}
}

func checkAligned(start VAddr, length uint64) {
	if uint64(start)%PageSize != 0 || length%PageSize != 0 {
		panicUnaligned(start, length)
	}
}

// panicUnaligned keeps the cold panic construction out of the aligned-path
// inline budget of checkAligned's callers.
//
//go:noinline
func panicUnaligned(start VAddr, length uint64) {
	panic(fmt.Sprintf("pagetable: unaligned range [%#x, +%#x)", uint64(start), length))
}
