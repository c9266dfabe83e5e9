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
// The simulated walk has four levels, but only the pmd and leaf levels
// are stored as nodes. The pgd and pud levels above them are one sorted
// directory of (key, pmd node) entries, keyed by the 1 GiB region an
// entry covers (virtual address >> 30, that is pgd index<<9 | pud index),
// in the manner of the variable-size blocks of VBI: a table pays for the
// regions it uses, not for two 512-entry arrays per path. The first
// entries live inside the Table, so a table that touches one or two
// regions allocates no directory; a lookup is a binary search. A miss
// still reports the levels the radix walk would visit: the pud level is
// present exactly when some entry shares the missing key's pgd index, and
// such an entry sits next to the key's insertion point.
//
// A leaf page table comes in two forms, told apart by the sign of its pmd
// entry. It starts as a run leaf (negative entry): up to leafRuns runs,
// each n present pages from index lo whose entries share a writable bit
// and a pdom and whose frames ascend by one from a base, in the manner of
// a segment descriptor. A populated 2 MiB domain is therefore one 16-byte
// run, not a zeroed 4 KiB leaf plus 512 PTE stores; retagging the whole
// domain rewrites one run, and mapping the page after a run with the next
// frame and the same tags extends it. Edits keep runs sorted, disjoint
// and maximal (a run never continues its predecessor). The first edit
// whose result needs more than leafRuns runs expands the leaf into a flat
// one (positive entry) of 512 packed PTEs. A leaf never shrinks back
// while the table lives; ReadState rebuilds every leaf that fits as runs.
// Nothing outside this package sees the form: every count, generation,
// Walk result and snapshot byte is the same for both.
//
// Pmd nodes, run leaves and flat leaves each live in one store of slabs
// that are never copied: slab s holds 1<<s nodes up to a cap of 16. A pmd
// entry holds its leaf's (slab<<4 | offset)+1, or its complement
// ^(slab<<4 | offset) for a run leaf; a directory entry points at its pmd
// node. Materializing a node allocates only when it opens a new slab,
// nothing is ever copied or zeroed twice, and a node pointer stays valid
// for the table's lifetime (an expanded run node is left cleared). The
// doubling keeps one-leaf tables at one small allocation per store; the
// cap bounds the unused tail of the last slab at 15 nodes. A flat leaf
// is exactly 4 KiB and a run leaf 128 bytes, both Go size classes, so
// small slabs waste nothing to rounding. The nodes hold no pointers, so
// the garbage collector never scans them, and installing a leaf needs no
// write barrier. Nodes are never freed — matching real hardware, where
// an unmapped-but-materialized page table still adds a walk level — so
// entries stay valid for a table's lifetime.
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

import (
	"fmt"
	"slices"
)

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

// dirShift is the shift of one directory entry's region (1 GiB): a
// directory key is a virtual address >> dirShift, the pgd index<<9 | the
// pud index.
const (
	dirShift   = PMDShift + 9
	dirKeyMask = 1<<(AddrBits-dirShift) - 1
)

// dirKey returns the directory key of the region covering a, masked to
// the walked address bits as the radix indices are.
func dirKey(a VAddr) uint32 { return uint32(uint64(a)>>dirShift) & dirKeyMask }

// dirEntry is one directory entry: the pmd node of the region key.
type dirEntry struct {
	key uint32
	pmd *pmdNode
}

// pmdNode is one page-middle-directory: 512 leaf-table references plus
// the per-entry disabled bitmap of VDom's §5.5 eviction fast path.
type pmdNode struct {
	pts [EntriesPerTable]int32 // leaf handle (see Table.leaf, Table.runLeaf); 0 = absent
	// disabled marks PMD entries VDom has made access-never without
	// touching the 512 PTEs underneath (§5.5 page-table optimization).
	disabled [EntriesPerTable / 64]uint64
}

func (p *pmdNode) isDisabled(i1 int) bool {
	return p.disabled[uint(i1)>>6%uint(len(p.disabled))]&(1<<(uint(i1)&63)) != 0
}

func (p *pmdNode) setDisabled(i1 int, v bool) {
	if v {
		p.disabled[i1>>6] |= 1 << (uint(i1) & 63)
	} else {
		p.disabled[i1>>6] &^= 1 << (uint(i1) & 63)
	}
}

// ptNode is one flat leaf page table. Entries are stored packed (one
// machine word each, see packedPTE) so a leaf costs exactly 4 KiB instead
// of 8: half the zeroing when nodes materialize, and a size the allocator
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
	// pteFrame1 is frame one in packed form: adding it steps to the next
	// frame.
	pteFrame1 packedPTE = 1 << 10
)

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

// writableBit is w as a packed writable bit.
func writableBit(w bool) packedPTE {
	if w {
		return pteW
	}
	return 0
}

// leafRuns is the most runs a run leaf holds. DPTI demand-faults four
// separate pages of every domain it enters, so it must be at least four;
// eight fills a 128-byte size class.
const leafRuns = 8

// run is n present pages from leaf index lo whose entries share one
// writable bit and one pdom and step by one frame: page i holds base
// advanced by i frames. base is thus the entry index 0 would hold (its
// frame wraps modulo the frame field), which makes a lookup one add and
// slicing free.
type run struct {
	base  packedPTE
	lo, n uint16
}

// newRun returns the run of n pages from leaf index lo whose first entry
// is first.
func newRun(first packedPTE, lo, n int) run {
	return run{base: first - packedPTE(lo)*pteFrame1, lo: uint16(lo), n: uint16(n)}
}

func (r run) end() int { return int(r.lo) + int(r.n) }

// first returns the entry of page lo.
func (r run) first() packedPTE { return r.base + packedPTE(r.lo)*pteFrame1 }

// slice returns the part of r covering leaf indices [lo, hi).
func (r run) slice(lo, hi int) run {
	return run{base: r.base, lo: uint16(lo), n: uint16(hi - lo)}
}

// continues reports whether r starts where p ends, on p's next frame and
// with p's tags, so the two are one run.
func (r run) continues(p run) bool {
	return p.end() == int(r.lo) && p.base == r.base
}

// runNode is a run leaf: its runs sorted by lo, disjoint and maximal. The
// first run with n == 0 ends the list.
type runNode struct {
	runs [leafRuns]run
}

// list returns the leaf's runs.
func (rn *runNode) list() []run {
	for i := range rn.runs {
		if rn.runs[i].n == 0 {
			return rn.runs[:i]
		}
	}
	return rn.runs[:]
}

// entry returns the packed entry at leaf index i0 (zero when absent).
// Unused slots are zero, so they never match.
func (rn *runNode) entry(i0 int) packedPTE {
	for i := range rn.runs {
		r := &rn.runs[i]
		if uint(i0-int(r.lo)) < uint(r.n) {
			return r.base + packedPTE(i0)*pteFrame1
		}
	}
	return 0
}

// count returns the number of present pages in [lo, hi).
func (rn *runNode) count(lo, hi int) int {
	n := 0
	for _, r := range rn.list() {
		if a, b := max(lo, int(r.lo)), min(hi, r.end()); a < b {
			n += b - a
		}
	}
	return n
}

// populated reports whether every page in [lo, hi) is present and, if
// writable is set, writable — a range PopulateChunk leaves untouched —
// and if so writes their frames to frames[0:hi-lo].
func (rn *runNode) populated(lo, hi int, writable bool, frames []Frame) bool {
	next := lo
	for _, r := range rn.list() {
		if next == hi {
			break
		}
		if r.end() <= next {
			continue
		}
		if int(r.lo) > next || writable && r.base&pteW == 0 {
			return false
		}
		f := Frame((r.base + packedPTE(next)*pteFrame1) >> 10)
		b := min(hi, r.end())
		fs := frames[next-lo : b-lo]
		for j := range fs {
			fs[j] = f + Frame(j)
		}
		next = b
	}
	return next == hi
}

// runList is the scratch list an edit builds. An edit adds at most two
// edge pieces to a full leaf, plus up to leafRuns inserted runs.
type runList struct {
	r [2*leafRuns + 2]run
	n int
}

// push appends r, merging it into the last run when it continues it.
func (l *runList) push(r run) {
	if l.n > 0 && r.continues(l.r[l.n-1]) {
		l.r[l.n-1].n += r.n
		return
	}
	l.r[l.n] = r
	l.n++
}

// edit rewrites leaf indices [lo, hi): the present pages there are dropped
// if drop is set and otherwise get pte&^clear|set (clear and set touch
// only the writable and pdom bits), then ins — sorted runs inside
// [lo, hi), at most leafRuns of them, given only with drop — is
// installed. It reports false, leaving the leaf unchanged, when the result
// needs more than leafRuns runs.
func (rn *runNode) edit(lo, hi int, clear, set packedPTE, drop bool, ins []run) bool {
	var l runList
	runs := rn.list()
	i := 0
	for ; i < len(runs) && runs[i].end() <= lo; i++ {
		l.push(runs[i])
	}
	var tail run // the part of the last overlapping run beyond hi
	for ; i < len(runs) && int(runs[i].lo) < hi; i++ {
		r := runs[i]
		a, b := max(lo, int(r.lo)), min(hi, r.end())
		if int(r.lo) < a {
			l.push(r.slice(int(r.lo), a))
		}
		if !drop {
			m := r.slice(a, b)
			m.base = m.base&^clear | set
			l.push(m)
		}
		if r.end() > b {
			tail = r.slice(b, r.end())
		}
	}
	for _, r := range ins {
		l.push(r)
	}
	if tail.n > 0 {
		l.push(tail)
	}
	for ; i < len(runs); i++ {
		l.push(runs[i])
	}
	return l.storeTo(rn)
}

// storeTo sets rn to the list and reports true, or reports false, leaving
// rn unchanged, when the list holds more than leafRuns runs.
func (l *runList) storeTo(rn *runNode) bool {
	if l.n > leafRuns {
		return false
	}
	rn.runs = [leafRuns]run{}
	copy(rn.runs[:], l.r[:l.n])
	return true
}

// store writes r's entries into pt.
func (r run) store(pt *ptNode) {
	v := r.first()
	pp := pt.ptes[r.lo:r.end()]
	for j := range pp {
		pp[j] = v
		v += pteFrame1
	}
}

// decode writes the leaf's entries into pt, whose other entries must be
// absent.
func (rn *runNode) decode(pt *ptNode) {
	for _, r := range rn.list() {
		r.store(pt)
	}
}

// encode sets the leaf to the runs of pt's entries. It reports false,
// leaving the leaf unchanged, when they need more than leafRuns runs.
func (rn *runNode) encode(pt *ptNode) bool {
	var l runList
	for i0, p := range pt.ptes[:] {
		if p&pteP == 0 {
			continue
		}
		if l.push(newRun(p, i0, 1)); l.n > leafRuns {
			return false
		}
	}
	return l.storeTo(rn)
}

// runsOf splits the frames of a MapChunk at leaf index i0 into runs of
// consecutive frames with the entry template tmpl. It reports false when
// they need more than leafRuns runs.
func runsOf(frames []Frame, i0 int, tmpl packedPTE, out *[leafRuns]run) (int, bool) {
	k, start := 0, 0
	for j := 1; j <= len(frames); j++ {
		if j < len(frames) && frames[j] == frames[j-1]+1 {
			continue
		}
		if k == leafRuns {
			return 0, false
		}
		out[k] = newRun(tmpl|packedPTE(frames[start])<<10, i0+start, j-start)
		k++
		start = j
	}
	return k, true
}

// leafSlabShift caps node slabs at leafSlabMax nodes. Slabs double up to
// the cap, so a one-leaf table zeroes one node, and stay at the cap after
// it, so no table zeroes more than leafSlabMax-1 nodes it does not use
// (an uncapped doubling would zero 511 for 256).
const (
	leafSlabShift = 4
	leafSlabMax   = 1 << leafSlabShift
)

// slabs is a store of pmd or leaf nodes. Slab s holds
// 1<<min(s, leafSlabShift) nodes; its backing array is allocated whole
// when its first node materializes and its length counts the nodes in
// use. The slab directory starts on dir, so a store of up to len(dir)
// slabs allocates no directory.
type slabs[N any] struct {
	s   [][]N
	dir [slabDirInline][]N
}

// slabDirInline is the number of slabs a store holds before it allocates
// a slab directory: two slabs hold three nodes.
const slabDirInline = 2

// at returns node i, slab<<leafSlabShift | offset.
func (p *slabs[N]) at(i uint32) *N {
	return &p.s[i>>leafSlabShift][i&(leafSlabMax-1)]
}

// add materializes one zero node and returns its index. Only the first
// node of a slab allocates; the rest of the slab is still the zero memory
// the allocator handed out, so no node is ever copied or cleared twice.
func (p *slabs[N]) add() uint32 {
	s := len(p.s) - 1
	if s < 0 || len(p.s[s]) == cap(p.s[s]) {
		if p.s == nil {
			p.s = p.dir[:0]
		}
		s++
		p.s = append(p.s, make([]N, 0, 1<<min(s, leafSlabShift)))
	}
	off := len(p.s[s])
	p.s[s] = p.s[s][:off+1]
	return uint32(s<<leafSlabShift | off)
}

// Table is one address space's page table: a sorted directory of pmd
// nodes standing for the pgd and pud levels, and the node stores below
// it (see the package comment).
type Table struct {
	// dir holds one entry per materialized pmd node, sorted by key. It
	// starts on dirBuf.
	dir    []dirEntry
	dirBuf [2]dirEntry
	// pmds holds the pmd nodes, runs the run leaves, leaves the flat
	// leaves.
	pmds   slabs[pmdNode]
	runs   slabs[runNode]
	leaves slabs[ptNode]

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

	// curCoord/curPT/curPMD memoize the leaf handle resolved by the last
	// ensurePT so dense same-2MiB mutation runs (populate, retag) skip
	// the directory search. curPT == 0 means no memo. Links from pmd to
	// pt are never severed (Unmap keeps the skeleton; an expansion moves
	// the memo along), pmd nodes never move, and every caller rechecks
	// the disabled bit through the returned pmd, so the memo needs no
	// other invalidation; ReadState's full reset clears it.
	curCoord uint64
	curPT    int32
	curPMD   *pmdNode
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
	key := dirKey(a)
	i, pmd := t.find(key)
	if pmd == nil {
		if t.pgdPresent(i, key) {
			return WalkResult{LevelsVisited: 2}
		}
		return WalkResult{LevelsVisited: 1}
	}
	i1 := int(v >> 21 & 0x1ff)
	if pmd.isDisabled(i1) {
		return WalkResult{LevelsVisited: 3, PMDDisabled: true}
	}
	ti := pmd.pts[i1]
	if ti == 0 {
		return WalkResult{LevelsVisited: 3}
	}
	// The first run is peeled: a populated domain is that one run.
	i0 := int(v >> 12 & 0x1ff)
	var pte packedPTE
	if ti < 0 {
		rn := t.runLeaf(ti)
		if r := &rn.runs[0]; uint(i0-int(r.lo)) < uint(r.n) {
			pte = r.base + packedPTE(i0)*pteFrame1
		} else {
			pte = rn.entry(i0)
		}
	} else {
		pte = t.leaf(ti).ptes[i0]
	}
	return WalkResult{PTE: pte.unpack(), Present: pte&pteP != 0, LevelsVisited: 4}
}

// find returns the directory position of key, or the position it would
// be inserted at, and the pmd node it locates (nil when absent).
func (t *Table) find(key uint32) (int, *pmdNode) {
	d := t.dir
	lo, hi := 0, len(d)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if d[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(d) && d[lo].key == key {
		return lo, d[lo].pmd
	}
	return lo, nil
}

// pgdPresent reports whether the pgd entry of the absent key, whose
// insertion point is i, is present: whether a pud under it holds any
// pmd. Keys under one pgd entry are adjacent in the sorted directory, so
// one of them would sit next to i.
func (t *Table) pgdPresent(i int, key uint32) bool {
	top := key >> 9
	return i > 0 && t.dir[i-1].key>>9 == top || i < len(t.dir) && t.dir[i].key>>9 == top
}

// pmdOf resolves the pmd node covering a, or nil.
func (t *Table) pmdOf(a VAddr) *pmdNode {
	_, pmd := t.find(dirKey(a))
	return pmd
}

// leafOf resolves the leaf handle covering a (0 when absent) together
// with its pmd node (nil when absent) and pmd index.
func (t *Table) leafOf(a VAddr) (int32, *pmdNode, int) {
	i1 := int(uint64(a) >> 21 & 0x1ff)
	pmd := t.pmdOf(a)
	if pmd == nil {
		return 0, nil, i1
	}
	return pmd.pts[i1], pmd, i1
}

// leaf resolves a flat leaf handle, (slab<<leafSlabShift | offset) + 1,
// to its node.
func (t *Table) leaf(h int32) *ptNode { return t.leaves.at(uint32(h) - 1) }

// runLeaf resolves a run leaf handle, ^(slab<<leafSlabShift | offset), to
// its node.
func (t *Table) runLeaf(h int32) *runNode { return t.runs.at(uint32(^h)) }

// newLeaf materializes one empty flat leaf and returns its handle.
func (t *Table) newLeaf() int32 { return int32(t.leaves.add()) + 1 }

// newRunLeaf materializes one empty run leaf and returns its handle.
func (t *Table) newRunLeaf() int32 { return ^int32(t.runs.add()) }

// flat returns leaf h, under entry i1 of pmd, as a flat leaf. A run leaf
// is expanded: its entries move to a new flat leaf that takes over the
// pmd entry (and the ensurePT memo), and the run node is cleared, never
// to be referenced again.
func (t *Table) flat(pmd *pmdNode, i1 int, h int32) *ptNode {
	if h > 0 {
		return t.leaf(h)
	}
	fh := t.newLeaf()
	pt := t.leaf(fh)
	rn := t.runLeaf(h)
	rn.decode(pt)
	*rn = runNode{}
	pmd.pts[i1] = fh
	if t.curPT == h {
		t.curPT = fh
	}
	return pt
}

// rewrite applies an edit (see runNode.edit) to indices [lo, hi) of leaf
// h, under entry i1 of pmd, and returns how many of those pages were
// present before it. A run leaf the result does not fit in is expanded
// first. Flat leaves take ins of any length.
func (t *Table) rewrite(pmd *pmdNode, i1 int, h int32, lo, hi int, clear, set packedPTE, drop bool, ins []run) int {
	if h < 0 {
		rn := t.runLeaf(h)
		n := rn.count(lo, hi)
		if len(ins) <= leafRuns && rn.edit(lo, hi, clear, set, drop, ins) {
			return n
		}
	}
	pt := t.flat(pmd, i1, h)
	n := 0
	pp := pt.ptes[lo:hi]
	for j := range pp {
		if pp[j]&pteP == 0 {
			continue
		}
		n++
		if drop {
			pp[j] = 0
		} else {
			pp[j] = pp[j]&^clear | set
		}
	}
	for _, r := range ins {
		r.store(pt)
	}
	return n
}

// materializePMD ensures the directory entry and pmd node for a
// pmd-entry coordinate (virtual address >> PMDShift) exist and returns
// the node together with the number of directory entries the radix
// would install: a pud entry for a new node, plus a pgd entry when no
// other node shares its pgd index.
func (t *Table) materializePMD(coord uint64) (*pmdNode, uint64) {
	key := uint32(coord>>9) & dirKeyMask
	i, pmd := t.find(key)
	if pmd != nil {
		return pmd, 0
	}
	installs := uint64(1)
	if !t.pgdPresent(i, key) {
		installs++
	}
	pmd = t.pmds.at(t.pmds.add())
	if t.dir == nil {
		t.dir = t.dirBuf[:0]
	}
	t.dir = slices.Insert(t.dir, i, dirEntry{key: key, pmd: pmd})
	return pmd, installs
}

// ensurePT materializes the path to the leaf covering a — a new leaf
// starts as an empty run leaf — and returns its handle together with the
// owning pmd node and the pmd index. Each directory install counts one
// PTE write, as before the flattening.
func (t *Table) ensurePT(a VAddr) (int32, *pmdNode, int) {
	coord := uint64(a) >> PMDShift
	i1 := int(coord & 0x1ff)
	if t.curPT != 0 && t.curCoord == coord {
		return t.curPT, t.curPMD, i1
	}
	pmd, installs := t.materializePMD(coord)
	t.PTEWrites += installs
	ti := pmd.pts[i1]
	if ti == 0 {
		ti = t.newRunLeaf()
		pmd.pts[i1] = ti
		t.PTEWrites++
	}
	t.curCoord = coord
	t.curPT = ti
	t.curPMD = pmd
	return ti, pmd, i1
}

// Map installs a translation for the page containing a. Mapping a page
// under a disabled PMD re-enables that PMD entry (one PMD write), matching
// the remap path of VDom's HLRU policy.
func (t *Table) Map(a VAddr, f Frame, writable bool, d Pdom) {
	t.gen++
	h, pmd, i1 := t.ensurePT(a)
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		t.PMDWrites++
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	e := packPTE(PTE{Frame: f, Present: true, Writable: writable, Pdom: d})
	if t.rewrite(pmd, i1, h, i0, i0+1, 0, 0, true, []run{newRun(e, i0, 1)}) == 0 {
		t.present++
	}
	t.PTEWrites++
}

// Unmap removes the translation for the page containing a. It reports
// whether a present mapping existed. Unlike Walk, Unmap reaches PTEs under
// a disabled PMD entry (revocation must not be maskable by an eviction).
func (t *Table) Unmap(a VAddr) bool {
	t.gen++
	h, pmd, i1 := t.leafOf(a)
	if h == 0 {
		return false
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if t.rewrite(pmd, i1, h, i0, i0+1, 0, 0, true, nil) == 0 {
		return false
	}
	t.present--
	t.PTEWrites++
	return true
}

// SetPdom retags the page containing a with domain d. It reports whether a
// present mapping existed. Retagging a page under a disabled PMD re-enables
// the PMD entry.
func (t *Table) SetPdom(a VAddr, d Pdom) bool {
	t.gen++
	h, pmd, i1 := t.leafOf(a)
	if h == 0 {
		return false
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if t.rewrite(pmd, i1, h, i0, i0+1, ptePdomMask, packedPTE(d)<<2, false, nil) == 0 {
		return false
	}
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		t.PMDWrites++
	}
	t.PTEWrites++
	return true
}

// SetWritable flips the writable bit of the page containing a. A page
// whose PMD entry is disabled walks as not-present and is left untouched.
func (t *Table) SetWritable(a VAddr, w bool) bool {
	t.gen++
	h, pmd, i1 := t.leafOf(a)
	if h == 0 || pmd.isDisabled(i1) {
		return false
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	if t.rewrite(pmd, i1, h, i0, i0+1, pteW, writableBit(w), false, nil) == 0 {
		return false
	}
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

// eachLeaf calls fn for each 2 MiB piece of [start, start+length) — its
// leaf handle (0 when absent), pmd node (nil when absent), pmd index and
// leaf index range — after bumping the generation once per page of the
// piece, as the per-page primitive loop would. length must be
// page-aligned.
func (t *Table) eachLeaf(start VAddr, length uint64, fn func(h int32, pmd *pmdNode, i1, lo, hi int)) {
	checkAligned(start, length)
	end := start + VAddr(length)
	for a := start; a < end; {
		chunk := a.PMDAlign() + PMDSize
		if chunk > end {
			chunk = end
		}
		pages := int(uint64(chunk-a) / PageSize)
		t.gen += uint64(pages)
		h, pmd, i1 := t.leafOf(a)
		lo := int(uint64(a) >> 12 & 0x1ff)
		fn(h, pmd, i1, lo, lo+pages)
		a = chunk
	}
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
	n := 0
	t.eachLeaf(start, length, func(h int32, pmd *pmdNode, i1, lo, hi int) {
		if h == 0 {
			return
		}
		cnt := t.rewrite(pmd, i1, h, lo, hi, ptePdomMask, packedPTE(d)<<2, false, nil)
		if cnt > 0 && pmd.isDisabled(i1) {
			pmd.setDisabled(i1, false)
			t.PMDWrites++
		}
		t.PTEWrites += uint64(cnt)
		n += cnt
	})
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
// faulted one at a time.
func (t *Table) PopulateChunk(a VAddr, pages int, writable bool, d Pdom, alloc func(n int) Frame, frames []Frame) int {
	h, pmd, i1 := t.leafOf(a)
	i0 := int(uint64(a) >> 12 & 0x1ff)
	tmpl := packPTE(PTE{Present: true, Writable: writable, Pdom: d})
	switch {
	case h > 0:
		return t.populateLeaf(t.leaf(h), pmd, i1, i0, pages, tmpl, alloc, frames)
	case h < 0:
		return t.populateRunLeaf(h, pmd, i1, i0, pages, tmpl, alloc, frames)
	case pages == 0:
		return 0
	}
	// No leaf yet: the whole chunk faults fresh pages into a
	// just-materialized page table — the dominant case when populating new
	// areas — and lands as one run. The counter evolution is
	// deterministic here, so compute it in closed form: page 0's window
	// holds the directory installs and its own write; every later page's
	// reset retires exactly one write.
	next := alloc(pages)
	retP, retM := t.PTEWrites, t.PMDWrites // pre-op window, retired by page 0's reset
	t.PTEWrites, t.PMDWrites = 0, 0
	h, pmd, _ = t.ensurePT(a)
	e := t.PTEWrites // directory installs charged by ensurePT
	var m uint64
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		m = 1
	}
	t.runLeaf(h).runs[0] = newRun(tmpl|packedPTE(next)<<10, i0, pages)
	for j := range frames[:pages] {
		frames[j] = next + Frame(j)
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
	return pages
}

// populateRunLeaf is PopulateChunk into run leaf h. A range that is
// already populated — the second table of a populated domain — only
// reports its frames. Any other populates a flat copy of the leaf and
// stores the result back as runs, or as a flat leaf when it needs more
// than leafRuns runs.
func (t *Table) populateRunLeaf(h int32, pmd *pmdNode, i1, i0, pages int, tmpl packedPTE, alloc func(n int) Frame, frames []Frame) int {
	rn := t.runLeaf(h)
	if !pmd.isDisabled(i1) && rn.populated(i0, i0+pages, tmpl&pteW != 0, frames) {
		return 0
	}
	var pt ptNode
	rn.decode(&pt)
	fresh := t.populateLeaf(&pt, pmd, i1, i0, pages, tmpl, alloc, frames)
	if !rn.encode(&pt) {
		*t.flat(pmd, i1, h) = pt
	}
	return fresh
}

// populateLeaf is PopulateChunk into the existing leaf pt, whose entries
// it updates page by page. The per-page counter windows are tracked in
// locals (curP/curM are the live window, retP/retM the windows already
// retired by later pages' resets) and written back once at the end;
// nothing can observe the table mid-operation, so only the final counter
// state matters.
func (t *Table) populateLeaf(pt *ptNode, pmd *pmdNode, i1, i0, pages int, tmpl packedPTE, alloc func(n int) Frame, frames []Frame) int {
	// Count the pages that will fault fresh frames, then allocate them in
	// one call. A disabled PMD entry makes the first page remap fresh
	// regardless of its PTE (it walks as not-present); the pages after it
	// see the entry re-enabled.
	disabled := pmd.isDisabled(i1)
	fresh := 0
	for j := 0; j < pages; j++ {
		if pt.ptes[i0+j]&pteP == 0 || j == 0 && disabled {
			fresh++
		}
	}
	var next Frame
	if fresh > 0 {
		next = alloc(fresh)
	}
	writable := tmpl&pteW != 0
	curP, curM := t.PTEWrites, t.PMDWrites
	var retP, retM, gen uint64
	newPresent := 0
	for j := 0; j < pages; j++ {
		pte := &pt.ptes[i0+j]
		if !disabled && *pte&pteP != 0 {
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
		// Absent (or shadowed by a disabled PMD entry): map the next
		// fresh frame, exactly as a ResetCounts+Map pair would.
		frames[j] = next
		retP += curP
		retM += curM
		curP, curM = 0, 0
		gen++
		if disabled {
			pmd.setDisabled(i1, false)
			curM++
			disabled = false
		}
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
// around the store. Consecutive frames land as one run.
func (t *Table) MapChunk(a VAddr, frames []Frame, writable bool, d Pdom) {
	n := len(frames)
	if n == 0 {
		return
	}
	i0 := int(uint64(a) >> 12 & 0x1ff)
	retP, retM := t.PTEWrites, t.PMDWrites // pre-op window, retired by page 0's reset
	t.PTEWrites, t.PMDWrites = 0, 0
	h, pmd, i1 := t.ensurePT(a)
	e := t.PTEWrites // directory installs charged by ensurePT
	var m uint64
	if pmd.isDisabled(i1) {
		pmd.setDisabled(i1, false)
		m = 1
	}
	tmpl := packPTE(PTE{Present: true, Writable: writable, Pdom: d})
	present := 0
	var ins [leafRuns]run
	k, ok := 0, false
	if h < 0 {
		k, ok = runsOf(frames, i0, tmpl, &ins)
	}
	if ok {
		present = t.rewrite(pmd, i1, h, i0, i0+n, 0, 0, true, ins[:k])
	} else {
		pp := t.flat(pmd, i1, h).ptes[i0 : i0+n]
		for j := range pp {
			if pp[j]&pteP != 0 {
				present++
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
	t.present += n - present
}

// UnmapRange removes every present translation in [start, start+length)
// and returns the number of pages unmapped. length must be page-aligned.
// Equivalent to calling Unmap on each page (PTEs under disabled PMD
// entries are unmapped too), with one radix descent per leaf.
func (t *Table) UnmapRange(start VAddr, length uint64) int {
	n := 0
	t.eachLeaf(start, length, func(h int32, pmd *pmdNode, i1, lo, hi int) {
		if h == 0 {
			return
		}
		cnt := t.rewrite(pmd, i1, h, lo, hi, 0, 0, true, nil)
		t.present -= cnt
		t.PTEWrites += uint64(cnt)
		n += cnt
	})
	return n
}

// SetWritableRange flips the writable bit of every present page in
// [start, start+length) and returns the number of pages updated. length
// must be page-aligned. Equivalent to calling SetWritable on each page:
// pages under a disabled PMD entry walk as not-present and are skipped.
func (t *Table) SetWritableRange(start VAddr, length uint64, w bool) int {
	n := 0
	t.eachLeaf(start, length, func(h int32, pmd *pmdNode, i1, lo, hi int) {
		if h == 0 || pmd.isDisabled(i1) {
			return
		}
		cnt := t.rewrite(pmd, i1, h, lo, hi, pteW, writableBit(w), false, nil)
		t.PTEWrites += uint64(cnt)
		n += cnt
	})
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

// Pages calls fn for every present PTE, in ascending address order, until
// fn returns false. fn may not mutate the table.
func (t *Table) Pages(fn func(a VAddr, pte PTE) bool) {
	for _, e := range t.dir {
		for i1, ti := range e.pmd.pts {
			base := VAddr(uint64(e.key)<<dirShift | uint64(i1)<<PMDShift)
			if ti > 0 {
				for i0, p := range t.leaf(ti).ptes[:] {
					if p&pteP != 0 && !fn(base+VAddr(i0)<<PageShift, p.unpack()) {
						return
					}
				}
				continue
			}
			if ti == 0 {
				continue
			}
			for _, r := range t.runLeaf(ti).list() {
				p := r.first()
				for i0 := int(r.lo); i0 < r.end(); i0++ {
					if !fn(base+VAddr(i0)<<PageShift, p.unpack()) {
						return
					}
					p += pteFrame1
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
