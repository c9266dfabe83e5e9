package pagetable

import "vdom/internal/wire"

// This file implements checkpoint capture and restore for Table
// (vdom-snap/v2). The snapshot must reproduce the table *exactly* — not
// just its present translations but the radix skeleton (empty page
// tables left behind by Unmap still add walk levels, which the hardware
// charges cycles for), the per-PMD disabled marks, the write counters,
// and the mutation generation — so a restored System's cycle accounting
// is bit-identical to an uninterrupted run.
//
// The image is encoded straight from the sorted directory, one record
// per PMD-entry coordinate (virtual address >> PMDShift) that carries a
// leaf table or a disabled mark, in ascending coordinate order:
//
//	tag byte (coordPT | coordDisabled) | uvarint coordinate gap |
//	    [if coordPT: uvarint #present | { uvarint index gap | uvarint packed PTE }*]
//
// A zero tag ends the records; the five counters follow. Gaps are
// measured from the previous record (or entry) plus one, so any value
// decodes to a strictly ascending sequence.
//
// The records are per entry whatever a leaf's form, so run and flat
// leaves with the same entries write the same bytes. ReadState rebuilds
// every leaf that fits in leafRuns runs as a run leaf.

const (
	coordPT = 1 << iota
	coordDisabled
)

// maxCoord bounds a PMD-entry coordinate: 27 index bits above PMDShift.
const maxCoord = 1 << (AddrBits - PMDShift)

// AppendState appends the table's full image.
func (t *Table) AppendState(b []byte) []byte {
	var next uint64
	for _, e := range t.dir {
		for i1, ti := range e.pmd.pts {
			var tag byte
			if ti != 0 {
				tag |= coordPT
			}
			if e.pmd.isDisabled(i1) {
				tag |= coordDisabled
			}
			if tag == 0 {
				continue
			}
			coord := uint64(e.key)<<9 | uint64(i1)
			b = append(b, tag)
			b = wire.AppendUvarint(b, coord-next)
			next = coord + 1
			if ti != 0 {
				b = t.appendPresent(b, ti)
			}
		}
	}
	b = append(b, 0)
	for _, v := range [...]uint64{t.PTEWrites, t.PMDWrites, t.retiredPTE, t.retiredPMD, t.gen} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// appendPresent appends leaf h's present entries in index order.
func (t *Table) appendPresent(b []byte, h int32) []byte {
	if h < 0 {
		runs := t.runLeaf(h).list()
		n := 0
		for _, r := range runs {
			n += int(r.n)
		}
		b = wire.AppendUvarint(b, uint64(n))
		next := 0
		for _, r := range runs {
			b = wire.AppendUvarint(b, uint64(int(r.lo)-next))
			p := r.first()
			for i := 0; i < int(r.n); i++ {
				if i > 0 {
					b = append(b, 0) // uvarint gap 0
				}
				b = wire.AppendUvarint(b, uint64(p))
				p += pteFrame1
			}
			next = r.end()
		}
		return b
	}
	pt := t.leaf(h)
	n := 0
	for _, p := range pt.ptes[:] {
		if p&pteP != 0 {
			n++
		}
	}
	b = wire.AppendUvarint(b, uint64(n))
	next := 0
	for i0, p := range pt.ptes[:] {
		if p&pteP == 0 {
			continue
		}
		b = wire.AppendUvarint(b, uint64(i0-next))
		b = wire.AppendUvarint(b, uint64(p))
		next = i0 + 1
	}
	return b
}

// ReadState overwrites the table in place with an image AppendState
// wrote. The radix is rebuilt directly — not through Map — so the write
// counters and generation land exactly on the checkpointed values.
func (t *Table) ReadState(r *wire.Reader) {
	*t = Table{}
	var scratch ptNode
	var next uint64
	for {
		tag := r.Byte()
		if tag == 0 {
			break
		}
		coord := next + r.Uvarint()
		if tag&^(coordPT|coordDisabled) != 0 || coord < next || coord >= maxCoord {
			r.Failf("page-table record tag %#x at coordinate %#x", tag, coord)
			return
		}
		next = coord + 1
		pmd, _ := t.materializePMD(coord)
		i1 := int(coord & 0x1ff)
		if tag&coordDisabled != 0 {
			pmd.setDisabled(i1, true)
		}
		if tag&coordPT != 0 {
			clear(scratch.ptes[:])
			t.readPresent(r, &scratch)
			var rn runNode
			if rn.encode(&scratch) {
				pmd.pts[i1] = t.newRunLeaf()
				*t.runLeaf(pmd.pts[i1]) = rn
			} else {
				pmd.pts[i1] = t.newLeaf()
				*t.leaf(pmd.pts[i1]) = scratch
			}
		}
	}
	t.PTEWrites = r.Uvarint()
	t.PMDWrites = r.Uvarint()
	t.retiredPTE = r.Uvarint()
	t.retiredPMD = r.Uvarint()
	t.gen = r.Uvarint()
}

// readPresent fills an empty flat leaf with the entries appendPresent
// wrote.
func (t *Table) readPresent(r *wire.Reader, pt *ptNode) {
	n := r.Uvarint()
	if n > EntriesPerTable {
		r.Failf("page table with %d present entries", n)
		return
	}
	var next uint64
	for ; n > 0; n-- {
		i0 := next + r.Uvarint()
		p := packedPTE(r.Uvarint())
		if i0 < next || i0 >= EntriesPerTable || p&pteP == 0 {
			r.Failf("page-table entry %d (%#x)", i0, uint64(p))
			return
		}
		next = i0 + 1
		pt.ptes[i0] = p
		t.present++
	}
}

// ReadTableID reads a stable table id written as a varint: -1 for none,
// 0 for the shadow table, j for the j-th per-VDS table (see
// mm.TableID). An id beyond numTables fails the reader.
func ReadTableID(r *wire.Reader, numTables int) int {
	id := r.Varint()
	if id < -1 || id > int64(numTables) {
		r.Failf("table id %d of %d", id, numTables)
		return -1
	}
	return int(id)
}
