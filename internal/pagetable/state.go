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
// The image is encoded straight from the radix, one record per PMD-entry
// coordinate (virtual address >> PMDShift) that carries a leaf table or
// a disabled mark, in ascending coordinate order:
//
//	tag byte (coordPT | coordDisabled) | uvarint coordinate gap |
//	    [if coordPT: uvarint #present | { uvarint index gap | uvarint packed PTE }*]
//
// A zero tag ends the records; the five counters follow. Gaps are
// measured from the previous record (or entry) plus one, so any value
// decodes to a strictly ascending sequence.

const (
	coordPT = 1 << iota
	coordDisabled
)

// maxCoord bounds a PMD-entry coordinate: 27 index bits above PMDShift.
const maxCoord = 1 << (AddrBits - PMDShift)

// AppendState appends the table's full image.
func (t *Table) AppendState(b []byte) []byte {
	var next uint64
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
				var tag byte
				if ti != 0 {
					tag |= coordPT
				}
				if pmd.isDisabled(i1) {
					tag |= coordDisabled
				}
				if tag == 0 {
					continue
				}
				coord := uint64(i3)<<18 | uint64(i2)<<9 | uint64(i1)
				b = append(b, tag)
				b = wire.AppendUvarint(b, coord-next)
				next = coord + 1
				if ti != 0 {
					b = t.pts[ti-1].appendPresent(b)
				}
			}
		}
	}
	b = append(b, 0)
	for _, v := range [...]uint64{t.PTEWrites, t.PMDWrites, t.retiredPTE, t.retiredPMD, t.gen} {
		b = wire.AppendUvarint(b, v)
	}
	return b
}

// appendPresent appends the leaf's present entries in index order.
func (pt *ptNode) appendPresent(b []byte) []byte {
	n := 0
	for _, p := range pt.ptes {
		if p&pteP != 0 {
			n++
		}
	}
	b = wire.AppendUvarint(b, uint64(n))
	next := 0
	for i0, p := range pt.ptes {
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
		pmd := t.materializePMD(coord)
		i1 := int(coord & 0x1ff)
		if tag&coordDisabled != 0 {
			pmd.setDisabled(i1, true)
		}
		if tag&coordPT != 0 {
			t.pts = append(t.pts, ptNode{})
			pmd.pts[i1] = int32(len(t.pts))
			t.readPresent(r, &t.pts[len(t.pts)-1])
		}
	}
	t.PTEWrites = r.Uvarint()
	t.PMDWrites = r.Uvarint()
	t.retiredPTE = r.Uvarint()
	t.retiredPMD = r.Uvarint()
	t.gen = r.Uvarint()
}

// readPresent fills a fresh leaf with the entries appendPresent wrote.
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
		pt.present++
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

// materializePMD ensures the pud/pmd path for a pt coordinate exists and
// returns the pmd node, without touching any counter.
func (t *Table) materializePMD(coord uint64) *pmdNode {
	i3 := int(coord >> 18 & 0x1ff)
	i2 := int(coord >> 9 & 0x1ff)
	pi := t.pgd[i3]
	if pi == 0 {
		t.puds = append(t.puds, pudNode{})
		pi = int32(len(t.puds))
		t.pgd[i3] = pi
	}
	mi := t.puds[pi-1].pmds[i2]
	if mi == 0 {
		t.pmds = append(t.pmds, pmdNode{})
		mi = int32(len(t.pmds))
		t.puds[pi-1].pmds[i2] = mi
	}
	return &t.pmds[mi-1]
}
