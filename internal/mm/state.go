package mm

import (
	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// Checkpoint capture and restore for the memory-management layer
// (vdom-snap/v2). The snapshot owns the process's page tables: the
// shadow table plus every registered per-VDS table, identified by a
// stable id (0 = shadow, j >= 1 = Tables()[j-1], -1 = none) that the
// hardware and core-layer snapshots refer to.
//
// The image is encoded straight from the live state: the VMA count and
// each area (start, length, writable, tag) in ascending start order, the
// shadow table's image, then the count and images of the per-VDS tables
// in registration order (table id j+1 is the j-th).

// AppendState appends the address space's image.
func (as *AddressSpace) AppendState(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(as.vmas.Len()))
	as.vmas.All(func(v *VMA) bool {
		b = wire.AppendUvarint(b, uint64(v.Start))
		b = wire.AppendUvarint(b, v.Length)
		b = wire.AppendBool(b, v.Writable)
		b = wire.AppendUvarint(b, uint64(v.Tag))
		return true
	})
	b = as.shadow.AppendState(b)
	b = wire.AppendUvarint(b, uint64(len(as.tables)))
	for _, t := range as.tables {
		b = t.AppendState(b)
	}
	return b
}

// ReadState restores the address space in place from an image
// AppendState wrote: the VMA tree is rebuilt, the shadow table reloaded,
// and one fresh table registered per serialized per-VDS table. The
// address space must be freshly booted (no VMAs, no registered tables).
// Areas out of ascending start order fail the reader.
func (as *AddressSpace) ReadState(r *wire.Reader) {
	if as.vmas.Len() != 0 || len(as.tables) != 0 {
		panic("mm: ReadState on a non-fresh address space")
	}
	n := r.Count("vma")
	var prev pagetable.VAddr
	for i := 0; i < n; i++ {
		v := &VMA{
			Start:    pagetable.VAddr(r.Uvarint()),
			Length:   r.Uvarint(),
			Writable: r.Bool(),
			Tag:      Tag(r.Uvarint()),
		}
		if r.Err() != nil {
			return
		}
		if i > 0 && v.Start <= prev {
			r.Failf("vma %d at %#x out of order", i, uint64(v.Start))
			return
		}
		prev = v.Start
		as.vmas.Insert(v)
	}
	as.shadow.ReadState(r)
	n = r.Count("table")
	for i := 0; i < n; i++ {
		t := pagetable.New()
		t.ReadState(r)
		as.RegisterTable(t)
	}
}

// TableID maps a live table to its stable snapshot id (-1 = nil,
// 0 = shadow, j+1 = Tables()[j]). It panics on a table the address space
// does not own — a checkpoint must never silently drop a reference.
func (as *AddressSpace) TableID(t *pagetable.Table) int {
	switch {
	case t == nil:
		return -1
	case t == as.shadow:
		return 0
	}
	for j, o := range as.tables {
		if o == t {
			return j + 1
		}
	}
	panic("mm: TableID of an unregistered table")
}

// TableByID is the inverse of TableID.
func (as *AddressSpace) TableByID(id int) *pagetable.Table {
	switch {
	case id == -1:
		return nil
	case id == 0:
		return as.shadow
	case id >= 1 && id <= len(as.tables):
		return as.tables[id-1]
	}
	panic("mm: TableByID out of range")
}
