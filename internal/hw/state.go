package hw

import (
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore for the hardware layer (vdom-snap/v2).
// Page tables are owned by the memory-management layer and serialized
// there; a core image refers to its loaded table by an opaque id the
// caller maps in both directions (-1 = none loaded).
//
// The machine image is the frame allocator watermark, the core count,
// and per core: the raw permission register, the ASID, the loaded
// table's id, the page-walk cache (its hit/miss counters are published
// as metrics, so an exact restore must carry it), and the TLB image.
// Everything is encoded straight from the live state.

// AppendState appends the machine's image. tableID maps a live
// *pagetable.Table (or nil) to the caller's stable table id.
func (m *Machine) AppendState(b []byte, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendUvarint(b, uint64(m.nextFrame))
	b = wire.AppendUvarint(b, uint64(len(m.cores)))
	for _, c := range m.cores {
		b = c.appendState(b, tableID)
	}
	return b
}

func (c *Core) appendState(b []byte, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendUvarint(b, c.perm.Raw())
	b = wire.AppendUvarint(b, uint64(c.asid))
	b = wire.AppendVarint(b, int64(tableID(c.table)))

	// A walk memo on a table the snapshot does not carry (a reaped VDS's
	// table) can never hit again: it restores as invalid.
	walkID := tableID(c.walkTable)
	b = wire.AppendVarint(b, int64(walkID))
	b = wire.AppendUvarint(b, c.walkGen)
	b = wire.AppendUvarint(b, c.walkVPN)
	b = wire.AppendBool(b, c.walkValid && walkID != -1)
	res := c.walkRes
	b = wire.AppendUvarint(b, uint64(res.PTE.Frame))
	b = wire.AppendBool(b, res.PTE.Present)
	b = wire.AppendBool(b, res.PTE.Writable)
	b = append(b, byte(res.PTE.Pdom))
	b = wire.AppendBool(b, res.Present)
	b = wire.AppendBool(b, res.PMDDisabled)
	b = wire.AppendUvarint(b, uint64(res.LevelsVisited))
	b = wire.AppendUvarint(b, c.walkHits)
	b = wire.AppendUvarint(b, c.walkMisses)
	return c.tlb.AppendState(b)
}

// ReadState restores the machine from an image AppendState wrote. table
// is the inverse of the tableID mapping (nil for -1), valid for ids up to
// numTables. A core count, table id, TLB geometry, or a frame watermark
// that would move backwards past frames this machine already handed out
// fails the reader.
func (m *Machine) ReadState(r *wire.Reader, table func(id int) *pagetable.Table, numTables int) {
	frames := pagetable.Frame(r.Uvarint())
	if frames < m.nextFrame {
		r.Failf("frame watermark %d would orphan %d allocated frames", frames, m.nextFrame)
		return
	}
	if n := r.Uvarint(); n != uint64(len(m.cores)) {
		r.Failf("snapshot has %d cores, machine boots %d", n, len(m.cores))
		return
	}
	for _, c := range m.cores {
		c.readState(r, table, numTables)
	}
	m.nextFrame = frames
}

func (c *Core) readState(r *wire.Reader, table func(id int) *pagetable.Table, numTables int) {
	c.perm.SetRaw(r.Uvarint())
	c.asid = tlb.ReadASID(r)
	tableID := pagetable.ReadTableID(r, numTables)
	walkID := pagetable.ReadTableID(r, numTables)
	c.walkGen = r.Uvarint()
	c.walkVPN = r.Uvarint()
	c.walkValid = r.Bool()
	c.walkRes = pagetable.WalkResult{
		PTE: pagetable.PTE{
			Frame:    pagetable.Frame(r.Uvarint()),
			Present:  r.Bool(),
			Writable: r.Bool(),
			Pdom:     pagetable.Pdom(r.Byte()),
		},
		Present:     r.Bool(),
		PMDDisabled: r.Bool(),
	}
	if lv := r.Uvarint(); lv <= pagetable.Levels {
		c.walkRes.LevelsVisited = int(lv)
	} else {
		r.Failf("walk cache levels %d", lv)
	}
	c.walkHits = r.Uvarint()
	c.walkMisses = r.Uvarint()
	if r.Err() != nil {
		return
	}
	c.table = table(tableID)
	c.walkTable = table(walkID)
	c.tlb.ReadState(r)
}

// CrashVolatile models the architectural effect of a core crash on the
// chip: the volatile micro-architectural state — TLB contents, the
// permission register, the walk cache — is lost, while memory-resident
// state (page tables) survives. The recovery path restores a checkpoint
// on top, so the wiped state never leaks into post-recovery execution.
func (c *Core) CrashVolatile() {
	c.tlb.FlushAll()
	c.perm.SetRaw(DenyAll())
	c.walkValid = false
	c.walkTable = nil
	c.table = nil
	c.asid = 0
}
