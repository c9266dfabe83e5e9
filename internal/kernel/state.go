package kernel

import (
	"sort"

	"vdom/internal/cycles"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore for the kernel layer (vdom-snap/v2).
// Page tables are referred to by the memory manager's stable ids (see
// mm.TableID); tasks by TID within their process. The section encodes
// the Snap fields in declaration order: unsigned values as uvarints, Go
// ints as zigzag varints, and every slice as a count then its elements.
// Each task ends with two reserved uvarints that must be zero.

// TaskSnap is the serializable image of one Task.
type TaskSnap struct {
	TID       int
	Core      int
	TableID   int
	ASID      tlb.ASID
	BaseASID  tlb.ASID
	SavedPerm uint64
	VDS       bool
}

// Snap is the serializable image of a Kernel plus one Process's tasks.
type Snap struct {
	NextASID  tlb.ASID
	MaxASID   tlb.ASID
	ASIDGen   uint64
	Rollovers uint64
	LiveASIDs []tlb.ASID // ascending
	NextPID   int

	// LastTaskTID records, per core, the TID of the task whose state is
	// loaded there (0 = none).
	LastTaskTID []int
	PendingIRQ  []cycles.Cost

	Tasks []TaskSnap // ascending TID
}

// Snap captures the kernel's image together with process p's task list.
// tableID maps each task's live page table to its stable id.
func (k *Kernel) Snap(p *Process, tableID func(*pagetable.Table) int) Snap {
	s := Snap{
		NextASID:    k.nextASID,
		MaxASID:     k.maxASID,
		ASIDGen:     k.asidGen,
		Rollovers:   k.rollovers,
		NextPID:     k.nextPID,
		LastTaskTID: make([]int, len(k.lastTask)),
		PendingIRQ:  append([]cycles.Cost(nil), k.pendingIRQ...),
	}
	for a := range k.liveASIDs {
		s.LiveASIDs = append(s.LiveASIDs, a)
	}
	sort.Slice(s.LiveASIDs, func(i, j int) bool { return s.LiveASIDs[i] < s.LiveASIDs[j] })
	for id, t := range k.lastTask {
		if t != nil {
			s.LastTaskTID[id] = t.tid
		}
	}
	for _, t := range p.tasks {
		ts := TaskSnap{
			TID:       t.tid,
			Core:      t.core,
			TableID:   tableID(t.table),
			ASID:      t.asid,
			BaseASID:  t.baseASID,
			SavedPerm: t.savedPerm,
			VDS:       t.vds,
		}
		s.Tasks = append(s.Tasks, ts)
	}
	sort.Slice(s.Tasks, func(i, j int) bool { return s.Tasks[i].TID < s.Tasks[j].TID })
	return s
}

// LoadSnap restores the kernel's image onto a freshly booted kernel and
// recreates process p's tasks from the snapshot, which must have passed
// Read's validation against this kernel. table is the inverse of the
// Snap tableID mapping. It returns the restored tasks keyed by TID.
//
// The process must be fresh (no tasks): LoadSnap constructs each task
// directly — NOT through NewTask, which would draw new ASIDs — so the
// ASID allocator's cursor, generation, and live set land exactly on the
// checkpointed values.
func (k *Kernel) LoadSnap(s Snap, p *Process, table func(id int) *pagetable.Table) map[int]*Task {
	if len(p.tasks) != 0 {
		panic("kernel: LoadSnap on a process with live tasks")
	}
	k.nextASID = s.NextASID
	k.maxASID = s.MaxASID
	k.asidGen = s.ASIDGen
	k.rollovers = s.Rollovers
	k.nextPID = s.NextPID
	k.liveASIDs = make(map[tlb.ASID]bool, len(s.LiveASIDs))
	for _, a := range s.LiveASIDs {
		k.liveASIDs[a] = true
	}
	copy(k.pendingIRQ, s.PendingIRQ)

	byTID := make(map[int]*Task, len(s.Tasks))
	for _, ts := range s.Tasks {
		t := &Task{
			proc:      p,
			tid:       ts.TID,
			core:      ts.Core,
			table:     table(ts.TableID),
			asid:      ts.ASID,
			baseASID:  ts.BaseASID,
			savedPerm: ts.SavedPerm,
			vds:       ts.VDS,
		}
		p.tasks = append(p.tasks, t)
		byTID[ts.TID] = t
	}
	for id, tid := range s.LastTaskTID {
		k.lastTask[id] = byTID[tid] // nil for tid 0
	}
	return byTID
}

// Append appends the snapshot's encoding.
func (s Snap) Append(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(s.NextASID))
	b = wire.AppendUvarint(b, uint64(s.MaxASID))
	b = wire.AppendUvarint(b, s.ASIDGen)
	b = wire.AppendUvarint(b, s.Rollovers)
	b = wire.AppendUvarint(b, uint64(len(s.LiveASIDs)))
	for _, a := range s.LiveASIDs {
		b = wire.AppendUvarint(b, uint64(a))
	}
	b = wire.AppendVarint(b, int64(s.NextPID))
	b = wire.AppendUvarint(b, uint64(len(s.LastTaskTID)))
	for _, tid := range s.LastTaskTID {
		b = wire.AppendVarint(b, int64(tid))
	}
	b = wire.AppendUvarint(b, uint64(len(s.PendingIRQ)))
	for _, c := range s.PendingIRQ {
		b = wire.AppendUvarint(b, uint64(c))
	}
	b = wire.AppendUvarint(b, uint64(len(s.Tasks)))
	for _, t := range s.Tasks {
		b = wire.AppendVarint(b, int64(t.TID))
		b = wire.AppendVarint(b, int64(t.Core))
		b = wire.AppendVarint(b, int64(t.TableID))
		b = wire.AppendUvarint(b, uint64(t.ASID))
		b = wire.AppendUvarint(b, uint64(t.BaseASID))
		b = wire.AppendUvarint(b, t.SavedPerm)
		b = wire.AppendBool(b, t.VDS)
		// The two reserved words (a retired per-task cycle total and
		// account count) keep the v2 layout.
		b = wire.AppendUvarint(b, 0)
		b = wire.AppendUvarint(b, 0)
	}
	return b
}

// Read decodes a snapshot Append wrote and validates it against the
// booted kernel k and the restored address space's numTables, so that
// LoadSnap cannot fail: the per-core arrays must match k's core count,
// TIDs must be positive and ascending, every task's core and table id in
// range and its two reserved words zero, and every LastTaskTID must name
// a snapshot task (or 0).
func (s *Snap) Read(r *wire.Reader, k *Kernel, numTables int) {
	s.NextASID = tlb.ReadASID(r)
	s.MaxASID = tlb.ReadASID(r)
	s.ASIDGen = r.Uvarint()
	s.Rollovers = r.Uvarint()
	s.LiveASIDs = make([]tlb.ASID, r.Count("live asid"))
	for i := range s.LiveASIDs {
		s.LiveASIDs[i] = tlb.ReadASID(r)
	}
	s.NextPID = int(r.Varint())
	cores := len(k.lastTask)
	if n := r.Count("last task"); n != cores {
		r.Failf("%d last-task slots, machine boots %d cores", n, cores)
		return
	}
	s.LastTaskTID = make([]int, cores)
	for i := range s.LastTaskTID {
		s.LastTaskTID[i] = int(r.Varint())
	}
	if n := r.Count("pending irq"); n != cores {
		r.Failf("%d pending-irq slots, machine boots %d cores", n, cores)
		return
	}
	s.PendingIRQ = make([]cycles.Cost, cores)
	for i := range s.PendingIRQ {
		s.PendingIRQ[i] = cycles.Cost(r.Uvarint())
	}
	s.Tasks = make([]TaskSnap, r.Count("task"))
	for i := range s.Tasks {
		t := &s.Tasks[i]
		t.TID = int(r.Varint())
		t.Core = int(r.Varint())
		t.TableID = pagetable.ReadTableID(r, numTables)
		t.ASID = tlb.ReadASID(r)
		t.BaseASID = tlb.ReadASID(r)
		t.SavedPerm = r.Uvarint()
		t.VDS = r.Bool()
		total, accounts := r.Uvarint(), r.Uvarint()
		switch {
		case r.Err() != nil:
			return
		case t.TID <= 0 || i > 0 && t.TID <= s.Tasks[i-1].TID:
			r.Failf("task %d out of order", t.TID)
		case t.Core < 0 || t.Core >= cores:
			r.Failf("task %d on core %d of %d", t.TID, t.Core, cores)
		case total != 0 || accounts != 0:
			r.Failf("task %d reserved words %d, %d are not zero", t.TID, total, accounts)
		}
	}
	for id, tid := range s.LastTaskTID {
		if tid != 0 && s.task(tid) == nil {
			r.Failf("core %d last task %d is not a snapshot task", id, tid)
		}
	}
}

// task returns the snapshot task with the given TID, or nil.
func (s *Snap) task(tid int) *TaskSnap {
	i := sort.Search(len(s.Tasks), func(i int) bool { return s.Tasks[i].TID >= tid })
	if i < len(s.Tasks) && s.Tasks[i].TID == tid {
		return &s.Tasks[i]
	}
	return nil
}

// ClearResidency models the kernel-level effect of a crash: the per-core
// notion of which task's state is loaded is lost, forcing a full context
// switch on the next dispatch. The recovery path restores a checkpoint
// over this, so the cleared state never reaches post-recovery execution.
func (k *Kernel) ClearResidency() {
	for i := range k.lastTask {
		k.lastTask[i] = nil
	}
}
