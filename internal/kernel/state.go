package kernel

import (
	"sort"

	"vdom/internal/cycles"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

// Checkpoint capture and restore for the kernel layer (vdom-snap/v2),
// encoded straight from the live structures. Page tables are referred to
// by the memory manager's stable ids (see mm.TableID); tasks by TID
// within their process. The section is the ASID allocator (next, limit,
// generation, rollovers, the live set ascending), the next PID, per core
// the TID of the task loaded there (0 = none) and the pending interrupt
// cycles, then the process's tasks in ascending TID order. Unsigned
// values are uvarints, Go ints zigzag varints, and every slice a count
// then its elements. Each task ends with two reserved uvarints (a
// retired per-task cycle total and account count) that must be zero.

// AppendState appends the kernel's image together with process p's
// tasks. tableID maps each task's live page table to its stable id.
func (k *Kernel) AppendState(b []byte, p *Process, tableID func(*pagetable.Table) int) []byte {
	b = wire.AppendUvarint(b, uint64(k.nextASID))
	b = wire.AppendUvarint(b, uint64(k.maxASID))
	b = wire.AppendUvarint(b, k.asidGen)
	b = wire.AppendUvarint(b, k.rollovers)
	live := make([]tlb.ASID, 0, len(k.liveASIDs))
	for a := range k.liveASIDs {
		live = append(live, a)
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	b = wire.AppendUvarint(b, uint64(len(live)))
	for _, a := range live {
		b = wire.AppendUvarint(b, uint64(a))
	}
	b = wire.AppendVarint(b, int64(k.nextPID))
	b = wire.AppendUvarint(b, uint64(len(k.lastTask)))
	for _, t := range k.lastTask {
		b = wire.AppendVarint(b, int64(TIDOf(t)))
	}
	b = wire.AppendUvarint(b, uint64(len(k.pendingIRQ)))
	for _, c := range k.pendingIRQ {
		b = wire.AppendUvarint(b, uint64(c))
	}
	// p.tasks is append-only with TID = position+1, so it is already in
	// ascending TID order.
	b = wire.AppendUvarint(b, uint64(len(p.tasks)))
	for _, t := range p.tasks {
		b = wire.AppendVarint(b, int64(t.tid))
		b = wire.AppendVarint(b, int64(t.core))
		b = wire.AppendVarint(b, int64(tableID(t.table)))
		b = wire.AppendUvarint(b, uint64(t.asid))
		b = wire.AppendUvarint(b, uint64(t.baseASID))
		b = wire.AppendUvarint(b, t.savedPerm)
		b = wire.AppendBool(b, t.vds)
		b = wire.AppendUvarint(b, 0)
		b = wire.AppendUvarint(b, 0)
	}
	return b
}

// ReadState restores an image AppendState wrote onto a freshly booted
// kernel and recreates process p's tasks, returning them keyed by TID.
// table is the inverse of the tableID mapping, valid for ids up to
// numTables. The per-core arrays must match k's core count, task i's
// TID must be i+1 (as NewTask numbers them), every core and table id in
// range, both reserved words zero, and every loaded-task TID must name a
// restored task (or be 0); any other image fails the reader.
//
// The process must be fresh (no tasks): each task is built directly —
// NOT through NewTask, which would draw new ASIDs — so the ASID
// allocator's cursor, generation, and live set land exactly on the
// checkpointed values.
func (k *Kernel) ReadState(r *wire.Reader, p *Process, table func(id int) *pagetable.Table, numTables int) map[int]*Task {
	if len(p.tasks) != 0 {
		panic("kernel: ReadState on a process with live tasks")
	}
	k.nextASID = tlb.ReadASID(r)
	k.maxASID = tlb.ReadASID(r)
	k.asidGen = r.Uvarint()
	k.rollovers = r.Uvarint()
	n := r.Count("live asid")
	k.liveASIDs = make(map[tlb.ASID]bool, n)
	for i := 0; i < n; i++ {
		k.liveASIDs[tlb.ReadASID(r)] = true
	}
	k.nextPID = int(r.Varint())
	cores := len(k.lastTask)
	if n := r.Count("last task"); n != cores {
		r.Failf("%d last-task slots, machine boots %d cores", n, cores)
		return nil
	}
	lastTID := make([]int, cores)
	for i := range lastTID {
		lastTID[i] = int(r.Varint())
	}
	if n := r.Count("pending irq"); n != cores {
		r.Failf("%d pending-irq slots, machine boots %d cores", n, cores)
		return nil
	}
	for i := range k.pendingIRQ {
		k.pendingIRQ[i] = cycles.Cost(r.Uvarint())
	}
	n = r.Count("task")
	byTID := make(map[int]*Task, n)
	for i := 0; i < n; i++ {
		t := &Task{
			proc:      p,
			tid:       int(r.Varint()),
			core:      int(r.Varint()),
			table:     table(pagetable.ReadTableID(r, numTables)),
			asid:      tlb.ReadASID(r),
			baseASID:  tlb.ReadASID(r),
			savedPerm: r.Uvarint(),
			vds:       r.Bool(),
		}
		total, accounts := r.Uvarint(), r.Uvarint()
		switch {
		case r.Err() != nil:
			return nil
		case t.tid != i+1:
			r.Failf("task %d out of order", t.tid)
			return nil
		case t.core < 0 || t.core >= cores:
			r.Failf("task %d on core %d of %d", t.tid, t.core, cores)
			return nil
		case total != 0 || accounts != 0:
			r.Failf("task %d reserved words %d, %d are not zero", t.tid, total, accounts)
			return nil
		}
		p.tasks = append(p.tasks, t)
		byTID[t.tid] = t
	}
	for id, tid := range lastTID {
		if k.lastTask[id] = byTID[tid]; tid != 0 && k.lastTask[id] == nil {
			r.Failf("core %d last task %d is not a snapshot task", id, tid)
			return nil
		}
	}
	return byTID
}

// TasksByTID returns a task-keyed map's keys in ascending TID order (the
// nil task, TID 0, first), the order every checkpoint section encodes
// per-task state in.
func TasksByTID[V any](m map[*Task]V) []*Task {
	tasks := make([]*Task, 0, len(m))
	for t := range m {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return TIDOf(tasks[i]) < TIDOf(tasks[j]) })
	return tasks
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
