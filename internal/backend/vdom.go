package backend

import (
	"hash/fnv"
	"sort"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/wire"
)

// vdomBackend registers the VDom core (unlimited virtual domains over
// the 16 hardware keys via ASID-tagged VDSes, HLRU eviction).
type vdomBackend struct{}

func (vdomBackend) Name() string             { return "vdom" }
func (vdomBackend) Standalone(Spec) bool     { return false }
func (vdomBackend) Present(i *Instance) bool { return i.Manager != nil }
func (vdomBackend) Section() string          { return "core/manager" }

func (vdomBackend) Attach(inst *Instance, spec Spec) error {
	inst.Manager = core.Attach(inst.Proc, spec.Policy)
	return nil
}

func (vdomBackend) AttachTap(inst *Instance, t tap.Tap)            { inst.Manager.SetTap(t) }
func (vdomBackend) SetMetrics(inst *Instance, r *metrics.Registry) { inst.Manager.SetMetrics(r) }

func (vdomBackend) EmitEnd(inst *Instance, emit func(string, uint64)) {
	m := inst.Manager
	m.Stats.Emit(emit)
	emit("core/vdses", uint64(len(m.VDSes())))
	emit("core/domain-digest", domainDigest(m))
}

func (vdomBackend) Capture(inst *Instance, b []byte, tableID func(*pagetable.Table) int) []byte {
	return inst.Manager.AppendState(b, tableID)
}

func (vdomBackend) Restore(inst *Instance, r *wire.Reader, task func(int) *kernel.Task) {
	inst.Manager.ReadState(r, inst.Proc.AS().TableByID, inst.Proc.AS().NumTables(), task)
}

func (vdomBackend) Ops(inst *Instance) DomainOps { return vdomOps{inst.Manager} }

// Replay executes the core's API ops and VDS reaping. Every per-thread
// call needs the thread's task.
func (vdomBackend) Replay(inst *Instance, e *tap.Event, t *kernel.Task) (bool, error) {
	m := inst.Manager
	d := core.VdomID(e.Dom)
	switch e.Op {
	case tap.OpReap:
		e.Dom = uint64(m.ReapVDSes())
		return true, nil
	case tap.OpVdomAlloc:
		id, cost := m.AllocVdom(e.Freq)
		e.Dom, e.Cost = uint64(id), cost
		return true, nil
	case tap.OpVdomFree:
		e.Cost, e.Err = m.FreeVdom(d)
		return true, nil
	case tap.OpVdomMprotect, tap.OpVdrAlloc, tap.OpVdrFree, tap.OpVdrRead, tap.OpVdrWrite, tap.OpNewVDS:
	default:
		return false, nil
	}
	if err := checkTask(e, t, true); err != nil {
		return true, err
	}
	switch e.Op {
	case tap.OpVdomMprotect:
		e.Cost, e.Err = m.Mprotect(t, e.Addr, e.Len, d)
	case tap.OpVdrAlloc:
		e.Cost, e.Err = m.VdrAlloc(t, int(e.Len))
	case tap.OpVdrFree:
		e.Cost, e.Err = m.VdrFree(t)
	case tap.OpVdrRead:
		var p core.VPerm
		p, e.Cost, e.Err = m.RdVdr(t, d)
		e.Perm = uint8(p)
	case tap.OpVdrWrite:
		e.Cost, e.Err = m.WrVdr(t, d, core.VPerm(e.Perm))
	case tap.OpNewVDS:
		e.Cost, e.Err = m.PlaceInNewVDS(t)
	}
	return true, nil
}

// vdomOps adapts the VDom manager: domains are vdoms, per-thread setup
// is a VDR allocation, and activation is a VDR permission write.
type vdomOps struct{ m *core.Manager }

func (o vdomOps) Alloc(t *kernel.Task) (uint64, cycles.Cost, error) {
	d, cost := o.m.AllocVdom(false)
	return uint64(d), cost, nil
}

func (o vdomOps) Free(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.FreeVdom(core.VdomID(id))
}

func (o vdomOps) Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error) {
	return o.m.Mprotect(t, addr, length, core.VdomID(id))
}

func (o vdomOps) PrepareThread(t *kernel.Task, n int) (cycles.Cost, error) {
	return o.m.VdrAlloc(t, n)
}

func (o vdomOps) Activate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.WrVdr(t, core.VdomID(id), core.VPermReadWrite)
}

func (o vdomOps) Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.WrVdr(t, core.VdomID(id), core.VPermNone)
}

// domainDigest hashes the manager's live domain map: for each VDS (in id
// order) its id, resident thread count, and sorted vdom→pdom bindings.
// Two runs with identical digests ended with identical domain placement.
func domainDigest(m *core.Manager) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	vdses := append([]*core.VDS(nil), m.VDSes()...)
	sort.Slice(vdses, func(i, j int) bool { return vdses[i].ID() < vdses[j].ID() })
	for _, v := range vdses {
		put(uint64(v.ID()))
		put(uint64(v.NumThreads()))
		doms := v.MappedVdoms()
		sort.Slice(doms, func(i, j int) bool { return doms[i] < doms[j] })
		for _, d := range doms {
			pd, _ := v.PdomOf(d)
			put(uint64(d))
			put(uint64(pd))
		}
	}
	return h.Sum64()
}
