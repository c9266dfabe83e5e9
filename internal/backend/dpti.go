package backend

import (
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/wire"
)

// dptiBackend registers the DPTI baseline (one page table per domain,
// pgd-switch activation, no key-register ceiling).
type dptiBackend struct{}

func (dptiBackend) Name() string             { return "dpti" }
func (dptiBackend) Standalone(Spec) bool     { return false }
func (dptiBackend) Present(i *Instance) bool { return i.DPTI != nil }
func (dptiBackend) Section() string          { return "dpti" }

func (dptiBackend) Attach(inst *Instance, spec Spec) error {
	inst.DPTI = dpti.Attach(inst.Proc)
	return nil
}

func (dptiBackend) AttachTap(inst *Instance, t tap.Tap)            { inst.DPTI.SetTap(t) }
func (dptiBackend) SetMetrics(inst *Instance, r *metrics.Registry) { inst.DPTI.SetMetrics(r) }

func (dptiBackend) EmitEnd(inst *Instance, emit func(string, uint64)) {
	inst.DPTI.Stats.Emit(emit)
	emit("dpti/live-tables", uint64(inst.DPTI.NumLiveTables()))
}

func (dptiBackend) Capture(inst *Instance, b []byte, tableID func(*pagetable.Table) int) []byte {
	return inst.DPTI.AppendState(b, tableID)
}

func (dptiBackend) Restore(inst *Instance, r *wire.Reader, task func(int) *kernel.Task) {
	inst.DPTI.ReadState(r, inst.Proc.AS().TableByID, inst.Proc.AS().NumTables(), task)
}

func (dptiBackend) Ops(inst *Instance) DomainOps { return dptiOps{inst.DPTI} }

// Replay executes the domain API. Free and Protect accept the nil task;
// Enter and Exit switch a thread's pgd, so they need one.
func (dptiBackend) Replay(inst *Instance, e *tap.Event, t *kernel.Task) (bool, error) {
	m := inst.DPTI
	d := dpti.DomainID(e.Dom)
	var need bool
	switch e.Op {
	case tap.OpDptiAlloc:
		id, cost := m.AllocDomain()
		e.Dom, e.Cost = uint64(id), cost
		return true, nil
	case tap.OpDptiFree, tap.OpDptiProtect:
	case tap.OpDptiEnter, tap.OpDptiExit:
		need = true
	default:
		return false, nil
	}
	if err := checkTask(e, t, need); err != nil {
		return true, err
	}
	switch e.Op {
	case tap.OpDptiFree:
		e.Cost, e.Err = m.FreeDomain(t, d)
	case tap.OpDptiProtect:
		e.Cost, e.Err = m.Protect(t, e.Addr, e.Len, d)
	case tap.OpDptiEnter:
		e.Cost, e.Err = m.Enter(t, d)
	case tap.OpDptiExit:
		e.Cost, e.Err = m.Exit(t)
	}
	return true, nil
}

// dptiOps adapts DPTI: domains map 1:1, activation is an Enter (pgd
// switch into the domain's table) and deactivation an Exit back to the
// base table.
type dptiOps struct{ m *dpti.Manager }

func (o dptiOps) Alloc(t *kernel.Task) (uint64, cycles.Cost, error) {
	d, cost := o.m.AllocDomain()
	return uint64(d), cost, nil
}

func (o dptiOps) Free(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.FreeDomain(t, dpti.DomainID(id))
}

func (o dptiOps) Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error) {
	return o.m.Protect(t, addr, length, dpti.DomainID(id))
}

func (o dptiOps) PrepareThread(t *kernel.Task, n int) (cycles.Cost, error) { return 0, nil }

func (o dptiOps) Activate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.Enter(t, dpti.DomainID(id))
}

func (o dptiOps) Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.Exit(t)
}
