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
	return inst.DPTI.Snap(tableID).Append(b)
}

func (dptiBackend) Restore(inst *Instance, r *wire.Reader, task func(int) *kernel.Task) {
	var ds dpti.Snap
	as := inst.Proc.AS()
	if ds.Read(r, as.NumTables(), task); r.Err() == nil {
		inst.DPTI.LoadSnap(ds, as.TableByID, task)
	}
}

func (dptiBackend) Ops(inst *Instance) DomainOps { return dptiOps{inst.DPTI} }

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
