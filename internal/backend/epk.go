package backend

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/wire"
)

// epkBackend registers the EPK baseline (VMFUNC-switched EPT groups of
// 15 keys each). With Cores <= 0 it is a standalone cost model needing
// no machine substrate; with cores it rides the vanilla kernel.
type epkBackend struct{}

func (epkBackend) Name() string              { return "epk" }
func (epkBackend) Standalone(spec Spec) bool { return spec.Cores <= 0 }
func (epkBackend) Present(i *Instance) bool  { return i.EPK != nil }
func (epkBackend) Section() string           { return "epk" }

func (epkBackend) Attach(inst *Instance, spec Spec) error {
	inst.EPK = epk.New(spec.Domains, epk.DefaultVMTax())
	return nil
}

func (epkBackend) AttachTap(inst *Instance, t tap.Tap)            { inst.EPK.SetTap(t) }
func (epkBackend) SetMetrics(inst *Instance, r *metrics.Registry) { inst.EPK.SetMetrics(r) }

func (epkBackend) EmitEnd(inst *Instance, emit func(string, uint64)) {
	inst.EPK.Stats.Emit(emit)
	emit("epk/epts", uint64(inst.EPK.NumEPTs()))
}

func (epkBackend) Capture(inst *Instance, b []byte, tableID func(*pagetable.Table) int) []byte {
	return inst.EPK.AppendState(b)
}

func (epkBackend) Restore(inst *Instance, r *wire.Reader, task func(int) *kernel.Task) {
	inst.EPK.ReadState(r)
}

func (epkBackend) Ops(inst *Instance) DomainOps { return &epkOps{s: inst.EPK} }

// Replay executes domain switches. A switch is keyed by the acting
// task's TID; the standalone cost model has no tasks and records tid 0.
func (epkBackend) Replay(inst *Instance, e *tap.Event, t *kernel.Task) (bool, error) {
	if e.Op != tap.OpEpkSwitch {
		return false, nil
	}
	if err := checkTask(e, t, false); err != nil {
		return true, err
	}
	e.Cost = inst.EPK.Switch(kernel.TIDOf(t), int(e.Dom))
	return true, nil
}

// epkOps adapts the EPK model: domains are slots in the fixed EPT-group
// space, activation is a domain switch (MPK write or VMFUNC), and the
// page-level operations are no-ops — EPK isolates through per-group
// EPT views, not per-page tags.
type epkOps struct {
	s    *epk.System
	next int
}

func (o *epkOps) Alloc(t *kernel.Task) (uint64, cycles.Cost, error) {
	if o.next >= o.s.NumDomains() {
		return 0, 0, fmt.Errorf("%w: epk holds %d domains", ErrDomainCapacity, o.s.NumDomains())
	}
	id := o.next
	o.next++
	return uint64(id), 0, nil
}

func (o *epkOps) Free(t *kernel.Task, id uint64) (cycles.Cost, error) { return 0, nil }

func (o *epkOps) Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error) {
	return 0, nil
}

func (o *epkOps) PrepareThread(t *kernel.Task, n int) (cycles.Cost, error) { return 0, nil }

func (o *epkOps) Activate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.s.Switch(kernel.TIDOf(t), int(id)), nil
}

func (o *epkOps) Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error) { return 0, nil }
