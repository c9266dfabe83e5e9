package backend

import (
	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/wire"
)

// libmpkBackend registers the libmpk baseline (virtual keys over the 16
// hardware keys via disabled-PTE eviction).
type libmpkBackend struct{}

func (libmpkBackend) Name() string             { return "libmpk" }
func (libmpkBackend) Standalone(Spec) bool     { return false }
func (libmpkBackend) Present(i *Instance) bool { return i.Libmpk != nil }
func (libmpkBackend) Section() string          { return "libmpk" }

func (libmpkBackend) Attach(inst *Instance, spec Spec) error {
	inst.Libmpk = libmpk.Attach(inst.Proc, nil)
	if spec.Huge2M {
		inst.Libmpk.SetPageMode(libmpk.Huge2M)
	}
	return nil
}

func (libmpkBackend) AttachTap(inst *Instance, t tap.Tap)            { inst.Libmpk.SetTap(t) }
func (libmpkBackend) SetMetrics(inst *Instance, r *metrics.Registry) { inst.Libmpk.SetMetrics(r) }

func (libmpkBackend) EmitEnd(inst *Instance, emit func(string, uint64)) {
	inst.Libmpk.Stats.Emit(emit)
}

func (libmpkBackend) Capture(inst *Instance, b []byte, tableID func(*pagetable.Table) int) []byte {
	return inst.Libmpk.Snap().Append(b)
}

func (libmpkBackend) Restore(inst *Instance, r *wire.Reader, task func(int) *kernel.Task) {
	var ls libmpk.Snap
	if ls.Read(r, task); r.Err() == nil {
		inst.Libmpk.LoadSnap(ls, task)
	}
}

func (libmpkBackend) Ops(inst *Instance) DomainOps { return libmpkOps{inst.Libmpk} }

// libmpkOps adapts the libmpk baseline: domains are virtual keys and
// activation is a per-thread pkey register write. Per-thread setup is a
// no-op (the register is architectural state, not allocated).
type libmpkOps struct{ m *libmpk.Manager }

func (o libmpkOps) Alloc(t *kernel.Task) (uint64, cycles.Cost, error) {
	v, cost := o.m.PkeyAlloc()
	return uint64(v), cost, nil
}

func (o libmpkOps) Free(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.PkeyFree(t, libmpk.Vkey(id))
}

func (o libmpkOps) Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error) {
	return o.m.PkeyMprotect(nil, t, addr, length, libmpk.Vkey(id))
}

func (o libmpkOps) PrepareThread(t *kernel.Task, n int) (cycles.Cost, error) {
	return 0, nil
}

func (o libmpkOps) Activate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.PkeySet(nil, t, libmpk.Vkey(id), hw.PermReadWrite)
}

func (o libmpkOps) Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error) {
	return o.m.PkeySet(nil, t, libmpk.Vkey(id), hw.PermNone)
}
