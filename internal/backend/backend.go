// Package backend is the kernel-backend registry and the one place a
// simulated system is booted. Boot builds the machine/kernel substrate
// (BootSubstrate, the only constructor of an hw.Config and a kernel in
// the repository outside tests) and attaches a registered
// domain-virtualization kernel to it: the VDom core, the libmpk
// baseline, the EPK VM model, or the DPTI per-domain-page-table
// baseline. Every surface boots through it — trace replay (replay.Boot),
// the paper workloads and fixtures, the conformance suite, and the
// public vdom.NewSystem/WithKernel API — so the compared systems of the
// paper's §7 are always built the same way.
//
// A backend registers once, under its trace kernel-kind name, and
// through the Backend interface reaches booting, trace recording (the
// unified tap), trace replay of its own layer's ops (Replay), end-state
// verification, checkpoint capture/restore (its vdom-snap/v2 section),
// metrics attribution, and the generic workload adapter (DomainOps).
// Adding a kernel takes its package, its ops appended to tap.Op, a field
// on Instance, one Backend implementation, and one Register call; the
// recorder and the replayer need no change.
package backend

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/wire"
)

// ErrDomainCapacity reports a DomainOps.Alloc against a backend whose
// fixed domain capacity (EPK's EPT groups) is exhausted.
var ErrDomainCapacity = tap.NewOutcome(tap.CodeDomainCapacity, "backend: domain capacity exhausted")

// Spec is the configuration a backend boots from — the replay.Header's
// knobs (replay.SpecFromHeader), decoupled from the trace format so
// non-replay callers (the public API, the fixtures, the conformance
// suite) can boot without forging headers.
type Spec struct {
	// Arch selects the cost table.
	Arch cycles.Arch
	// Cores is the machine size (<= 0 with a standalone backend: no
	// machine at all).
	Cores int
	// TLBCap is hw.Config.TLBCapacity (0 = unlimited).
	TLBCap int
	// NoASID disables ASID tagging (hw.Config.NoASID).
	NoASID bool
	// SetAssociative models 8-way set-associative TLBs
	// (hw.Config.SetAssociative).
	SetAssociative bool
	// VDomKernel enables the VDom kernel patch (kernel.Config).
	VDomKernel bool
	// Policy configures the VDom core; other backends ignore it.
	Policy core.Policy
	// Domains is EPK's fixed domain capacity.
	Domains int
	// Huge2M selects libmpk's 2 MiB page mode.
	Huge2M bool
}

// Instance is one booted system: the shared substrate (machine, kernel,
// process) plus the domain layer of its backend. Layers the backend does
// not use stay nil. replay.System is an alias of this type.
type Instance struct {
	Machine *hw.Machine
	Kernel  *kernel.Kernel
	Proc    *kernel.Process
	Manager *core.Manager
	Libmpk  *libmpk.Manager
	EPK     *epk.System
	DPTI    *dpti.Manager
}

// DomainOps is the kernel-neutral workload adapter: allocate domains,
// assign memory to them, and switch a thread's active domain, with each
// backend translating to its own primitives (VDR writes, pkey register
// writes, VMFUNC switches, pgd switches). The conformance suite and the
// kernel×arch matrix experiment drive every backend through it.
type DomainOps interface {
	// Alloc allocates a domain and returns its id.
	Alloc(t *kernel.Task) (id uint64, cost cycles.Cost, err error)
	// Free releases a domain.
	Free(t *kernel.Task, id uint64) (cycles.Cost, error)
	// Protect assigns [addr, addr+length) to the domain.
	Protect(t *kernel.Task, addr pagetable.VAddr, length uint64, id uint64) (cycles.Cost, error)
	// PrepareThread performs per-thread setup (VDom's VDR allocation);
	// n bounds how many domains the thread will touch.
	PrepareThread(t *kernel.Task, n int) (cycles.Cost, error)
	// Activate makes the domain accessible to (or current for) the thread.
	Activate(t *kernel.Task, id uint64) (cycles.Cost, error)
	// Deactivate revokes the thread's access to the domain.
	Deactivate(t *kernel.Task, id uint64) (cycles.Cost, error)
}

// Backend is one kernel's registration: how to boot it, tap it, snapshot
// it, account it, and drive it generically. Methods take the Instance so
// a Backend itself stays stateless and shareable.
type Backend interface {
	// Name is the trace kernel-kind string (replay.Kernel* constants).
	Name() string
	// Standalone reports whether this spec boots without the
	// machine/kernel substrate (EPK's pure cost model with Cores <= 0).
	Standalone(spec Spec) bool
	// Attach builds the backend's domain layer onto the instance; the
	// substrate is already booted unless Standalone.
	Attach(inst *Instance, spec Spec) error
	// AttachTap points the domain layer's trace tap at t.
	AttachTap(inst *Instance, t tap.Tap)
	// SetMetrics installs the cycle-attribution registry on the domain
	// layer (nil detaches).
	SetMetrics(inst *Instance, r *metrics.Registry)
	// EmitEnd emits the backend's end-state counters (trace End section).
	EmitEnd(inst *Instance, emit func(name string, v uint64))
	// Present reports whether the instance carries this backend's layer.
	Present(inst *Instance) bool
	// Section is the backend's vdom-snap/v2 section name.
	Section() string
	// Capture appends the domain layer's checkpoint image to b, encoded
	// by the layer's AppendState straight from its live structures.
	// tableID maps live page tables to stable ids (nil without a
	// process).
	Capture(inst *Instance, b []byte, tableID func(*pagetable.Table) int) []byte
	// Restore reads the checkpoint image from r into the freshly
	// attached domain layer with the layer's ReadState. The instance's
	// address space, if any, is already restored, so stable table ids
	// resolve through it; task resolves trace thread ids (nil without a
	// process). Every count and reference is checked before it is used,
	// and a failed check is left on r's sticky error; the layer may then
	// be half-loaded, and the caller discards the instance.
	Restore(inst *Instance, r *wire.Reader, task func(tid int) *kernel.Task)
	// Ops returns the kernel-neutral workload adapter over the instance.
	Ops(inst *Instance) DomainOps
	// Replay re-executes one recorded event of the backend's layer: e
	// carries the recorded op and arguments, t the task e.TID names (nil
	// for tid 0 or a tid no spawn created). It sets e's Dom, Perm, Cost
	// and Err to what the call returned, and reports ok; ok is false,
	// with e untouched, when e.Op is not of this layer. err reports a
	// record the layer cannot execute at all (an unknown tid, or an op
	// that takes a thread recorded without one).
	Replay(inst *Instance, e *tap.Event, t *kernel.Task) (ok bool, err error)
}

// checkTask validates the task a recorded event resolved to: a non-zero
// tid must name a spawned task, and need demands a task at all.
func checkTask(e *tap.Event, t *kernel.Task, need bool) error {
	switch {
	case t != nil:
		return nil
	case e.TID != 0:
		return fmt.Errorf("unknown tid %d", e.TID)
	case need:
		return fmt.Errorf("%s needs a thread", e.Op)
	}
	return nil
}

// registry holds backends in registration order (stable: vdom, libmpk,
// epk, dpti — Names, Of, and every per-kernel sweep follow it).
var registry []Backend

// Register adds a backend under its Name. Duplicate names panic: the
// name is the trace kernel kind, and two owners would corrupt replay.
func Register(b Backend) {
	for _, have := range registry {
		if have.Name() == b.Name() {
			panic(fmt.Sprintf("backend: duplicate registration of %q", b.Name()))
		}
	}
	registry = append(registry, b)
}

// Get returns the backend registered under name.
func Get(name string) (Backend, bool) {
	for _, b := range registry {
		if b.Name() == name {
			return b, true
		}
	}
	return nil, false
}

// Names lists the registered backend names in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name()
	}
	return out
}

// All returns the registered backends in registration order.
func All() []Backend {
	return append([]Backend(nil), registry...)
}

// Of returns the backend whose domain layer the instance carries, or nil
// for a bare substrate.
func Of(inst *Instance) Backend {
	for _, b := range registry {
		if b.Present(inst) {
			return b
		}
	}
	return nil
}

// Boot builds the system spec describes under the named backend: the
// machine and kernel substrate, one process, and the backend's domain
// layer, unwired (no metrics, taps, or chaos attached). A standalone
// spec (EPK's pure cost model) gets the domain layer alone.
func Boot(name string, spec Spec) (*Instance, error) {
	b, ok := Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown kernel kind %q", name)
	}
	inst := &Instance{}
	if !b.Standalone(spec) {
		if spec.Cores <= 0 {
			return nil, fmt.Errorf("kernel kind %q needs cores > 0", name)
		}
		inst = BootSubstrate(spec)
		inst.Proc = inst.Kernel.NewProcess()
	}
	if err := b.Attach(inst, spec); err != nil {
		return nil, err
	}
	return inst, nil
}

// BootSubstrate builds the machine and kernel alone — no process and no
// domain layer — for callers that create processes themselves (the
// public API, the kernel benchmarks, the unprotected baseline). It is
// the only place a machine or a kernel is constructed.
func BootSubstrate(spec Spec) *Instance {
	m := hw.NewMachine(hw.Config{
		Arch:           spec.Arch,
		NumCores:       spec.Cores,
		TLBCapacity:    spec.TLBCap,
		NoASID:         spec.NoASID,
		SetAssociative: spec.SetAssociative,
	})
	return &Instance{Machine: m, Kernel: kernel.New(kernel.Config{Machine: m, VDomEnabled: spec.VDomKernel})}
}

func init() {
	// Registration order is the order of every per-kernel sweep; keep it.
	Register(vdomBackend{})
	Register(libmpkBackend{})
	Register(epkBackend{})
	Register(dptiBackend{})
}
