// Package vdom is a faithful, fully simulated reproduction of VDom — the
// fast and unlimited memory-domain virtualization system of Yuan et al.
// (ASPLOS 2023) — as an embeddable Go library.
//
// Hardware memory-domain primitives (Intel MPK, ARM Memory Domain) offer
// cheap in-process isolation but only 16 domains. VDom virtualizes them
// into an unlimited supply of "virtual domains" (vdoms) by grouping
// threads into separate ASID-tagged address spaces (VDSes), each
// contributing a fresh set of hardware domains, and by balancing page
// global directory switches against HLRU domain evictions.
//
// Because Go's runtime cannot host real per-thread page tables or PKRU
// state, the library runs on a cycle-accounted simulated machine: real
// multi-level page tables, ASID-tagged TLBs, per-core permission
// registers, and a simulated kernel. Protection decisions are real — an
// access the hardware would forbid returns ErrSigsegv — and every
// operation reports the cycles the real system would spend, calibrated
// against the paper's measurements.
//
// # Quick start
//
//	sys := vdom.NewSystem(vdom.Config{Arch: vdom.X86, Cores: 4})
//	p := sys.NewProcess(vdom.DefaultPolicy())
//	t := p.NewThread(0)
//
//	buf, _ := t.Mmap(16 * vdom.PageSize) // map some memory
//	t.AllocVDR(4)                        // get a permission register
//	secret, _ := p.AllocDomain(false)    // unlimited vdoms
//	p.ProtectRange(t, buf, 4*vdom.PageSize, secret)
//
//	t.WriteVDR(secret, vdom.ReadWrite) // open the domain ...
//	t.Store(buf)                       // ... access it ...
//	t.WriteVDR(secret, vdom.NoAccess)  // ... and close it again.
//
//	if err := t.Load(buf); err != nil { /* SIGSEGV: domain is closed */ }
package vdom

import (
	"fmt"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
)

// PageSize is the protection granularity in bytes.
const PageSize = pagetable.PageSize

// Arch selects the simulated architecture.
type Arch = cycles.Arch

// Supported architectures.
const (
	// X86 models an Intel Xeon with MPK (user-space PKRU writes, PCID).
	X86 = cycles.X86
	// ARM models a 32-bit ARM core with Memory Domains (kernel-mediated
	// DACR writes, ASIDs).
	ARM = cycles.ARM
	// Power models a projected IBM POWER9 with 32 protection domains
	// (kernel-mediated AMR writes). The paper's prototype does not cover
	// Power; treat results as projections (see DESIGN.md).
	Power = cycles.Power
	// RISCV models a projected RISC-V core with sealable protection keys
	// (user-writable permission register, 16 pdoms, sealing checks on
	// register writes). The paper's prototype does not cover RISC-V;
	// treat results as projections (see DESIGN.md).
	RISCV = cycles.RISCV
)

// Addr is a virtual address in a process's simulated address space.
type Addr = pagetable.VAddr

// Domain is a virtual domain identifier (vdom). Domains are unlimited;
// ids increase monotonically and are never reused.
type Domain = core.VdomID

// Perm is a thread's permission on a domain.
type Perm = core.VPerm

// Permission values, mirroring the paper's API: on top of MPK's triple,
// Pinned is access-disabled but resists HLRU eviction.
const (
	NoAccess  = core.VPermNone
	ReadOnly  = core.VPermRead
	ReadWrite = core.VPermReadWrite
	Pinned    = core.VPermPinned
)

// Cycles is a simulated-cycle count.
type Cycles = cycles.Cost

// Policy re-exports the VDom policy knobs (eviction flavour, call-gate
// profile, flush thresholds).
type Policy = core.Policy

// DefaultPolicy returns the paper-faithful policy: secure call gate, HLRU
// with the PMD fast path, 64-page range-flush threshold, nas budget 4.
func DefaultPolicy() Policy { return core.DefaultPolicy() }

// Error taxonomy: every failure the library returns wraps one of these
// sentinels, so callers branch with errors.Is instead of string matching.
var (
	// ErrSigsegv is returned by Load/Store when the simulated hardware
	// denies the access; it aliases the kernel's signal for errors.Is
	// tests.
	ErrSigsegv = kernel.ErrSigsegv
	// ErrNoResources marks a failed resource acquisition (no evictable
	// domain, transient VDS allocation failure). Degradation paths retry
	// around it; when it reaches the caller the operation can simply be
	// retried later.
	ErrNoResources = core.ErrNoResources
	// ErrExhausted marks terminal resource exhaustion: every fallback was
	// tried and the underlying space (ASIDs, pdoms) is genuinely full.
	ErrExhausted = core.ErrExhausted
	// ErrDegraded marks an operation that failed even after its degraded
	// fallback ran.
	ErrDegraded = core.ErrDegraded
	// ErrDomainCapacity marks a DomainAlloc against a kernel backend
	// whose fixed domain capacity (EPK's EPT groups) is exhausted.
	ErrDomainCapacity = backend.ErrDomainCapacity
)

// ChaosConfig configures the deterministic fault-injection layer; see
// Config.Chaos. The zero value injects nothing.
type ChaosConfig = chaos.Config

// ChaosViolation is one cross-layer incoherence found by System.Audit.
type ChaosViolation = chaos.Violation

// Config describes the simulated platform.
type Config struct {
	// Arch is the simulated architecture (default X86).
	Arch Arch
	// Kernel selects the protection-kernel backend processes attach to:
	// one of Kernels() ("vdom", "libmpk", "epk", "dpti"; default
	// "vdom"). Non-vdom kernels boot an unpatched kernel and expose
	// their domain API through the kernel-neutral Process.Domain*
	// methods; the vdom-specific surface (WriteVDR, ProtectRange, ...)
	// is only available under the default kernel.
	Kernel string
	// Cores is the number of hardware threads (default 4).
	Cores int
	// TLBEntries is the per-core TLB capacity (default 1536).
	TLBEntries int
	// NoASID disables ASID tagging, forcing a full TLB flush on every
	// address-space switch (ablation only).
	NoASID bool
	// SetAssociativeTLB models 8-way set-associative TLBs (conflict
	// misses) instead of fully associative ones.
	SetAssociativeTLB bool
	// VanillaKernel boots the kernel without the VDom patches; only
	// useful for baseline measurements.
	VanillaKernel bool
	// Chaos, when non-nil, attaches the deterministic fault-injection
	// layer with the given per-fault probabilities and seed. The fault
	// hooks are zero-cost when Chaos is nil.
	Chaos *ChaosConfig
	// Metrics enables the unified observability layer: every layer of
	// the system (kernel, domain manager, libmpk when attached)
	// publishes named counters, per-(layer, operation) cycle
	// attribution, and domain-activation cost histograms into one
	// registry, read through System.Metrics or System.MetricsSnapshot.
	// When false the hooks are nil-receiver no-ops and cost nothing.
	Metrics bool
}

// System is one simulated machine plus its booted kernel.
type System struct {
	machine    *hw.Machine
	kernel     *kernel.Kernel
	injector   *chaos.Injector
	metrics    *MetricsRegistry
	procs      []*Process
	kernelName string
	arch       Arch
	cores      int
	vanilla    bool
}

// NewSystem boots a simulated machine. The zero Config is valid (X86,
// 4 cores, default TLB); an invalid Config — anything Config.Validate
// rejects — panics. Use NewSystemWith to get the validation failure as an
// error instead.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic("vdom: " + err.Error())
	}
	return newSystem(cfg)
}

// newSystem builds a system from a validated config, applying defaults.
func newSystem(cfg Config) *System {
	if cfg.Cores == 0 {
		cfg.Cores = 4
	}
	if cfg.Kernel == "" {
		cfg.Kernel = "vdom"
	}
	m := hw.NewMachine(hw.Config{
		Arch:           cfg.Arch,
		NumCores:       cfg.Cores,
		TLBCapacity:    cfg.TLBEntries,
		NoASID:         cfg.NoASID,
		SetAssociative: cfg.SetAssociativeTLB,
	})
	// Only the vdom backend runs on the patched kernel; the baselines
	// measure against a vanilla one, exactly as the paper does.
	vdomKernel := !cfg.VanillaKernel && cfg.Kernel == "vdom"
	k := kernel.New(kernel.Config{Machine: m, VDomEnabled: vdomKernel})
	s := &System{
		machine: m, kernel: k,
		kernelName: cfg.Kernel, arch: cfg.Arch, cores: cfg.Cores,
		vanilla: cfg.VanillaKernel,
	}
	if cfg.Metrics {
		s.metrics = metrics.New()
		k.SetMetrics(s.metrics)
	}
	if cfg.Chaos != nil {
		s.injector = chaos.New(*cfg.Chaos)
		s.injector.AttachMachine(m)
		s.injector.AttachKernel(k)
	}
	return s
}

// Injector returns the fault-injection layer, or nil when Config.Chaos
// was nil (advanced use: event log, per-fault counters).
func (s *System) Injector() *chaos.Injector { return s.injector }

// MetricsRegistry is the live metrics registry of the unified
// observability layer: named counters, per-(layer, operation) cycle
// attribution, and cost histograms. A nil registry no-ops on every
// method, so code can publish unconditionally.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a consistent point-in-time copy of a registry,
// serializable as the "vdom-metrics/v1" JSON schema (OBSERVABILITY.md).
type MetricsSnapshot = metrics.Snapshot

// Metrics returns the live registry, or nil when Config.Metrics was
// false. The registry is shared by the kernel and every process created
// on the system.
func (s *System) Metrics() *MetricsRegistry { return s.metrics }

// MetricsSnapshot harvests the pull-based layer counters (TLB, frame
// allocator, page tables, ASID allocator, chaos injector when attached)
// into the registry and returns a consistent snapshot. It returns an
// empty (but valid) snapshot when Config.Metrics was false.
func (s *System) MetricsSnapshot() *MetricsSnapshot {
	if s.metrics == nil {
		return (*MetricsRegistry)(nil).Snapshot()
	}
	sources := []metrics.Source{s.machine, s.kernel}
	for _, p := range s.procs {
		sources = append(sources, p.proc.AS())
	}
	if s.injector != nil {
		sources = append(sources, s.injector)
	}
	s.metrics.Harvest(sources...)
	return s.metrics.Snapshot()
}

// Audit runs the cross-layer consistency auditor over every core's TLB,
// the kernel's ASID state and every process's domain metadata. An empty
// result means the machine is coherent — even under active fault
// injection, thanks to the degradation paths.
func (s *System) Audit() []ChaosViolation {
	insts := make([]*backend.Instance, len(s.procs))
	for i, p := range s.procs {
		insts[i] = p.inst
	}
	return chaos.Audit(insts...)
}

// Kernel exposes the simulated kernel (advanced use: scheduler bridges,
// syscall filters).
func (s *System) Kernel() *kernel.Kernel { return s.kernel }

// Cores returns the machine's core count.
func (s *System) Cores() int { return s.machine.NumCores() }

// Process is a process attached to the system's kernel backend. Under
// the default "vdom" kernel the full VDom surface (AllocDomain,
// ProtectRange, WriteVDR, ...) is available; under a baseline kernel
// (Config.Kernel) only the kernel-neutral Domain* methods are — the
// vdom-specific ones panic with a descriptive message.
type Process struct {
	sys  *System
	proc *kernel.Process
	inst *backend.Instance
	ops  backend.DomainOps
	mgr  *core.Manager
	next Addr
}

// NewProcess creates a process attached to the system's kernel backend
// (vdom_init under the default kernel). The policy applies to the vdom
// backend; baselines ignore it.
func (s *System) NewProcess(policy Policy) *Process {
	b, _ := backend.Get(s.kernelName)
	proc := s.kernel.NewProcess()
	inst := &backend.Instance{Machine: s.machine, Kernel: s.kernel, Proc: proc}
	spec := backend.Spec{
		Arch: s.arch, Cores: s.cores,
		VDomKernel:     s.kernelName == "vdom" && !s.vanilla,
		SecureGate:     policy.SecureGate,
		NoPMDOpt:       policy.NoPMDOpt,
		StrictLRU:      policy.StrictLRU,
		FlushThreshold: policy.RangeFlushThresholdPages,
		Nas:            policy.DefaultNas,
		// EPK's fixed capacity when that backend is selected: four EPT
		// groups of hardware keys.
		Domains: 4 * epk.KeysPerEPT,
	}
	if err := b.Attach(inst, spec); err != nil {
		panic("vdom: " + err.Error())
	}
	p := &Process{
		sys:  s,
		proc: proc,
		inst: inst,
		ops:  b.Ops(inst),
		mgr:  inst.Manager,
		next: 0x10_0000_0000,
	}
	if s.injector != nil && p.mgr != nil {
		s.injector.AttachManager(p.mgr)
	}
	b.SetMetrics(inst, s.metrics)
	s.procs = append(s.procs, p)
	return p
}

// KernelName returns the kernel backend this system boots processes on
// (Config.Kernel, defaulted).
func (s *System) KernelName() string { return s.kernelName }

// Manager exposes the underlying domain manager (advanced use: stats,
// call-gate access). It is nil under a non-vdom kernel.
func (p *Process) Manager() *core.Manager { return p.mgr }

// requireVDom guards the vdom-specific surface under baseline kernels.
func (p *Process) requireVDom(op string) {
	if p.mgr == nil {
		panic(fmt.Sprintf(
			"vdom: %s needs the vdom kernel, but the system was booted with kernel %q — use the kernel-neutral Domain* methods",
			op, p.sys.kernelName))
	}
}

// DomainAlloc allocates a domain through the selected kernel backend's
// own primitive (vdom_alloc, pkey_alloc, an EPT slot, dpti_alloc). The
// Domain* methods are the kernel-neutral surface: they behave uniformly
// under every Kernels() entry, which is what makes cross-kernel
// comparisons one-line configuration changes.
func (p *Process) DomainAlloc(t *Thread) (uint64, Cycles, error) {
	return p.ops.Alloc(t.task)
}

// DomainFree releases a backend domain.
func (p *Process) DomainFree(t *Thread, id uint64) (Cycles, error) {
	return p.ops.Free(t.task, id)
}

// DomainProtect assigns the pages of [addr, addr+length) to the domain.
func (p *Process) DomainProtect(t *Thread, addr Addr, length uint64, id uint64) (Cycles, error) {
	return p.ops.Protect(t.task, addr, length, id)
}

// DomainPrepare performs the backend's per-thread setup (VDom's VDR
// allocation; a no-op for backends without per-thread state). n bounds
// how many domains the thread will touch.
func (p *Process) DomainPrepare(t *Thread, n int) (Cycles, error) {
	return p.ops.PrepareThread(t.task, n)
}

// DomainActivate makes the domain accessible to (or current for) the
// thread — a VDR write, a pkey-register write, a VMFUNC switch, or a
// pgd switch, depending on the kernel.
func (p *Process) DomainActivate(t *Thread, id uint64) (Cycles, error) {
	return p.ops.Activate(t.task, id)
}

// DomainDeactivate revokes the thread's access to the domain.
func (p *Process) DomainDeactivate(t *Thread, id uint64) (Cycles, error) {
	return p.ops.Deactivate(t.task, id)
}

// Underlying returns the kernel process (advanced use).
func (p *Process) Underlying() *kernel.Process { return p.proc }

// AllocDomain allocates a fresh virtual domain (vdom_alloc). Marking it
// frequently-accessed biases activation toward in-place eviction rather
// than address-space switches.
func (p *Process) AllocDomain(frequentlyAccessed bool) (Domain, Cycles) {
	p.requireVDom("AllocDomain")
	return p.mgr.AllocVdom(frequentlyAccessed)
}

// FreeDomain releases a domain (vdom_free).
func (p *Process) FreeDomain(d Domain) (Cycles, error) {
	p.requireVDom("FreeDomain")
	return p.mgr.FreeVdom(d)
}

// ProtectRange assigns the pages containing [addr, addr+length) to domain
// d (vdom_mprotect), called by thread t.
func (p *Process) ProtectRange(t *Thread, addr Addr, length uint64, d Domain) (Cycles, error) {
	p.requireVDom("ProtectRange")
	return p.mgr.Mprotect(t.task, addr, length, d)
}

// Stats returns the domain-virtualization event counters.
func (p *Process) Stats() core.Stats {
	p.requireVDom("Stats")
	return p.mgr.Stats
}

// Event is one traced domain-virtualization occurrence (a map, eviction,
// VDS switch, migration, VDS allocation, or free).
type Event = core.Event

// EventKind classifies a traced event.
type EventKind = core.EventKind

// Traced event kinds.
const (
	EventMap      = core.EventMap
	EventEvict    = core.EventEvict
	EventSwitch   = core.EventSwitch
	EventMigrate  = core.EventMigrate
	EventVDSAlloc = core.EventVDSAlloc
	EventFree     = core.EventFree
)

// Trace installs fn as the process's domain-virtualization tracer; pass
// nil to disable. Tracing is free when disabled.
func (p *Process) Trace(fn func(Event)) {
	p.requireVDom("Trace")
	if fn == nil {
		p.mgr.SetTracer(nil)
		return
	}
	p.mgr.SetTracer(core.Tracer(fn))
}

// Thread is one schedulable thread of a process.
type Thread struct {
	proc *Process
	task *kernel.Task
}

// NewThread spawns a thread pinned to the given core. An out-of-range
// coreID panics (deep in the simulated kernel); use NewThreadOn to get a
// typed error validated at the API boundary instead.
func (p *Process) NewThread(coreID int) *Thread {
	t, err := p.NewThreadOn(coreID)
	if err != nil {
		panic("vdom: " + err.Error())
	}
	return t
}

// NewThreadOn spawns a thread pinned to the given core, returning a
// *CoreRangeError (matchable with errors.As) when coreID is not a valid
// core of the system.
func (p *Process) NewThreadOn(coreID int) (*Thread, error) {
	if n := p.sys.Cores(); coreID < 0 || coreID >= n {
		return nil, &CoreRangeError{Core: coreID, Cores: n}
	}
	return &Thread{proc: p, task: p.proc.NewTask(coreID)}, nil
}

// Task exposes the kernel task (advanced use: scheduler bridges).
func (t *Thread) Task() *kernel.Task { return t.task }

// Mmap maps `length` bytes (page-aligned up) of fresh anonymous memory
// and returns its base address.
func (t *Thread) Mmap(length uint64) (Addr, error) {
	length = (length + PageSize - 1) &^ (PageSize - 1)
	base := t.proc.next
	// Keep regions far apart so 2 MiB-granular operations of different
	// domains never share a PMD.
	gap := uint64(16 * pagetable.PMDSize)
	t.proc.next += Addr(length + gap)
	if _, err := t.task.Mmap(base, length, true); err != nil {
		return 0, fmt.Errorf("vdom: mmap: %w", err)
	}
	return base, nil
}

// MmapAt maps memory at a caller-chosen page-aligned address.
func (t *Thread) MmapAt(addr Addr, length uint64, writable bool) error {
	_, err := t.task.Mmap(addr, length, writable)
	return err
}

// AllocVDR gives the thread a virtual domain register (vdr_alloc). nas
// bounds the number of address spaces the thread may own; nas <= 0 uses
// the policy default. nas == 1 disables VDS switching entirely (pure
// eviction mode).
func (t *Thread) AllocVDR(nas int) (Cycles, error) {
	t.proc.requireVDom("AllocVDR")
	return t.proc.mgr.VdrAlloc(t.task, nas)
}

// FreeVDR releases the thread's register (vdr_free).
func (t *Thread) FreeVDR() (Cycles, error) {
	t.proc.requireVDom("FreeVDR")
	return t.proc.mgr.VdrFree(t.task)
}

// WriteVDR sets the thread's permission on d (wrvdr), activating the
// domain in the thread's current VDS if needed — this is where the domain
// virtualization algorithm runs.
func (t *Thread) WriteVDR(d Domain, perm Perm) (Cycles, error) {
	t.proc.requireVDom("WriteVDR")
	return t.proc.mgr.WrVdr(t.task, d, perm)
}

// ReadVDR reads the thread's permission on d (rdvdr).
func (t *Thread) ReadVDR(d Domain) (Perm, Cycles, error) {
	t.proc.requireVDom("ReadVDR")
	return t.proc.mgr.RdVdr(t.task, d)
}

// LoadCost performs a read at addr and reports its simulated cycle cost.
// It is the primary memory-access API: every Thread operation reports
// (Cycles, error), and LoadCost/StoreCost complete that contract for the
// access path. The simulated MMU enforces domain permissions — TLB
// lookup, page walk on a miss, then the domain check — and the error is
// ErrSigsegv (under errors.Is) when the hardware would deny the access;
// the returned cycles cover the attempt and any fault handling the kernel
// performed.
func (t *Thread) LoadCost(addr Addr) (Cycles, error) {
	return t.task.Access(addr, false)
}

// StoreCost performs a write at addr and reports its simulated cycle
// cost; see LoadCost for the access and error semantics. Writes
// additionally require the page to be mapped writable and the domain
// open for writing.
func (t *Thread) StoreCost(addr Addr) (Cycles, error) {
	return t.task.Access(addr, true)
}

// Load is a convenience wrapper around LoadCost for callers that only
// care whether the access was permitted, not what it cost.
func (t *Thread) Load(addr Addr) error {
	_, err := t.LoadCost(addr)
	return err
}

// Store is a convenience wrapper around StoreCost; see Load.
func (t *Thread) Store(addr Addr) error {
	_, err := t.StoreCost(addr)
	return err
}
