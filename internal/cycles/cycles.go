// Package cycles defines the per-architecture cycle cost model that the
// simulated hardware, kernel, and domain-virtualization systems charge for
// architectural events.
//
// The model follows the reproduction methodology of the VDom paper (§7.4):
// results are produced by counting architectural events (TLB flushes, PTE
// updates, pgd switches, permission-register writes, faults, IPIs) and
// charging a calibrated per-event cost. The constants below are calibrated
// against the paper's Table 3 so that composite operations (fast/secure
// wrvdr, evictions, VDS switches) land on the measured cycle counts; all
// higher-level results must emerge from event counts, never from
// per-experiment fudge factors.
package cycles

import "fmt"

// Arch identifies a simulated processor architecture.
type Arch int

const (
	// X86 models an Intel Xeon with MPK (user-writable PKRU) and PCID.
	X86 Arch = iota
	// ARM models a 32-bit ARM core with Memory Domains (kernel-written
	// DACR) and ASID-tagged TLBs.
	ARM
	// Power models an IBM POWER9 with Memory Protection Keys (32
	// domains via the kernel-written AMR) — the third primitive the
	// paper's Background surveys.
	Power
	// RISCV models a RISC-V core with sealable protection keys (SealPK,
	// Delshadtehrani et al.): an MPK-style per-page key primitive with a
	// user-writable permission register and sealing support, prototyped
	// on an in-order FPGA core.
	RISCV
)

// String returns the conventional short name of the architecture.
func (a Arch) String() string {
	switch a {
	case X86:
		return "X86"
	case ARM:
		return "ARM"
	case Power:
		return "Power"
	case RISCV:
		return "RISCV"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Cost is a duration measured in CPU cycles of the simulated machine.
type Cost uint64

// Params is the per-architecture cost table. Every field is the cycle cost
// of one architectural event on that architecture.
type Params struct {
	Arch Arch

	// NumPdoms is the number of hardware protection domains (16 on both
	// Intel MPK and ARM Memory Domain).
	NumPdoms int
	// DomainGranularity is the protection granularity in bytes (4 KiB on
	// Intel, 2 MiB sections on ARM; we model ARM at page granularity with
	// a section-sized minimum protected unit).
	DomainGranularity uint64
	// UserWritablePermReg reports whether user space can write the
	// permission register directly (true for Intel PKRU, false for ARM
	// DACR, which requires a kernel entry).
	UserWritablePermReg bool

	// --- Core pipeline events ---

	// CallReturn is an empty user-space call+return pair.
	CallReturn Cost
	// SyscallReturn is an empty syscall+sysret round trip.
	SyscallReturn Cost
	// PermRegWrite is one write of the permission register
	// (wrpkru on Intel, DACR write on ARM; the ARM figure excludes the
	// kernel entry, which is charged separately via SyscallReturn).
	PermRegWrite Cost
	// PermRegRead is one read of the permission register.
	PermRegRead Cost

	// --- Memory system events ---

	// TLBHit is a TLB lookup that hits.
	TLBHit Cost
	// PageWalk is a full page-table walk on a TLB miss (4 levels).
	PageWalk Cost
	// PTEWrite is one page-table-entry update (store + bookkeeping).
	PTEWrite Cost
	// PMDWrite is one page-middle-directory update (disables/remaps 512
	// PTEs at once).
	PMDWrite Cost
	// TLBFlushLocalPage invalidates a single page in the local TLB.
	TLBFlushLocalPage Cost
	// TLBFlushLocalASID invalidates all local entries of one ASID.
	TLBFlushLocalASID Cost
	// TLBFlushLocalAll invalidates the whole local TLB.
	TLBFlushLocalAll Cost
	// IPI is the cost of sending one inter-processor interrupt, charged
	// to the initiator per remote core during a TLB shootdown.
	IPI Cost
	// IPIReceive is the cost charged to a remote core that services a
	// shootdown IPI (interrupt entry + flush + exit).
	IPIReceive Cost

	// --- Kernel events ---

	// FaultEntry is the trap cost of entering the kernel on a fault
	// (protection-key fault on Intel, domain fault on ARM).
	FaultEntry Cost
	// FaultExit is the return-from-fault cost.
	FaultExit Cost
	// PgdSwitch is one page-global-directory switch without a TLB flush
	// (ASID-tagged); the cost covers the CR3/TTBR write.
	PgdSwitch Cost
	// ContextSwitchBase is the architecture's baseline switch_mm cost on
	// an unmodified kernel.
	ContextSwitchBase Cost
	// VDSMetadataSwitch is the extra metadata maintenance VDom adds to a
	// context switch that targets a VDS.
	VDSMetadataSwitch Cost
	// SchedulerPick is the cost of one scheduler decision.
	SchedulerPick Cost

	// --- Virtualization events (EPK baseline) ---

	// VMFUNC is one EPT switch via the VMFUNC instruction (small EPT
	// counts; Intel only).
	VMFUNC Cost
	// VMFUNCLargeEPT is a VMFUNC switch when many EPTs are installed
	// (the paper reports 830 cycles at 64 EPTs).
	VMFUNCLargeEPT Cost

	// --- VDom API components ---

	// GateEntry is the secure call gate entry on Intel: rdpkru+wrpkru to
	// open pdom1, lsl core-number read, secure-page load, stack switch.
	GateEntry Cost
	// GateExit is the secure call gate exit: merged wrpkru, legality
	// check, stack restore.
	GateExit Cost
	// VDRUpdate is the user-space bookkeeping of a VDR permission update
	// (array read-modify-write plus domain-map lookup).
	VDRUpdate Cost
	// VDTWalkPerArea is the kernel cost of finding one memory area
	// through the virtual domain table during eviction.
	VDTWalkPerArea Cost
	// DomainMapUpdate is one (pdom, vdom) domain-map entry update.
	DomainMapUpdate Cost
	// MigrationPerVdom is the per-remapped-vdom cost of a thread
	// migration between VDSes (domain-map + permission-register sync).
	MigrationPerVdom Cost
	// VDSAllocate is the cost of allocating and initializing a new VDS
	// descriptor and its page table top level.
	VDSAllocate Cost
	// EvictBase is the fixed kernel cost of one vdom eviction: taking
	// the mmap lock, scanning the domain map for a victim, and the
	// mprotect-style VMA bookkeeping, excluding per-PTE/PMD and flush
	// costs.
	EvictBase Cost
	// SyncPerPage is the per-page cost of propagating a mapping to one
	// additional VDS page table (eager sync or demand-paging fill).
	SyncPerPage Cost
	// MprotectPerPage is the per-page cost of the generic kernel
	// mprotect path (mmap-lock, VMA split, folio accounting, PTE
	// update) that libmpk's eviction rides on — substantially more
	// expensive than VDom's direct VDT-guided PTE manipulation.
	MprotectPerPage Cost
}

// X86Params returns the calibrated cost table for the simulated Intel Xeon
// (Gold 6230R class) machine.
func X86Params() *Params {
	return &Params{
		Arch:                X86,
		NumPdoms:            16,
		DomainGranularity:   4096,
		UserWritablePermReg: true,

		CallReturn:    7,   // paper: 6.7
		SyscallReturn: 173, // paper: 173.4
		PermRegWrite:  26,  // paper: 25.6
		PermRegRead:   6,

		TLBHit:            1,
		PageWalk:          40,
		PTEWrite:          2,
		PMDWrite:          105,
		TLBFlushLocalPage: 120,
		TLBFlushLocalASID: 170,
		TLBFlushLocalAll:  220,
		IPI:               550,
		IPIReceive:        750,

		FaultEntry:        230,
		FaultExit:         120,
		PgdSwitch:         130,
		ContextSwitchBase: 426, // +6% under VDom = 451.9 (paper §7.5)
		VDSMetadataSwitch: 320, // 451.9 + 320 ≈ 771.7 (paper §7.5)
		SchedulerPick:     90,

		VMFUNC:         169, // paper Table 3 (from [46])
		VMFUNCLargeEPT: 830, // paper §7.4 / Table 4

		GateEntry:        18, // rdpkru+and+wrpkru+lsl+stack switch
		GateExit:         17, // merged wrpkru + legality check
		VDRUpdate:        36, // 7 (call) + 26 (wrpkru) + 36 ≈ 69 fast wrvdr
		VDTWalkPerArea:   60,
		DomainMapUpdate:  14,
		MigrationPerVdom: 90,
		VDSAllocate:      900,
		EvictBase:        1100,
		SyncPerPage:      55,
		MprotectPerPage:  28,
	}
}

// ARMParams returns the calibrated cost table for the simulated Raspberry
// Pi 3 (Cortex-A53, ARMv7l mode) machine. DACR writes are privileged, so
// every wrvdr pays a kernel round trip.
func ARMParams() *Params {
	return &Params{
		Arch:                ARM,
		NumPdoms:            16,
		DomainGranularity:   2 << 20,
		UserWritablePermReg: false,

		CallReturn:    17,  // paper: 16.5
		SyscallReturn: 268, // paper: 268.3
		PermRegWrite:  18,  // paper: 18.1
		PermRegRead:   5,

		TLBHit:            1,
		PageWalk:          60,
		PTEWrite:          3,
		PMDWrite:          140,
		TLBFlushLocalPage: 45,
		TLBFlushLocalASID: 160,
		TLBFlushLocalAll:  280,
		IPI:               700,
		IPIReceive:        900,

		FaultEntry:        310,
		FaultExit:         160,
		PgdSwitch:         150,
		ContextSwitchBase: 1340, // +7.63% under VDom ≈ 1442.1 (paper §7.5)
		VDSMetadataSwitch: 103,  // 1442.1 + 103 ≈ 1545.1 (paper §7.5)
		SchedulerPick:     140,

		VMFUNC:         0, // undefined on ARM
		VMFUNCLargeEPT: 0,

		GateEntry:        0, // no user-space gate: DACR path is in-kernel
		GateExit:         0,
		VDRUpdate:        103, // 17 + 268 + 18 + 103 = 406 wrvdr (paper)
		VDTWalkPerArea:   85,
		DomainMapUpdate:  18,
		MigrationPerVdom: 120,
		VDSAllocate:      1400,
		EvictBase:        1600,
		SyncPerPage:      160,
		MprotectPerPage:  45,
	}
}

// PowerParams returns a plausible cost table for a simulated POWER9
// machine. The paper does not evaluate on Power (its prototype targets
// Intel and ARM); these constants are extrapolated from public POWER9
// latencies so the 32-domain configuration can be studied. Treat Power
// results as projections, not reproductions.
func PowerParams() *Params {
	return &Params{
		Arch:                Power,
		NumPdoms:            32,
		DomainGranularity:   4096,
		UserWritablePermReg: false, // AMR writes are kernel-mediated here

		CallReturn:    8,
		SyscallReturn: 180,
		PermRegWrite:  22, // mtspr AMR
		PermRegRead:   6,

		TLBHit:            1,
		PageWalk:          45,
		PTEWrite:          2,
		PMDWrite:          110,
		TLBFlushLocalPage: 90,
		TLBFlushLocalASID: 180,
		TLBFlushLocalAll:  260,
		IPI:               600,
		IPIReceive:        800,

		FaultEntry:        250,
		FaultExit:         130,
		PgdSwitch:         140,
		ContextSwitchBase: 520,
		VDSMetadataSwitch: 330,
		SchedulerPick:     95,

		VMFUNC:         0, // no VMFUNC analogue
		VMFUNCLargeEPT: 0,

		GateEntry:        0, // kernel-mediated API: no user-space gate
		GateExit:         0,
		VDRUpdate:        60,
		VDTWalkPerArea:   65,
		DomainMapUpdate:  14,
		MigrationPerVdom: 95,
		VDSAllocate:      950,
		EvictBase:        1150,
		SyncPerPage:      60,
		MprotectPerPage:  30,
	}
}

// RISCVParams returns a plausible cost table for a simulated RISC-V core
// with sealable protection keys (SealPK). The paper does not evaluate on
// RISC-V; these constants are extrapolated from the SealPK design — a
// user-writable permission CSR like MPK's PKRU, 16 protection domains,
// SFENCE.VMA-based flushes, and the flat latencies of an in-order core —
// so the fourth ISA can be studied. Treat RISC-V results as projections,
// not reproductions.
func RISCVParams() *Params {
	return &Params{
		Arch:                RISCV,
		NumPdoms:            16,
		DomainGranularity:   4096,
		UserWritablePermReg: true, // SealPK's pkru-analog CSR is CSRRW-able

		CallReturn:    4,
		SyscallReturn: 140,
		PermRegWrite:  14, // CSRRW on an in-order pipeline
		PermRegRead:   4,

		TLBHit:            1,
		PageWalk:          40,
		PTEWrite:          2,
		PMDWrite:          90,
		TLBFlushLocalPage: 70, // sfence.vma vaddr,asid
		TLBFlushLocalASID: 150,
		TLBFlushLocalAll:  220,
		IPI:               500,
		IPIReceive:        650,

		FaultEntry:        180,
		FaultExit:         100,
		PgdSwitch:         95, // satp write + implicit fence
		ContextSwitchBase: 430,
		VDSMetadataSwitch: 260,
		SchedulerPick:     80,

		VMFUNC:         0, // no VMFUNC analogue
		VMFUNCLargeEPT: 0,

		GateEntry:        70, // user-space gate: seal check + CSR swap
		GateExit:         70,
		VDRUpdate:        45,
		VDTWalkPerArea:   55,
		DomainMapUpdate:  12,
		MigrationPerVdom: 85,
		VDSAllocate:      820,
		EvictBase:        1000,
		SyncPerPage:      55,
		MprotectPerPage:  26,
	}
}

// ParamsFor returns the calibrated cost table for arch.
func ParamsFor(arch Arch) *Params {
	switch arch {
	case X86:
		return X86Params()
	case ARM:
		return ARMParams()
	case Power:
		return PowerParams()
	case RISCV:
		return RISCVParams()
	default:
		panic(fmt.Sprintf("cycles: unknown architecture %d", int(arch)))
	}
}
