// Package tap defines the simulator's one op vocabulary, its one outcome
// taxonomy, and the one observation interface every instrumented layer
// exports to the trace recorder. Op is the only op enum: every layer emits
// the same Event shape through the same function type, the trace format
// (internal/replay, vdom-trace/v1) writes an Op's number and name as they
// are, and each backend replays the ops of its own layer from an Event
// (backend.Backend.Replay); a new backend plugs into record/replay by
// adding its ops here and emitting Events. Code is the only outcome enum:
// every domain sentinel is a NewOutcome carrying its wire code, CodeOf
// finds it in any wrapped error, and callers decide tolerance by its class
// (denied, pushback, misuse) through ClassOf, not by lists of sentinels.
//
// The package is a leaf: it imports only the cycle and page-table value
// types, so every layer (the kernel included) can depend on it without
// import cycles; Events carry plain task ids, not *kernel.Task.
package tap

import (
	"vdom/internal/cycles"
	"vdom/internal/pagetable"
)

// Op identifies one operation of an instrumented layer. Its numeric value
// is the vdom-trace/v1 wire encoding and String its JSONL name; both are
// frozen — append new ops, never renumber.
type Op uint8

// The ops, grouped by the layer that executes them on replay. Field use
// per op is documented in REPLAY.md.
const (
	// OpInvalid is the zero Op; no layer emits it and no trace holds it.
	OpInvalid Op = iota

	// Substrate: the kernel syscall boundary, the scheduler, and the
	// recorder's own setup events (internal/kernel, internal/replay).

	// OpSpawn is a task creation (TID = new task id, Len = core id).
	OpSpawn
	OpMmap
	OpMunmap
	OpMprotect
	// OpAccess is one completed memory access, fault handling included.
	OpAccess
	// OpDispatch is a scheduler burst prologue (pending-interrupt drain
	// plus context switch) with its total cost.
	OpDispatch
	// OpPopulate is a demand-paging pre-fault of a range.
	OpPopulate
	// OpReclaim is a kswapd frame reclaim (Addr = initiator core, Len =
	// frames requested, Dom = frames reclaimed).
	OpReclaim

	// VDom core (internal/core).

	// OpReap is a VDS garbage-collection pass (Dom = VDSes reaped).
	OpReap
	OpVdomAlloc
	OpVdomFree
	OpVdomMprotect
	// OpVdrAlloc reuses Len for the requested nas count.
	OpVdrAlloc
	OpVdrFree
	OpVdrRead
	OpVdrWrite
	OpNewVDS

	// libmpk baseline (internal/libmpk).
	OpPkeyAlloc
	OpPkeyFree
	OpPkeyMprotect
	OpPkeySet

	// EPK baseline (internal/epk).
	OpEpkSwitch

	// DPTI baseline (internal/dpti).
	OpDptiAlloc
	OpDptiFree
	OpDptiProtect
	OpDptiEnter
	OpDptiExit

	numOps
)

// names are the ops' stable JSONL names.
var names = [numOps]string{
	OpSpawn:        "spawn",
	OpMmap:         "mmap",
	OpMunmap:       "munmap",
	OpMprotect:     "mprotect",
	OpAccess:       "access",
	OpDispatch:     "dispatch",
	OpPopulate:     "populate",
	OpReclaim:      "reclaim",
	OpReap:         "reap",
	OpVdomAlloc:    "vdom-alloc",
	OpVdomFree:     "vdom-free",
	OpVdomMprotect: "vdom-mprotect",
	OpVdrAlloc:     "vdr-alloc",
	OpVdrFree:      "vdr-free",
	OpVdrRead:      "rdvdr",
	OpVdrWrite:     "wrvdr",
	OpNewVDS:       "new-vds",
	OpPkeyAlloc:    "pkey-alloc",
	OpPkeyFree:     "pkey-free",
	OpPkeyMprotect: "pkey-mprotect",
	OpPkeySet:      "pkey-set",
	OpEpkSwitch:    "epk-switch",
	OpDptiAlloc:    "dpti-alloc",
	OpDptiFree:     "dpti-free",
	OpDptiProtect:  "dpti-protect",
	OpDptiEnter:    "dpti-enter",
	OpDptiExit:     "dpti-exit",
}

// Valid reports whether o is a defined op (not OpInvalid, not past the
// last one).
func (o Op) Valid() bool { return o > OpInvalid && o < numOps }

// String returns the op's JSONL name, or "invalid".
func (o Op) String() string {
	if o.Valid() {
		return names[o]
	}
	return "invalid"
}

// Event describes one completed operation of an instrumented layer. Only
// the fields meaningful for the Op are set; the rest stay zero.
type Event struct {
	// Op is the operation.
	Op Op
	// TID is the calling task id (0 for nil-task direct-mode calls and
	// task-less operations such as pkey_alloc).
	TID int
	// Addr and Len are the operation's address range. OpVdrAlloc reuses
	// Len for the requested nas count, mirroring the trace encoding.
	Addr pagetable.VAddr
	Len  uint64
	// Dom is the domain / vkey / EPK domain / DPTI domain involved.
	Dom uint64
	// Perm is the raw permission argument (core.VPerm or hw.Perm).
	Perm uint8
	// Write marks a write access or writable mapping.
	Write bool
	// Freq marks a frequently-accessed vdom allocation hint.
	Freq bool
	// Cost is the cycles the operation returned.
	Cost cycles.Cost
	// Err is the operation's error, nil on success.
	Err error
}

// Tap observes completed operations for trace recording; calls arrive in
// execution order. The simulation is cooperatively scheduled, so tap
// invocations are strictly sequential and implementations need no
// locking.
type Tap func(Event)
