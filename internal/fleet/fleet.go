// Package fleet is the multi-process experiment fleet: a
// coordinator/worker protocol that shards deterministic grid cells
// (experiment table cells, chaos-soak shards) across N worker
// subprocesses over stdin/stdout pipes, and merges their results in
// cell order so every output — rendered tables, metrics snapshots,
// trace bytes — is byte-identical to the in-process pool at any fleet
// width.
//
// The wire format is vdom-fleet/v1: length-prefixed, magic-tagged,
// uvarint-encoded frames (see frame.go and FLEET.md for the spec). The
// coordinator is the robustness headline: a worker that dies mid-cell
// (kill -9, panic, wedge past the per-cell heartbeat timeout) has its
// in-flight cell reassigned to a surviving worker on a deterministic,
// jitter-free exponential backoff schedule with bounded retries; cells
// that fail repeatedly are quarantined and reported in the
// machine-readable fleet report rather than wedging the run. When no
// worker can be spawned at all, the fleet degrades gracefully to the
// in-process pool (internal/par). A seeded transport-fault injector
// (fault.go, modeled on chaos.Pressure) corrupts, truncates,
// duplicates, and delays frames to harden the codec and the recovery
// ladder; the codec answers every malformed input with a typed sentinel,
// never a panic.
//
// The package is deliberately ignorant of what a cell computes: cells
// are opaque (Grid, Index) pairs executed by an Exec callback, so the
// bench layer owns the cell catalog and fleet owns only scheduling,
// transport, and fault tolerance — the orbstack-style control-plane /
// work-plane split ROADMAP item 4 calls for.
package fleet

import (
	"fmt"
	"hash/fnv"

	"vdom/internal/par"
)

// Spec flag bits: the run-wide options a worker must mirror to compute
// a cell bit-identically to the coordinator's in-process pool.
const (
	// FlagQuick selects reduced iteration counts (bench -quick).
	FlagQuick uint32 = 1 << iota
	// FlagMetrics enables the cell's private metrics registry; the
	// result frame then carries its snapshot JSON.
	FlagMetrics
	// FlagTrace enables the cell's private Chrome-trace sink; the result
	// frame then carries its trace JSON.
	FlagTrace
	// FlagRecord enables replayable trace recording inside soak cells
	// (bench -trace-dump).
	FlagRecord
)

// CellSpec identifies one distributable grid cell: which grid, which
// index within it, and the run-wide options the cell's computation
// depends on. Everything a worker needs to reproduce the coordinator's
// in-process execution bit-for-bit travels here — nothing is ambient.
type CellSpec struct {
	// Grid names the cell's grid in the executor's catalog, optionally
	// carrying grid parameters after a colon (e.g. "fig5:X86:65536").
	Grid string
	// Index is the cell's position in the grid; results merge in Index
	// order.
	Index int
	// Seed is the base PRNG seed for seeded grids (chaos soaks).
	Seed uint64
	// Kernel and Arch narrow kernel-parameterized grids; empty means the
	// grid's default.
	Kernel string
	Arch   string
	// Flags carries the run-wide option bits (Flag*).
	Flags uint32
	// Spec is an opaque extension slot (e.g. a scenario spec path);
	// empty today.
	Spec string
}

// Quick reports the FlagQuick bit.
func (s CellSpec) Quick() bool { return s.Flags&FlagQuick != 0 }

// Metrics reports the FlagMetrics bit.
func (s CellSpec) Metrics() bool { return s.Flags&FlagMetrics != 0 }

// Trace reports the FlagTrace bit.
func (s CellSpec) Trace() bool { return s.Flags&FlagTrace != 0 }

// Record reports the FlagRecord bit.
func (s CellSpec) Record() bool { return s.Flags&FlagRecord != 0 }

// CellResult is one computed cell as it travels back to the
// coordinator: the rendered output, the cell's total simulated cycles,
// its observability state as JSON, and an optional grid-specific
// payload (the chaos grids ship their soak outcome and encoded fail
// trace here). Err non-empty means the cell failed in the worker; the
// coordinator retries it like a transport loss.
type CellResult struct {
	// Text is the cell's rendered output.
	Text string
	// Total is the cell's independently measured total simulated cycles
	// (the "bench/total-cycles" contribution).
	Total uint64
	// Metrics is the cell's metrics registry snapshot as JSON (nil when
	// metrics are off).
	Metrics []byte
	// Trace is the cell's Chrome-trace JSON (nil when tracing is off).
	Trace []byte
	// Aux is an opaque grid-specific payload.
	Aux []byte
	// Err is the cell's failure, rendered; empty for a healthy cell.
	Err string
}

// Exec computes one assigned cell. The bench layer implements it over
// its grid catalog; workers run it for assignments, and the coordinator
// runs it directly in degraded (no-subprocess) mode and for quarantined
// cells' best-effort local fill.
type Exec func(spec CellSpec) (CellResult, error)

// digest is the result integrity check carried in every result frame:
// FNV-1a over the cell id and every content field, so a transport fault
// that corrupts a payload byte — yet leaves the frame structurally
// decodable — is still caught and answered with a retry instead of a
// silently wrong merge.
func (r CellResult) digest(id uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(id)
	put(uint64(len(r.Text)))
	h.Write([]byte(r.Text))
	put(r.Total)
	put(uint64(len(r.Metrics)))
	h.Write(r.Metrics)
	put(uint64(len(r.Trace)))
	h.Write(r.Trace)
	put(uint64(len(r.Aux)))
	h.Write(r.Aux)
	put(uint64(len(r.Err)))
	h.Write([]byte(r.Err))
	return h.Sum64()
}

// runGuarded executes one cell with panic isolation: a panicking cell
// becomes a failed CellResult (attributed via par.JobPanic when the
// panic escaped a nested fan-out) instead of a dead worker, so the
// coordinator sees a typed failure and the process lives to take the
// next assignment.
func runGuarded(exec Exec, spec CellSpec) (res CellResult) {
	defer func() {
		if r := recover(); r != nil {
			if v, job := par.Cause(r); job >= 0 {
				res = CellResult{Err: fmt.Sprintf("cell %s[%d]: panic in job %d: %v", spec.Grid, spec.Index, job, v)}
				return
			}
			res = CellResult{Err: fmt.Sprintf("cell %s[%d]: panic: %v", spec.Grid, spec.Index, r)}
		}
	}()
	r, err := exec(spec)
	if err != nil {
		return CellResult{Err: err.Error()}
	}
	return r
}
