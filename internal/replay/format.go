// Package replay implements the vdom-trace/v1 domain-op trace format: a
// versioned record of every protection event a workload issues at the
// syscall boundary of one of the registered kernels (VDom core, libmpk,
// EPK, DPTI), with thread ids, logical cycle timestamps, and per-event
// outcomes.
//
// Events carry tap.Op and tap.Code, the simulator's one op vocabulary and
// outcome taxonomy, as is: a number is its wire encoding, a name the JSONL
// one. A Recorder taps the instrumented layers through the unified tap.Tap
// hook and appends one Event per observed operation; Run re-executes a
// Trace against a freshly booted system of the same configuration — the
// substrate ops itself, every domain op through the system's
// backend.Backend.Replay — and reports the first Divergence (mismatching
// cost, error, or returned id) plus an end-state diff. Traces encode to a
// compact uvarint binary (Encode/Decode); WriteJSONL renders a write-only
// JSONL view for line-oriented diffing, pinned byte for byte by the golden
// corpus. See REPLAY.md for the format specification and the
// record/replay how-to.
package replay

import (
	"errors"
	"hash/fnv"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/tap"
)

// FormatVersion is the trace format version this package reads and writes.
const FormatVersion = 1

// FormatName is the format identifier carried by the JSONL header line.
const FormatName = "vdom-trace/v1"

// Kernel kinds a trace can target.
const (
	// KernelVDom replays against the VDom core on the VDom-patched kernel.
	KernelVDom = "vdom"
	// KernelLibmpk replays against the libmpk baseline on a vanilla kernel.
	KernelLibmpk = "libmpk"
	// KernelEPK replays against the EPK cycle model (no machine).
	KernelEPK = "epk"
	// KernelDPTI replays against the per-domain-page-table baseline.
	KernelDPTI = "dpti"
)

// Typed decode errors. The decoder never panics on malformed input; it
// returns one of these (possibly wrapped with positional context).
var (
	// ErrBadMagic reports input that does not start with the VDTR magic.
	ErrBadMagic = errors.New("replay: bad trace magic")
	// ErrBadVersion reports a trace written by an unknown format version.
	ErrBadVersion = errors.New("replay: unsupported trace version")
	// ErrTruncated reports input that ends inside a header, event, or
	// end-state record.
	ErrTruncated = errors.New("replay: truncated trace")
	// ErrBadRecord reports a structurally invalid record (unknown op or
	// error code, field out of range, malformed varint).
	ErrBadRecord = errors.New("replay: malformed trace record")
)

// Event flag bits.
const (
	// FlagWrite marks a write access / writable mapping.
	FlagWrite uint8 = 1 << 0
	// FlagVDSTable marks a populate into the thread's current VDS table.
	FlagVDSTable uint8 = 1 << 1
	// FlagFreq marks a frequently-accessed vdom allocation.
	FlagFreq uint8 = 1 << 2
)

// Event is one recorded domain operation.
type Event struct {
	// Time is the trace's logical cycle clock when the op started: the
	// sum of the Cost of every earlier event. The binary encoding stores
	// deltas, so the clock must be non-decreasing (it is, by
	// construction).
	Time uint64
	// TID is the acting thread id: the TID of a task a spawn event
	// created, or 0 for process-level ops and for the standalone EPK
	// cost model, which has no tasks.
	TID uint64
	// Op is the operation.
	Op tap.Op
	// Addr and Len are the affected virtual range, when meaningful.
	Addr uint64
	Len  uint64
	// Dom is the vdom / vkey / EPK domain involved — the returned id for
	// the alloc ops, the argument otherwise.
	Dom uint64
	// Perm is the permission argument (core.VPerm or hw.Perm numeric
	// value), or RdVdr's returned permission.
	Perm uint8
	// Flags carries the Flag* bits.
	Flags uint8
	// Cost is the cycle cost the operation returned.
	Cost uint64
	// Err is the operation's outcome (tap.CodeOK on success).
	Err tap.Code
}

// Header flag bits (Header.Flags) — the configuration knobs a replayed
// system must reproduce.
const (
	// HdrSecureGate: core.Policy.SecureGate.
	HdrSecureGate uint32 = 1 << 0
	// HdrNoPMDOpt: core.Policy.NoPMDOpt.
	HdrNoPMDOpt uint32 = 1 << 1
	// HdrStrictLRU: core.Policy.StrictLRU.
	HdrStrictLRU uint32 = 1 << 2
	// HdrNoASID: hw.Config.NoASID.
	HdrNoASID uint32 = 1 << 3
	// HdrVDomKernel: kernel.Config.VDomEnabled.
	HdrVDomKernel uint32 = 1 << 4
	// HdrHugePages: libmpk.Huge2M page mode.
	HdrHugePages uint32 = 1 << 5
)

// Header describes the system a trace was recorded on; the Replayer boots
// an identical one from it.
type Header struct {
	// Version is the format version (FormatVersion).
	Version int
	// Kernel is the kernel kind (KernelVDom, KernelLibmpk, KernelEPK,
	// KernelDPTI).
	Kernel string
	// Arch names the cost table (see ArchName).
	Arch string
	// Cores is the machine size (ignored for EPK).
	Cores int
	// TLBCap is hw.Config.TLBCapacity (0 = unlimited).
	TLBCap int
	// Seed is the workload's PRNG seed, for provenance.
	Seed uint64
	// Workload names the recorded workload.
	Workload string
	// ConfigDigest fingerprints the full workload configuration
	// (DigestString), so replays against a differently parameterized
	// recording are detectable.
	ConfigDigest uint64
	// Flags carries the Hdr* configuration bits.
	Flags uint32
	// FlushThreshold and Nas carry core.Policy's
	// RangeFlushThresholdPages and DefaultNas (see SetPolicy).
	FlushThreshold uint64
	Nas            int
	// Domains is the EPK domain capacity (epk.New's numDomains).
	Domains int
	// Extra carries layer-specific configuration a wrapper needs to
	// rebuild the recorded environment (the chaos layer stores its fault
	// mix here). Encoded sorted by key.
	Extra map[string]uint64
}

// hdrPolicy is the set of Flags bits SetPolicy owns.
const hdrPolicy = HdrSecureGate | HdrNoPMDOpt | HdrStrictLRU

// SetPolicy writes a VDom policy into the header: the HdrSecureGate,
// HdrNoPMDOpt and HdrStrictLRU bits, FlushThreshold and Nas. It and
// Policy are the only translation between core.Policy and the trace
// header; other Flags bits are left as they are.
func (h *Header) SetPolicy(p core.Policy) {
	h.Flags &^= hdrPolicy
	if p.SecureGate {
		h.Flags |= HdrSecureGate
	}
	if p.NoPMDOpt {
		h.Flags |= HdrNoPMDOpt
	}
	if p.StrictLRU {
		h.Flags |= HdrStrictLRU
	}
	h.FlushThreshold = p.RangeFlushThresholdPages
	h.Nas = p.DefaultNas
}

// Policy returns the VDom policy SetPolicy wrote into the header.
func (h Header) Policy() core.Policy {
	return core.Policy{
		SecureGate:               h.Flags&HdrSecureGate != 0,
		NoPMDOpt:                 h.Flags&HdrNoPMDOpt != 0,
		StrictLRU:                h.Flags&HdrStrictLRU != 0,
		RangeFlushThresholdPages: h.FlushThreshold,
		DefaultNas:               h.Nas,
	}
}

// Trace is one recorded run: header, event stream, and the end-state
// summary used for final-state verification. A truncated failure dump has
// End == nil, which skips the end-state check on replay.
type Trace struct {
	Header Header
	Events []Event
	// End maps end-state keys (layer counters, the final clock, the
	// domain-map digest) to values; see EndState in replay.go.
	End map[string]uint64
}

// ArchName returns the header encoding of an architecture.
func ArchName(a cycles.Arch) string {
	switch a {
	case cycles.ARM:
		return "arm"
	case cycles.Power:
		return "power"
	case cycles.RISCV:
		return "riscv"
	default:
		return "x86"
	}
}

// ArchFromName inverts ArchName.
func ArchFromName(s string) (cycles.Arch, error) {
	switch s {
	case "x86":
		return cycles.X86, nil
	case "arm":
		return cycles.ARM, nil
	case "power":
		return cycles.Power, nil
	case "riscv":
		return cycles.RISCV, nil
	default:
		return 0, errors.New("replay: unknown arch " + s)
	}
}

// DigestString returns the FNV-1a fingerprint used for
// Header.ConfigDigest.
func DigestString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
