// Package core implements VDom itself: per-process virtual domain metadata
// (VDM) with its hierarchical virtual domain table (VDT), per-address-space
// virtual domain spaces (VDS), per-thread virtual domain registers (VDR),
// and the domain virtualization algorithm of §5.4 with the TLB and page
// table optimizations of §5.5.
//
// It covers the paper's §5 (design) and is the "VDom core" row of the
// DESIGN.md §3 module map. When a metrics.Registry is attached (see
// SetMetrics), every public operation's cycle cost is attributed exactly
// across (layer, operation) accounts, and each map/evict/switch/migrate
// outcome feeds a cost histogram (OBSERVABILITY.md). AppendState and
// ReadState checkpoint the manager as the "core/manager" section of
// vdom-snap/v2, straight from and into the live structures (RECOVERY.md).
package core

import (
	"fmt"

	"vdom/internal/hw"
)

// VdomID is a virtual domain identifier. Vdom 0 is the default domain
// (unprotected memory); real vdoms start at 1 and are unlimited until the
// integer overflows, exactly as the paper promises.
type VdomID uint64

// VPerm is a thread's permission on a vdom as stored in its VDR. On top of
// MPK's full-access / write-disable / access-disable triple, VDom adds the
// pinned type: access-disabled but less likely to be evicted under HLRU
// (§5.2).
type VPerm uint8

const (
	// VPermNone denies all access.
	VPermNone VPerm = iota
	// VPermRead allows reads (write disable).
	VPermRead
	// VPermReadWrite allows full access.
	VPermReadWrite
	// VPermPinned denies access but resists eviction.
	VPermPinned
)

// String names the permission as the paper does.
func (p VPerm) String() string {
	switch p {
	case VPermNone:
		return "AD"
	case VPermRead:
		return "WD"
	case VPermReadWrite:
		return "FA"
	case VPermPinned:
		return "PIN"
	default:
		return fmt.Sprintf("VPerm(%d)", uint8(p))
	}
}

// Hardware translates the virtual permission to the hardware register
// value (pinned is access-disabled at the hardware level).
func (p VPerm) Hardware() hw.Perm {
	switch p {
	case VPermRead:
		return hw.PermRead
	case VPermReadWrite:
		return hw.PermReadWrite
	default:
		return hw.PermNone
	}
}

// Accessible reports whether the permission grants any access.
func (p VPerm) Accessible() bool { return p == VPermRead || p == VPermReadWrite }

// Allows reports whether the permission admits the access.
func (p VPerm) Allows(write bool) bool { return p.Hardware().Allows(write) }
