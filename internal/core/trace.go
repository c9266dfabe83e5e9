package core

import (
	"fmt"

	"vdom/internal/cycles"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
)

// EventKind classifies a domain-virtualization event.
type EventKind int

// The observable events of the §5.4 algorithm.
const (
	// EventMap: a vdom was bound to a pdom in a VDS (flowchart ❸, or
	// the remap half of an eviction).
	EventMap EventKind = iota
	// EventEvict: a vdom was evicted from a VDS (❺).
	EventEvict
	// EventSwitch: a thread switched residency to another VDS (❺).
	EventSwitch
	// EventMigrate: a thread migrated to accommodate a new vdom (❼/❽).
	EventMigrate
	// EventVDSAlloc: a new VDS was created (❽).
	EventVDSAlloc
	// EventFree: a vdom was freed (vdom_free).
	EventFree
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventMap:
		return "map"
	case EventEvict:
		return "evict"
	case EventSwitch:
		return "switch"
	case EventMigrate:
		return "migrate"
	case EventVDSAlloc:
		return "vds-alloc"
	case EventFree:
		return "free"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one traced occurrence.
type Event struct {
	Kind EventKind
	// TID is the acting thread (0 when not thread-initiated).
	TID int
	// Vdom is the virtual domain involved (0 for pure VDS events).
	Vdom VdomID
	// VDS is the id of the address space involved.
	VDS int
	// Pdom is the hardware domain involved, when meaningful.
	Pdom pagetable.Pdom
	// Cost is the cycles attributed to the event, when known at emit
	// time.
	Cost cycles.Cost
}

// String renders the event compactly, e.g. "evict vdom=7 vds=2 pdom=5".
func (e Event) String() string {
	return fmt.Sprintf("%s tid=%d vdom=%d vds=%d pdom=%d cost=%d",
		e.Kind, e.TID, e.Vdom, e.VDS, e.Pdom, e.Cost)
}

// Tracer receives domain-virtualization events. It must not call back into
// the Manager.
type Tracer func(Event)

// DecisionTracer returns a Tracer that records each event as a
// Chrome-trace decision span on tr, timestamped by clock (the caller's
// cycle clock when the event fires) and carrying its vdom, VDS and pdom.
func DecisionTracer(tr *metrics.Trace, clock func() uint64) Tracer {
	return func(e Event) {
		tr.Decision(e.Kind.String(), e.TID, clock(), uint64(e.Cost), map[string]uint64{
			"vdom": uint64(e.Vdom), "vds": uint64(e.VDS), "pdom": uint64(e.Pdom),
		})
	}
}

// SetTracer installs (or, with nil, removes) the event tracer. Tracing is
// free when disabled.
func (m *Manager) SetTracer(t Tracer) { m.tracer = t }

func (m *Manager) trace(e Event) {
	if m.metrics != nil {
		// Feed the domain-activation outcome histograms (§5.4 flowchart
		// ①–⑧): one observation per map/evict/switch/migrate decision.
		switch e.Kind {
		case EventMap, EventEvict, EventSwitch, EventMigrate:
			m.metrics.Observe("core/activation/"+e.Kind.String(), uint64(e.Cost))
		}
	}
	if m.tracer != nil {
		m.tracer(e)
	}
}
