package replay

import (
	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
)

// Recorder captures a domain-op trace by tapping the instrumented
// layers. Every layer — the kernel's syscall boundary and every
// registered backend's domain API — feeds the single unified TapEvent
// sink; attach whichever layers the workload uses (AttachSystem wires a
// whole booted Instance in one call), then drive the workload and call
// Finish.
//
// The simulation is cooperatively scheduled — exactly one simulated
// process runs at a time — so taps fire strictly sequentially and the
// Recorder needs no locking.
type Recorder struct {
	hdr    Header
	events []Event
	clock  uint64

	// sys accumulates the attached layers so Finish can compute the end
	// state; it is not necessarily a fully booted system.
	sys System
}

// NewRecorder starts a recording described by hdr (Version is forced to
// FormatVersion).
func NewRecorder(hdr Header) *Recorder {
	hdr.Version = FormatVersion
	// Recordings that attach taps at all tend to collect thousands of
	// events; seeding the buffer skips the first several growth copies.
	return &Recorder{hdr: hdr, events: make([]Event, 0, 1024)}
}

// Len returns the number of events recorded so far.
func (r *Recorder) Len() int { return len(r.events) }

// Clock returns the recording's logical cycle clock: the summed cost of
// every recorded event.
func (r *Recorder) Clock() uint64 { return r.clock }

// add appends one event stamped at the current clock, then advances the
// clock by its cost.
func (r *Recorder) add(e Event) {
	e.Time = r.clock
	r.clock += e.Cost
	r.events = append(r.events, e)
}

// TapEvent is the Recorder's unified tap sink (a tap.Tap): it converts
// one completed operation into its trace event. Zero-cost dispatches are
// skipped — a dispatch costs zero exactly when the task was already
// current with no pending interrupts, i.e. when it mutated nothing.
func (r *Recorder) TapEvent(e tap.Event) {
	if e.Op == tap.OpDispatch && e.Cost == 0 {
		return
	}
	op, ok := opOfTap[e.Op]
	if !ok {
		return
	}
	ev := Event{
		Op:   op,
		TID:  uint64(e.TID),
		Addr: uint64(e.Addr),
		Len:  e.Len,
		Dom:  e.Dom,
		Perm: e.Perm,
		Cost: uint64(e.Cost),
		Err:  CodeOf(e.Err),
	}
	if e.Write {
		ev.Flags |= FlagWrite
	}
	if e.Freq {
		ev.Flags |= FlagFreq
	}
	r.add(ev)
}

// opOfTap maps unified tap ops to their trace encoding.
var opOfTap = map[tap.Op]Op{
	tap.OpMmap:         OpMmap,
	tap.OpMunmap:       OpMunmap,
	tap.OpMprotect:     OpMprotect,
	tap.OpAccess:       OpAccess,
	tap.OpDispatch:     OpDispatch,
	tap.OpVdomAlloc:    OpVdomAlloc,
	tap.OpVdomFree:     OpVdomFree,
	tap.OpVdomMprotect: OpVdomMprotect,
	tap.OpVdrAlloc:     OpVdrAlloc,
	tap.OpVdrFree:      OpVdrFree,
	tap.OpVdrRead:      OpVdrRead,
	tap.OpVdrWrite:     OpVdrWrite,
	tap.OpNewVDS:       OpNewVDS,
	tap.OpPkeyAlloc:    OpPkeyAlloc,
	tap.OpPkeyFree:     OpPkeyFree,
	tap.OpPkeyMprotect: OpPkeyMprotect,
	tap.OpPkeySet:      OpPkeySet,
	tap.OpEpkSwitch:    OpEpkSwitch,
	tap.OpDptiAlloc:    OpDptiAlloc,
	tap.OpDptiFree:     OpDptiFree,
	tap.OpDptiProtect:  OpDptiProtect,
	tap.OpDptiEnter:    OpDptiEnter,
	tap.OpDptiExit:     OpDptiExit,
}

// AttachSystem taps every layer a booted instance carries: the kernel's
// syscall boundary plus the present backend's domain API.
func (r *Recorder) AttachSystem(sys *System) {
	if sys.Kernel != nil {
		r.AttachKernel(sys.Kernel)
	}
	for _, b := range backend.All() {
		if b.Present(sys) {
			b.AttachTap(sys, r.TapEvent)
		}
	}
	r.sys.Manager = sys.Manager
	r.sys.Libmpk = sys.Libmpk
	r.sys.EPK = sys.EPK
	r.sys.DPTI = sys.DPTI
}

// AttachKernel taps the kernel's syscall boundary (mmap/munmap/mprotect,
// accesses, scheduler dispatch).
func (r *Recorder) AttachKernel(k *kernel.Kernel) {
	r.sys.Kernel = k
	k.SetTap(r.TapEvent)
}

// AttachManager taps the VDom core's public API.
func (r *Recorder) AttachManager(m *core.Manager) {
	r.sys.Manager = m
	m.SetTap(r.TapEvent)
}

// AttachLibmpk taps the libmpk baseline's public API.
func (r *Recorder) AttachLibmpk(m *libmpk.Manager) {
	r.sys.Libmpk = m
	m.SetTap(r.TapEvent)
}

// AttachEPK taps the EPK system's domain switches.
func (r *Recorder) AttachEPK(s *epk.System) {
	r.sys.EPK = s
	s.SetTap(r.TapEvent)
}

// Spawn records a task creation. Workloads call it right after NewTask;
// replay re-creates the task and asserts the kernel hands out the same
// tid.
func (r *Recorder) Spawn(t *kernel.Task) {
	r.add(Event{Op: OpSpawn, TID: uint64(t.TID()), Len: uint64(t.CoreID())})
}

// Populate records a demand-paging pre-fault of [addr, addr+length) —
// cost-free address-space setup that replay must repeat to reproduce
// later fault behaviour. vdsTable selects the thread's current VDS table
// over the process shadow table.
func (r *Recorder) Populate(t *kernel.Task, addr pagetable.VAddr, length uint64, vdsTable bool) {
	e := Event{Op: OpPopulate, TID: uint64(t.TID()), Addr: uint64(addr), Len: length}
	if vdsTable {
		e.Flags |= FlagVDSTable
	}
	r.add(e)
}

// Reclaim records a kswapd frame-reclaim call: initiator core, requested
// maximum, frames actually reclaimed, and the charged cycles.
func (r *Recorder) Reclaim(initiatorCore, max, got int, cost cycles.Cost) {
	r.add(Event{Op: OpReclaim, Addr: uint64(initiatorCore), Len: uint64(max), Dom: uint64(got), Cost: uint64(cost)})
}

// Reap records a VDS garbage-collection pass and how many VDSes it freed.
func (r *Recorder) Reap(n int) {
	r.add(Event{Op: OpReap, Dom: uint64(n)})
}

// Finish detaches nothing (taps stay live) but seals the trace: it
// snapshots the end state of every attached layer and returns the
// completed Trace.
func (r *Recorder) Finish() *Trace {
	return &Trace{
		Header: r.hdr,
		Events: r.events,
		End:    EndState(r.clock, &r.sys),
	}
}

// Partial returns the trace recorded so far truncated to the first n
// events, with no end-state section (replay of a partial trace skips the
// end-state check). The chaos layer uses it to dump the minimal prefix
// that reproduces a soak failure.
func (r *Recorder) Partial(n int) *Trace {
	if n < 0 || n > len(r.events) {
		n = len(r.events)
	}
	return &Trace{Header: r.hdr, Events: r.events[:n:n]}
}
