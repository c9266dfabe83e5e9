package replay

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
)

// Options configures a replay run.
type Options struct {
	// Metrics, when non-nil, receives the replayed run's full
	// per-(layer, op) cycle attribution, exactly as a live run would.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives Chrome-trace decision spans for the
	// domain-virtualization events of the replayed run.
	Trace *metrics.Trace
	// Setup, when non-nil, runs after the system is booted and before
	// the first event replays. Wrappers use it to attach extra layers
	// the recording had (the chaos package reattaches its injector
	// here).
	Setup func(*System)
}

// System is the freshly booted platform a trace replays against: the
// backend registry's Instance (machine/kernel/process substrate plus the
// kernel kind's domain layer). Fields not used by the trace's kernel
// kind are nil.
type System = backend.Instance

// Divergence describes the first point where a replay stopped matching
// its recording.
type Divergence struct {
	// Index is the position of the mismatching event, or -1 when every
	// event matched but the end state differed.
	Index int
	// Want is the recorded event, Got the replayed one (zero when Index
	// is -1).
	Want, Got Event
	// CycleDelta is the replayed clock minus the recorded clock at the
	// divergence point.
	CycleDelta int64
	// EndDiff lists end-state keys whose values differ, as
	// "key: recorded=X replayed=Y" lines.
	EndDiff []string
}

// String renders the divergence for humans.
func (d *Divergence) String() string {
	if d == nil {
		return "no divergence"
	}
	if d.Index < 0 {
		return fmt.Sprintf("end-state divergence (%d keys): %s",
			len(d.EndDiff), strings.Join(d.EndDiff, "; "))
	}
	return fmt.Sprintf("event %d diverged (cycle delta %+d): recorded {op %s tid %d addr %#x len %d dom %d perm %d flags %#x cost %d err %s} replayed {op %s tid %d addr %#x len %d dom %d perm %d flags %#x cost %d err %s}",
		d.Index, d.CycleDelta,
		d.Want.Op, d.Want.TID, d.Want.Addr, d.Want.Len, d.Want.Dom, d.Want.Perm, d.Want.Flags, d.Want.Cost, d.Want.Err,
		d.Got.Op, d.Got.TID, d.Got.Addr, d.Got.Len, d.Got.Dom, d.Got.Perm, d.Got.Flags, d.Got.Cost, d.Got.Err)
}

// Result is the outcome of one replay.
type Result struct {
	// Header echoes the trace header.
	Header Header
	// Events is the number of events re-executed (the full trace when
	// there was no event divergence).
	Events int
	// Cycles is the replayed run's final cycle clock.
	Cycles uint64
	// End is the replayed system's end state.
	End map[string]uint64
	// Divergence is nil when the replay matched the recording
	// bit-identically.
	Divergence *Divergence
}

// Run boots a system from the trace header, re-executes every event
// against it, and verifies costs, returned ids, permissions, and error
// outcomes event-by-event, then the end state. A structural problem (a
// corrupt trace driving an op at a layer the header's kernel kind does
// not have, or an unknown thread id) returns an error; a well-formed
// trace that behaves differently returns a Result with a Divergence.
func Run(t *Trace, opt Options) (*Result, error) {
	sys, err := Boot(t.Header)
	if err != nil {
		return nil, err
	}
	return replayFrom(t, sys, map[uint64]*kernel.Task{}, 0, 0, opt)
}

// RunTail re-executes t.Events[from:] against an already-running system
// whose clock reads startClock — the tail-recovery path of the crash
// subsystem: after a checkpoint restore, the events recorded since the
// checkpoint are replayed to bring the system back to the crash point.
// tasks maps trace thread ids to the system's live tasks (as returned by
// the snapshot restore). Verification is identical to Run: every tail
// event's cost, ids, and error outcome must match the recording, and the
// trace's end state (when present) must match after the last event.
func RunTail(t *Trace, sys *System, tasks map[uint64]*kernel.Task, startClock uint64, from int, opt Options) (*Result, error) {
	if from < 0 || from > len(t.Events) {
		return nil, fmt.Errorf("%w: tail start %d out of range [0, %d]", ErrBadRecord, from, len(t.Events))
	}
	return replayFrom(t, sys, tasks, startClock, from, opt)
}

// replayFrom is the shared engine of Run and RunTail.
func replayFrom(t *Trace, sys *System, tasks map[uint64]*kernel.Task, startClock uint64, from int, opt Options) (*Result, error) {
	if opt.Setup != nil {
		opt.Setup(sys)
	}
	clock := startClock
	b := backend.Of(sys)
	if sys.Kernel != nil {
		sys.Kernel.SetMetrics(opt.Metrics)
	}
	if b != nil {
		b.SetMetrics(sys, opt.Metrics)
	}
	if sys.Manager != nil && opt.Trace != nil {
		sys.Manager.SetTracer(core.DecisionTracer(opt.Trace, func() uint64 { return clock }))
	}

	res := &Result{Header: t.Header}
	r := &engine{sys: sys, b: b, tasks: tasks}
	for i := from; i < len(t.Events); i++ {
		want := t.Events[i]
		got, err := r.step(want)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d (%s): %v", ErrBadRecord, i, want.Op, err)
		}
		got.Time = clock
		clock += got.Cost
		res.Events++
		if got != want {
			res.Cycles = clock
			res.End = EndState(clock, sys)
			res.Divergence = &Divergence{
				Index: i, Want: want, Got: got,
				CycleDelta: int64(got.Time+got.Cost) - int64(want.Time+want.Cost),
			}
			return res, nil
		}
	}

	res.Cycles = clock
	res.End = EndState(clock, sys)
	if t.End != nil {
		if diff := diffEnd(t.End, res.End); len(diff) > 0 {
			res.Divergence = &Divergence{Index: -1, EndDiff: diff}
		}
	}
	return res, nil
}

// engine re-executes recorded events against one system.
type engine struct {
	sys *System
	// b is the system's domain layer (nil on a bare substrate).
	b     backend.Backend
	tasks map[uint64]*kernel.Task
	// ev is the event handed to b.Replay, kept here so a run allocates it
	// once rather than once per event.
	ev tap.Event
}

// step re-executes one recorded event and returns it as replayed: the
// recorded arguments with the replayed cost, returned id or permission,
// and outcome code (Time is left for the caller). The substrate's ops run
// here; every other op goes to the backend, which executes the ops of its
// own layer. An error means the record cannot run on this system at all.
func (r *engine) step(want Event) (Event, error) {
	sys, tasks := r.sys, r.tasks
	got := Event{TID: want.TID, Op: want.Op, Addr: want.Addr, Len: want.Len, Dom: want.Dom, Perm: want.Perm, Flags: want.Flags}
	var (
		cost cycles.Cost
		err  error
	)
	tk := tasks[want.TID]
	switch want.Op {
	case tap.OpSpawn:
		if sys.Proc == nil {
			return got, errNoSubstrate
		}
		if n := sys.Machine.NumCores(); want.Len >= uint64(n) {
			return got, fmt.Errorf("core %d out of range [0, %d)", want.Len, n)
		}
		tk = sys.Proc.NewTask(int(want.Len))
		tasks[uint64(tk.TID())] = tk
		got.TID = uint64(tk.TID())
	case tap.OpReclaim:
		if sys.Proc == nil {
			return got, errNoSubstrate
		}
		var n int
		n, cost = sys.Proc.ReclaimFrames(int(want.Addr), int(want.Len))
		got.Dom = uint64(n)
	case tap.OpMmap, tap.OpMunmap, tap.OpMprotect, tap.OpAccess, tap.OpDispatch, tap.OpPopulate:
		switch {
		case sys.Proc == nil:
			return got, errNoSubstrate
		case tk == nil && want.TID != 0:
			return got, fmt.Errorf("unknown tid %d", want.TID)
		case tk == nil:
			return got, fmt.Errorf("%s needs a thread", want.Op)
		}
		addr, write := pagetable.VAddr(want.Addr), want.Flags&FlagWrite != 0
		switch want.Op {
		case tap.OpMmap:
			cost, err = tk.Mmap(addr, want.Len, write)
		case tap.OpMunmap:
			cost, err = tk.Munmap(addr, want.Len)
		case tap.OpMprotect:
			cost, err = tk.Mprotect(addr, want.Len, write)
		case tap.OpAccess:
			cost, err = tk.Access(addr, write)
		case tap.OpDispatch:
			cost = sys.Kernel.TakePendingInterrupts(tk.CoreID())
			cost += sys.Kernel.Dispatch(tk)
		case tap.OpPopulate:
			table := sys.Proc.AS().Shadow()
			if want.Flags&FlagVDSTable != 0 {
				var vdr *core.VDR
				if sys.Manager != nil {
					vdr = sys.Manager.VDROf(tk)
				}
				if vdr == nil {
					return got, fmt.Errorf("populate into the VDS table of thread %d, which has no VDR", want.TID)
				}
				table = vdr.Current().Table()
			}
			_, err = sys.Proc.AS().Populate(table, addr, want.Len)
		}
	default:
		if r.b == nil {
			return got, errNoDomainLayer
		}
		e := &r.ev
		*e = tap.Event{
			Op: want.Op, TID: int(want.TID), Addr: pagetable.VAddr(want.Addr), Len: want.Len,
			Dom: want.Dom, Perm: want.Perm, Write: want.Flags&FlagWrite != 0, Freq: want.Flags&FlagFreq != 0,
		}
		ok, berr := r.b.Replay(sys, e, tk)
		switch {
		case berr != nil:
			return got, berr
		case !ok:
			return got, fmt.Errorf("not an op of kernel kind %q", r.b.Name())
		}
		got.Dom, got.Perm, cost, err = e.Dom, e.Perm, e.Cost, e.Err
	}
	got.Cost = uint64(cost)
	got.Err = tap.CodeOf(err)
	return got, nil
}

// Structural errors of replayEvent; Run wraps both in ErrBadRecord.
var (
	// errNoSubstrate rejects a kernel-level op on a system without a
	// machine (EPK's standalone cost model).
	errNoSubstrate = errors.New("the trace's system has no kernel substrate")
	// errNoDomainLayer rejects a domain op on a bare substrate.
	errNoDomainLayer = errors.New("the trace's system has no domain layer")
)

// Boot builds the platform a header describes through the backend
// registry (backend.Boot): machine, kernel, process, and the kernel
// kind's domain layer, unwired (no metrics, taps, or chaos attached).
// Run uses it internally; the snapshot subsystem uses it to rebuild a
// System skeleton before loading checkpointed state into each layer,
// and the workloads boot every recorded run from its header with it.
// The architecture is parsed only when a machine is built, so
// standalone cost-model traces (EPK with Cores <= 0) stay arch-agnostic.
func Boot(h Header) (*System, error) {
	spec := SpecFromHeader(h)
	if h.Cores > 0 {
		arch, err := ArchFromName(h.Arch)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		spec.Arch = arch
	}
	sys, err := backend.Boot(h.Kernel, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return sys, nil
}

// SpecFromHeader converts a trace header to the backend boot spec. The
// architecture is left zero — Boot parses it only when a machine is
// actually built.
func SpecFromHeader(h Header) backend.Spec {
	return backend.Spec{
		Cores:      h.Cores,
		TLBCap:     h.TLBCap,
		NoASID:     h.Flags&HdrNoASID != 0,
		VDomKernel: h.Flags&HdrVDomKernel != 0,
		Policy:     h.Policy(),
		Domains:    h.Domains,
		Huge2M:     h.Flags&HdrHugePages != 0,
	}
}

// EndState snapshots the final observable state of a system's attached
// layers: the cycle clock, the kernel's counters, and — through each
// registered backend's EmitEnd hook — the present domain layer's
// counters and digests. Nil layers contribute nothing, so recordings and
// replays of the same kernel kind produce comparable maps.
func EndState(clock uint64, sys *System) map[string]uint64 {
	end := map[string]uint64{"clock": clock}
	emit := func(name string, v uint64) { end[name] = v }
	if sys.Kernel != nil {
		sys.Kernel.EmitMetrics(emit)
	}
	if b := backend.Of(sys); b != nil {
		b.EmitEnd(sys, emit)
	}
	return end
}

// diffEnd lists keys whose values differ between the recorded and
// replayed end states, in sorted key order.
func diffEnd(want, got map[string]uint64) []string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	var out []string
	for _, k := range sortedU64Keys(want) {
		keys[k] = false
		if got[k] != want[k] {
			out = append(out, fmt.Sprintf("%s: recorded=%d replayed=%d", k, want[k], got[k]))
		}
	}
	extra := make([]string, 0)
	for k, pending := range keys {
		if pending {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		out = append(out, fmt.Sprintf("%s: recorded=%d replayed=%d", k, want[k], got[k]))
	}
	return out
}
