// Package sim provides a deterministic discrete-event simulator with a
// virtual clock measured in CPU cycles.
//
// Workloads (httpd worker threads, MySQL connection handlers, PMO benchmark
// threads) run as simulated processes: goroutines that advance virtual time
// with Delay, contend on Resources, and wait on Signals. Exactly one process
// executes at any instant — the environment resumes a process, waits for it
// to block or finish, and only then dispatches the next event — so runs are
// fully deterministic for a fixed spawn order and seed.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
)

// ErrDeadlock is the sentinel carried by the panic Run raises when
// processes remain blocked with an empty event queue. The panic value is
// an error, so a recover handler can classify it with
// errors.Is(v.(error), ErrDeadlock).
var ErrDeadlock = errors.New("sim: deadlock")

// Time is a point in virtual time, measured in cycles.
type Time uint64

// Tracer receives the simulator's event stream: one span per completed
// Delay, on the track of the delaying process. metrics.Trace satisfies
// this interface, rendering the stream as Chrome trace-event JSON.
type Tracer interface {
	Span(name string, tid int, start, dur uint64)
}

// Env is a discrete-event simulation environment.
type Env struct {
	now     Time
	seq     uint64
	queue   eventQueue
	procs   int // live (spawned, not yet finished) processes
	spawned int // total processes ever spawned (assigns Proc ids)
	blocked int // processes blocked on a resource/signal (no pending event)
	current *Proc
	tracer  Tracer
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// SetTracer installs a sink for the environment's event stream. A nil
// tracer (the default) disables tracing at the cost of one branch per
// Delay.
func (e *Env) SetTracer(t Tracer) { e.tracer = t }

type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

func (e *Env) schedule(p *Proc, at Time) {
	e.seq++
	heap.Push(&e.queue, &event{at: at, seq: e.seq, proc: p})
}

// Proc is a simulated process. All Proc methods must be called from within
// the process's own body function.
type Proc struct {
	env    *Env
	name   string
	id     int
	resume chan struct{}
	parked chan struct{} // signaled by the proc when it blocks or finishes
	done   bool
}

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's spawn-order index, used as the thread id on
// trace timelines.
func (p *Proc) ID() int { return p.id }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new simulated process that starts at the current virtual
// time. The body runs in its own goroutine but only while the environment
// has handed it control.
func (e *Env) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, body)
}

// GoAt spawns a process whose body starts at virtual time `at` (which must
// not be in the past).
func (e *Env) GoAt(at Time, name string, body func(p *Proc)) *Proc {
	if at < e.now {
		panic(fmt.Sprintf("sim: GoAt(%d) in the past (now %d)", at, e.now))
	}
	p := &Proc{
		env:    e,
		name:   name,
		id:     e.spawned,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
	}
	e.procs++
	e.spawned++
	go func() {
		<-p.resume // wait for first dispatch
		body(p)
		p.done = true
		e.procs--
		p.parked <- struct{}{}
	}()
	e.schedule(p, at)
	return p
}

// Delay advances the process by d cycles of virtual time.
func (p *Proc) Delay(d uint64) {
	if t := p.env.tracer; t != nil {
		t.Span(p.name, p.id, uint64(p.env.now), d)
	}
	p.env.schedule(p, p.env.now+Time(d))
	p.yield()
}

// park blocks the process with no pending event; something else (a Release,
// a Broadcast) must schedule it again.
func (p *Proc) park() {
	p.env.blocked++
	p.yield()
}

// unpark schedules a parked process to resume at the current time.
func (p *Proc) unpark() {
	p.env.blocked--
	p.env.schedule(p, p.env.now)
}

// yield returns control to the environment and blocks until the next event
// for this process fires.
func (p *Proc) yield() {
	p.parked <- struct{}{}
	<-p.resume
}

// Run executes events until the queue is empty. It returns the final
// virtual time. Run panics if processes remain blocked with no pending
// events (a simulation deadlock), since that always indicates a bug in the
// modeled system; the panic value is an error wrapping ErrDeadlock.
func (e *Env) Run() Time {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.at < e.now {
			panic("sim: event in the past")
		}
		e.now = ev.at
		e.current = ev.proc
		ev.proc.resume <- struct{}{}
		<-ev.proc.parked
		e.current = nil
	}
	if e.blocked > 0 {
		panic(fmt.Errorf("%w: %d process(es) blocked with an empty event queue", ErrDeadlock, e.blocked))
	}
	return e.now
}

// Resource is a counting semaphore with a FIFO wait queue. A Resource with
// capacity 1 is a mutex.
type Resource struct {
	env      *Env
	capacity int
	inUse    int
	waiters  []*waiter
	// WaitedCycles accumulates, across all acquirers, the virtual time
	// spent queued for this resource. Experiments use it to attribute
	// contention (e.g. libmpk busy-waiting).
	WaitedCycles uint64
}

type waiter struct {
	proc *Proc
	n    int
	from Time
}

// NewResource creates a resource with the given capacity.
func (e *Env) NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{env: e, capacity: capacity}
}

// Acquire takes n units, blocking in FIFO order until they are free. It
// returns the cycles this caller spent waiting.
func (r *Resource) Acquire(p *Proc, n int) uint64 {
	if n > r.capacity {
		panic(fmt.Sprintf("sim: acquire %d exceeds capacity %d", n, r.capacity))
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return 0
	}
	w := &waiter{proc: p, n: n, from: r.env.now}
	r.waiters = append(r.waiters, w)
	p.park()
	waited := uint64(r.env.now - w.from)
	r.WaitedCycles += waited
	return waited
}

// TryAcquire takes n units if immediately available, without blocking.
func (r *Resource) TryAcquire(n int) bool {
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	return false
}

// Release returns n units and wakes as many FIFO waiters as now fit.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: release of units never acquired")
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.proc.unpark()
	}
}

// Signal is a broadcast wakeup point: processes Wait on it, and a
// Broadcast wakes all current waiters at once.
type Signal struct {
	env     *Env
	waiters []*Proc
}

// NewSignal creates a signal.
func (e *Env) NewSignal() *Signal {
	return &Signal{env: e}
}

// Wait blocks the process until the next Broadcast. It returns the cycles
// spent waiting.
func (s *Signal) Wait(p *Proc) uint64 {
	from := s.env.now
	s.waiters = append(s.waiters, p)
	p.park()
	return uint64(s.env.now - from)
}

// Broadcast wakes every process currently waiting on the signal.
func (s *Signal) Broadcast() {
	ws := s.waiters
	s.waiters = nil
	for _, p := range ws {
		p.unpark()
	}
}

// NumWaiting returns the number of processes waiting on the signal.
func (s *Signal) NumWaiting() int { return len(s.waiters) }
