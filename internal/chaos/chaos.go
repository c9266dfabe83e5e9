// Package chaos is the deterministic fault-injection and consistency-audit
// layer for the simulated machine. One seeded Injector implements the
// chaos hooks of every layer — hw.Injector (IPI loss/delay, spurious
// domain faults), kernel.Chaos (ASID-generation exhaustion), core.Chaos
// (transient VDS-allocation failure, pdom exhaustion) — plus a TLB
// interposer that models stale-entry retention after targeted
// invalidation. All randomness comes from the sim package's xoshiro256**
// generator, so every run is replayable from its seed: the same seed
// reproduces the identical fault/recovery event sequence.
//
// The cross-layer auditor (Audit) walks every core's TLB against the live
// page tables and every manager's private metadata, reporting any
// incoherence the degradation paths failed to contain.
package chaos

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/sim"
	"vdom/internal/tlb"
)

// Config enables individual fault classes with per-fault probabilities in
// [0, 1]. The zero value injects nothing (but still exercises the hook
// plumbing).
type Config struct {
	// Seed drives the PRNG; the same seed replays the same faults.
	Seed uint64

	// DropIPI is the probability that a shootdown IPI is lost.
	DropIPI float64
	// DelayIPI is the probability that a shootdown IPI is serviced late,
	// stalling the initiator for extra cycles.
	DelayIPI float64
	// StaleTLB is the probability that a targeted invalidation (page,
	// range or ASID flush) leaves its entries behind; the machine detects
	// the retention and repairs it with a full flush of that TLB.
	StaleTLB float64
	// ASIDExhaustion is the probability that an ASID allocation behaves
	// as if the generation were exhausted, forcing an early rollover.
	ASIDExhaustion float64
	// ASIDLimit, when non-zero, shrinks the usable ASID space so organic
	// exhaustion (and rollover) happens quickly.
	ASIDLimit tlb.ASID
	// VDSAllocFail is the probability that a VDS allocation fails
	// transiently.
	VDSAllocFail float64
	// PdomExhaustion is the probability that a vdom activation pretends
	// its VDS has no free pdom, forcing the slow paths.
	PdomExhaustion float64
	// SpuriousFault is the probability that a successful memory access
	// raises a spurious domain fault instead.
	SpuriousFault float64
}

// Event is one entry of the deterministic fault/recovery log.
type Event struct {
	// Seq is the global sequence number (from 1).
	Seq uint64
	// Kind is "inject:<fault>" or "recover:<path>".
	Kind string
	// Detail carries the site-specific context (core ids, attempt counts).
	Detail string
}

// maxEvents bounds the in-memory event log; counters keep exact totals
// beyond it.
const maxEvents = 16384

// Injector is the seeded fault source. It implements hw.Injector,
// kernel.Chaos and core.Chaos; InterposeTLBs adds the stale-TLB model.
// Injector is not safe for concurrent use — the simulation is
// single-threaded by design.
type Injector struct {
	cfg Config
	rng *sim.Rand

	seq       uint64
	injected  map[string]uint64
	recovered map[string]uint64
	events    []Event
}

var (
	_ hw.Injector  = (*Injector)(nil)
	_ kernel.Chaos = (*Injector)(nil)
	_ core.Chaos   = (*Injector)(nil)
)

// New builds an injector from the config.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:       cfg,
		rng:       sim.NewRand(cfg.Seed),
		injected:  make(map[string]uint64),
		recovered: make(map[string]uint64),
	}
}

// hit draws the PRNG against probability p. A non-positive p never draws,
// keeping disabled faults out of the random stream.
func (in *Injector) hit(p float64) bool {
	if p <= 0 {
		return false
	}
	return in.rng.Float64() < p
}

func (in *Injector) log(kind, detail string) {
	in.seq++
	if len(in.events) < maxEvents {
		in.events = append(in.events, Event{Seq: in.seq, Kind: kind, Detail: detail})
	}
}

func (in *Injector) inject(fault, detail string) {
	in.injected["inject:"+fault]++
	in.log("inject:"+fault, detail)
}

func (in *Injector) recover(path, detail string) {
	in.recovered["recover:"+path]++
	in.log("recover:"+path, detail)
}

// Events returns the event log (capped at maxEvents entries).
func (in *Injector) Events() []Event { return in.events }

// Injected returns the per-fault injection counters.
func (in *Injector) Injected() map[string]uint64 { return in.injected }

// Recovered returns the per-path recovery counters.
func (in *Injector) Recovered() map[string]uint64 { return in.recovered }

// TotalInjected sums every injection counter.
func (in *Injector) TotalInjected() uint64 { return sum(in.injected) }

// TotalRecovered sums every recovery counter.
func (in *Injector) TotalRecovered() uint64 { return sum(in.recovered) }

// EmitMetrics publishes the injector's counters under the chaos/ prefix:
// totals plus one counter per fault kind and recovery path (see
// OBSERVABILITY.md for the catalogue).
func (in *Injector) EmitMetrics(emit func(name string, v uint64)) {
	emit("chaos/injected", in.TotalInjected())
	emit("chaos/recovered", in.TotalRecovered())
	emit("chaos/events", uint64(len(in.events)))
	for kind, n := range in.injected {
		emit("chaos/"+kind, n)
	}
	for path, n := range in.recovered {
		emit("chaos/"+path, n)
	}
}

func sum(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// --- hw.Injector ---

// IPIFate decides whether the IPI from initiator to target is delivered,
// dropped, or delayed.
func (in *Injector) IPIFate(initiator, target int) (hw.IPIFate, cycles.Cost) {
	if in.hit(in.cfg.DropIPI) {
		in.inject("ipi-drop", fmt.Sprintf("core %d -> core %d", initiator, target))
		return hw.IPIDropped, 0
	}
	if in.hit(in.cfg.DelayIPI) {
		delay := cycles.Cost(50 + in.rng.Intn(451))
		in.inject("ipi-delay", fmt.Sprintf("core %d -> core %d (+%d cycles)", initiator, target, delay))
		return hw.IPIDelayed, delay
	}
	return hw.IPIDelivered, 0
}

// SpuriousDomainFault decides whether a successful access on core faults
// spuriously.
func (in *Injector) SpuriousDomainFault(coreID int) bool {
	if in.hit(in.cfg.SpuriousFault) {
		in.inject("spurious-fault", fmt.Sprintf("core %d", coreID))
		return true
	}
	return false
}

// NoteIPIRetry records an IPI retransmission.
func (in *Injector) NoteIPIRetry(target, attempt int) {
	in.recover("ipi-retry", fmt.Sprintf("core %d attempt %d", target, attempt))
}

// NoteIPIFallback records a full-flush recovery of an unresponsive target.
func (in *Injector) NoteIPIFallback(target int) {
	in.recover("ipi-full-flush", fmt.Sprintf("core %d", target))
}

// --- kernel.Chaos ---

// InjectASIDExhaustion decides whether the next ASID allocation rolls the
// generation over early.
func (in *Injector) InjectASIDExhaustion() bool {
	if in.hit(in.cfg.ASIDExhaustion) {
		in.inject("asid-exhaustion", "forced generation rollover")
		return true
	}
	return false
}

// NoteASIDRollover records a completed generation rollover.
func (in *Injector) NoteASIDRollover(gen uint64) {
	in.recover("asid-rollover", fmt.Sprintf("generation %d", gen))
}

// NoteSpuriousFaultRepaired records a kernel-side spurious-fault repair.
func (in *Injector) NoteSpuriousFaultRepaired(coreID int) {
	in.recover("spurious-repair", fmt.Sprintf("core %d", coreID))
}

// --- core.Chaos ---

// InjectVDSAllocFailure decides whether the next VDS allocation fails.
func (in *Injector) InjectVDSAllocFailure() bool {
	if in.hit(in.cfg.VDSAllocFail) {
		in.inject("vds-alloc-fail", "transient allocation failure")
		return true
	}
	return false
}

// InjectPdomExhaustion decides whether the next activation pretends its
// VDS is out of pdoms.
func (in *Injector) InjectPdomExhaustion() bool {
	if in.hit(in.cfg.PdomExhaustion) {
		in.inject("pdom-exhaustion", "activation forced onto slow path")
		return true
	}
	return false
}

// NoteDegradedFallback records a core-layer degradation path running.
func (in *Injector) NoteDegradedFallback(what string) {
	in.recover("degraded", what)
}

// --- stale-TLB interposer ---

// staleCache wraps a core's TLB: with probability StaleTLB a targeted
// invalidation (page, range or ASID) "loses" its precise flush — modelling
// stale-entry retention — and the machine immediately detects and repairs
// it with a full flush of that TLB, the guaranteed fallback. Coherence is
// therefore preserved while the expensive recovery path is exercised.
type staleCache struct {
	tlb.Cache
	in     *Injector
	coreID int
}

func (s *staleCache) retained(op string) bool {
	if s.in.hit(s.in.cfg.StaleTLB) {
		s.in.inject("stale-tlb", fmt.Sprintf("core %d %s flush lost", s.coreID, op))
		s.in.recover("stale-full-flush", fmt.Sprintf("core %d", s.coreID))
		s.Cache.FlushAll()
		return true
	}
	return false
}

// FlushPage drops the precise flush (repairing with a full flush) when the
// stale-TLB fault fires.
func (s *staleCache) FlushPage(asid tlb.ASID, vpn uint64) {
	if s.retained("page") {
		return
	}
	s.Cache.FlushPage(asid, vpn)
}

// FlushRange drops the precise flush when the stale-TLB fault fires.
func (s *staleCache) FlushRange(asid tlb.ASID, startVPN, pages uint64) {
	if s.retained("range") {
		return
	}
	s.Cache.FlushRange(asid, startVPN, pages)
}

// FlushASID drops the precise flush when the stale-TLB fault fires.
func (s *staleCache) FlushASID(asid tlb.ASID) {
	if s.retained("asid") {
		return
	}
	s.Cache.FlushASID(asid)
}

// --- wiring ---

// AttachMachine wires the injector into the hardware: the IPI/spurious
// hooks and, when StaleTLB is enabled, the per-core TLB interposer.
func (in *Injector) AttachMachine(m *hw.Machine) {
	m.SetInjector(in)
	if in.cfg.StaleTLB > 0 {
		for i := 0; i < m.NumCores(); i++ {
			id := i
			m.Core(i).InterposeTLB(func(c tlb.Cache) tlb.Cache {
				return &staleCache{Cache: c, in: in, coreID: id}
			})
		}
	}
}

// AttachKernel wires the injector into the kernel (ASID exhaustion and the
// optional shrunken ASID space).
func (in *Injector) AttachKernel(k *kernel.Kernel) {
	k.SetChaos(in)
	if in.cfg.ASIDLimit > 0 {
		k.SetASIDLimit(in.cfg.ASIDLimit)
	}
}

// AttachManager wires the injector into one process's VDom manager.
func (in *Injector) AttachManager(m *core.Manager) {
	m.SetChaos(in)
}
