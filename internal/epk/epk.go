// Package epk models the EPK baseline (Gu et al., USENIX ATC 2022): MPK
// scaled beyond 16 domains by spreading protection keys across multiple
// extended page tables (EPTs) and switching between them with VMFUNC
// inside a virtual machine.
//
// EPK's code is not publicly available; the VDom paper itself evaluates it
// by inserting the cycle counts EPK reports into the applications (§7.4)
// and running them inside a tuned KVM guest. This package reproduces that
// exact methodology: a per-thread domain-switch cost model (MPK write
// within the current EPT group, VMFUNC across groups, slower as the total
// EPT count grows) plus a VM tax that scales kernel-bound work (syscalls,
// faults, IO) and — mildly — user-bound work (nested-paging TLB misses).
//
// It covers the paper's §7.4 comparison and is the "Baseline: EPK" row of
// the DESIGN.md §3 module map. Stats.Emit publishes the switch counters
// under the epk/ metric prefix (OBSERVABILITY.md).
package epk

import (
	"vdom/internal/cycles"
	"vdom/internal/metrics"
	"vdom/internal/tap"
)

// KeysPerEPT is how many protection keys one EPT group contributes. EPK
// reserves pkey 0 per group, leaving 15 for domains.
const KeysPerEPT = 15

// Costs of a domain switch, as reported by EPK and inserted verbatim by
// the paper's simulation: 97 cycles for an in-group MPK switch; VMFUNC
// switches start at ~350 cycles and degrade to ~830 as the EPT count
// grows.
const (
	MPKSwitchCycles = 97
	vmfuncBase      = 30
	vmfuncPerEPT    = 160
	vmfuncMin       = 169 // a bare VMFUNC (Table 3)
)

// VMFuncCycles returns the cost of one VMFUNC EPT switch when numEPTs
// extended page tables are installed. Fitted to the paper's reported
// pairs: ≈350 cycles with 2–3 EPTs (32 domains), ≈830 with 5 (64–70
// domains).
func VMFuncCycles(numEPTs int) cycles.Cost {
	if numEPTs < 1 {
		numEPTs = 1
	}
	c := cycles.Cost(vmfuncBase + vmfuncPerEPT*numEPTs)
	if c < vmfuncMin {
		return vmfuncMin
	}
	return c
}

// VMTax models the overhead of running the application inside the tuned
// KVM guest of §7.4: kernel entries (syscalls, faults, IO submissions) pay
// virtualization exits, and user-space execution pays a small nested-
// paging (EPT-walk) tax. The defaults reproduce the paper's observations:
// ≈5–7% on syscall-heavy servers (httpd, MySQL) and ≈2% on the pure
// user-space PMO benchmark.
type VMTax struct {
	// UserFactor multiplies user-space work (nested paging TLB costs).
	UserFactor float64
	// KernelFactor multiplies in-kernel work (vmexits on syscalls,
	// faults, interrupt delivery).
	KernelFactor float64
}

// DefaultVMTax returns the calibrated guest overhead.
func DefaultVMTax() VMTax {
	return VMTax{UserFactor: 1.02, KernelFactor: 1.30}
}

// Apply returns the in-VM cost of a workload slice split into user and
// kernel cycles.
func (t VMTax) Apply(user, kern cycles.Cost) cycles.Cost {
	return cycles.Cost(float64(user)*t.UserFactor + float64(kern)*t.KernelFactor)
}

// Stats counts EPK's switch events.
type Stats struct {
	MPKSwitches    uint64
	VMFuncSwitches uint64
}

// Emit publishes the stats as named metrics counters under the epk/
// prefix (see OBSERVABILITY.md for the catalogue).
func (s Stats) Emit(emit func(name string, v uint64)) {
	emit("epk/mpk-switches", s.MPKSwitches)
	emit("epk/vmfunc-switches", s.VMFuncSwitches)
}

// System is one EPK-protected process: a set of domains spread over EPT
// groups and the per-thread current group.
type System struct {
	numDomains int
	numEPTs    int
	current    map[int]int // threadID → EPT group
	tax        VMTax
	tap        tap.Tap
	metrics    *metrics.Registry

	// Stats is exported for the experiment harness.
	Stats Stats
}

// SetTap attaches a trace recorder; completed domain switches arrive as
// unified tap.Events (OpEpkSwitch). Pass nil (the default) to detach.
func (s *System) SetTap(t tap.Tap) { s.tap = t }

// SetMetrics installs (or, with nil, removes) the registry that receives
// the cycles of every domain switch as ("epk", "switch").
func (s *System) SetMetrics(r *metrics.Registry) { s.metrics = r }

// NumDomains returns the domain capacity the system was created with.
func (s *System) NumDomains() int { return s.numDomains }

// New creates an EPK system able to host numDomains domains.
func New(numDomains int, tax VMTax) *System {
	epts := (numDomains + KeysPerEPT - 1) / KeysPerEPT
	if epts < 1 {
		epts = 1
	}
	return &System{
		numDomains: numDomains,
		numEPTs:    epts,
		current:    make(map[int]int),
		tax:        tax,
	}
}

// NumEPTs returns the number of extended page tables in use.
func (s *System) NumEPTs() int { return s.numEPTs }

// Tax returns the VM overhead model.
func (s *System) Tax() VMTax { return s.tax }

// groupOf returns the EPT group hosting the domain.
func groupOf(domain int) int { return domain / KeysPerEPT }

// Switch performs one domain switch for the thread and returns the
// inserted cycles: an MPK register write when the target domain lives in
// the thread's current EPT group, a VMFUNC switch otherwise.
func (s *System) Switch(threadID, domain int) (cost cycles.Cost) {
	defer func() {
		s.metrics.Attribute("epk", "switch", uint64(cost))
		if s.tap != nil {
			s.tap(tap.Event{Op: tap.OpEpkSwitch, TID: threadID, Dom: uint64(domain), Cost: cost})
		}
	}()
	g := groupOf(domain)
	if cur, ok := s.current[threadID]; ok && cur == g {
		s.Stats.MPKSwitches++
		return MPKSwitchCycles
	}
	s.current[threadID] = g
	if s.numEPTs == 1 {
		// A single EPT never needs VMFUNC; first use just loads the
		// group.
		s.Stats.MPKSwitches++
		return MPKSwitchCycles
	}
	s.Stats.VMFuncSwitches++
	return VMFuncCycles(s.numEPTs)
}

// WorkInVM converts a (user, kernel) cycle split into guest cycles.
func (s *System) WorkInVM(user, kern cycles.Cost) cycles.Cost {
	return s.tax.Apply(user, kern)
}
