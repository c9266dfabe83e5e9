package chaos

import (
	"reflect"
	"strings"
	"testing"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// allFaults is the full fault mix required by the acceptance criteria:
// IPI drop/delay, stale TLB retention, ASID exhaustion (plus a shrunken
// ASID space for organic rollover), transient VDS allocation failure,
// pdom exhaustion and spurious domain faults — all enabled at once.
func allFaults(seed uint64) Config {
	return Config{
		Seed:           seed,
		DropIPI:        0.05,
		DelayIPI:       0.05,
		StaleTLB:       0.03,
		ASIDExhaustion: 0.02,
		ASIDLimit:      24,
		VDSAllocFail:   0.10,
		PdomExhaustion: 0.05,
		SpuriousFault:  0.02,
	}
}

// dptiFaults is the DPTI soak's fault mix: allFaults minus the VDom
// core's manager-level classes, which DPTI has no hooks for and which
// would never draw.
func dptiFaults(seed uint64) Config {
	cfg := allFaults(seed)
	cfg.VDSAllocFail, cfg.PdomExhaustion = 0, 0
	return cfg
}

// TestSoakAllFaultsClean is the headline robustness check: a long soak
// with every fault class the kernel has hooks for enabled must complete
// with zero auditor violations and zero unrecovered faults, on every
// kernel the soak drives.
func TestSoakAllFaultsClean(t *testing.T) {
	for _, tc := range []struct {
		kernel    string
		faults    Config
		injected  []string
		recovered []string
	}{
		{
			kernel: "vdom",
			faults: allFaults(42),
			injected: []string{
				"inject:ipi-drop", "inject:ipi-delay", "inject:stale-tlb",
				"inject:asid-exhaustion", "inject:vds-alloc-fail",
				"inject:pdom-exhaustion", "inject:spurious-fault",
			},
			recovered: []string{
				"recover:ipi-retry", "recover:asid-rollover",
				"recover:stale-full-flush", "recover:spurious-repair",
				"recover:degraded",
			},
		},
		{
			kernel: "dpti",
			faults: dptiFaults(42),
			injected: []string{
				"inject:ipi-drop", "inject:ipi-delay", "inject:stale-tlb",
				"inject:asid-exhaustion", "inject:spurious-fault",
			},
			recovered: []string{
				"recover:ipi-retry", "recover:asid-rollover",
				"recover:stale-full-flush", "recover:spurious-repair",
			},
		},
	} {
		t.Run(tc.kernel, func(t *testing.T) {
			res := Soak(SoakConfig{Chaos: tc.faults, Ops: 5000, Kernel: tc.kernel})

			for _, v := range res.Violations {
				t.Errorf("auditor violation: %s", v)
			}
			for _, u := range res.Unrecovered {
				t.Errorf("unrecovered fault: %s", u)
			}
			if res.TotalInjected() == 0 {
				t.Fatal("soak injected no faults; fault mix is not exercising anything")
			}
			// Every fault class must actually have fired during the soak.
			for _, kind := range tc.injected {
				if res.Injected[kind] == 0 {
					t.Errorf("fault class %s never fired in %d ops", kind, res.Ops)
				}
			}
			// And the recovery paths must have run.
			for _, kind := range tc.recovered {
				if res.Recovered[kind] == 0 {
					t.Errorf("recovery path %s never ran in %d ops", kind, res.Ops)
				}
			}
			if res.ASIDRollovers == 0 {
				t.Error("no ASID generation rollover despite shrunken ASID space")
			}
			if res.Audits < res.Ops/100 {
				t.Errorf("only %d audit passes over %d ops", res.Audits, res.Ops)
			}
		})
	}
}

// TotalInjected sums a result's injection counters (test helper mirror of
// the injector method).
func (r *SoakResult) TotalInjected() uint64 {
	var n uint64
	for _, v := range r.Injected {
		n += v
	}
	return n
}

// TestSoakDeterministic replays the same seed twice and demands the
// identical fault/recovery event sequence, counters and cycle total.
func TestSoakDeterministic(t *testing.T) {
	cfg := SoakConfig{Chaos: allFaults(7), Ops: 2000}
	a := Soak(cfg)
	b := Soak(cfg)

	if a.Cycles != b.Cycles {
		t.Errorf("cycle totals diverge: %d vs %d", a.Cycles, b.Cycles)
	}
	if !reflect.DeepEqual(a.Injected, b.Injected) {
		t.Errorf("injection counters diverge:\n%v\n%v", a.Injected, b.Injected)
	}
	if !reflect.DeepEqual(a.Recovered, b.Recovered) {
		t.Errorf("recovery counters diverge:\n%v\n%v", a.Recovered, b.Recovered)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs diverge in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d diverges: %+v vs %+v", i, a.Events[i], b.Events[i])
		}
	}

	// A different seed must produce a different fault stream.
	c := Soak(SoakConfig{Chaos: allFaults(8), Ops: 2000})
	if reflect.DeepEqual(a.Injected, c.Injected) && a.Cycles == c.Cycles {
		t.Error("different seeds produced an identical run; PRNG is not seeded")
	}
}

// TestSoakCleanWhenOff runs the soak with a zero-probability injector:
// nothing may fire, nothing may fail, and the auditor must stay clean.
func TestSoakCleanWhenOff(t *testing.T) {
	off := Soak(SoakConfig{Chaos: Config{Seed: 99}, Ops: 1500})
	if n := off.TotalInjected(); n != 0 {
		t.Fatalf("zero-probability config injected %d faults", n)
	}
	for _, v := range off.Violations {
		t.Errorf("auditor violation with chaos off: %s", v)
	}
	for _, u := range off.Unrecovered {
		t.Errorf("unrecovered op with chaos off: %s", u)
	}
}

// miniWorkload drives a fixed grant/access/revoke/free sequence and
// returns its total cycle cost, with or without a (zero-probability)
// injector attached to every layer.
func miniWorkload(t *testing.T, withInjector bool) cycles.Cost {
	t.Helper()
	machine := hw.NewMachine(hw.Config{NumCores: 2})
	kern := kernel.New(kernel.Config{Machine: machine, VDomEnabled: true})
	var in *Injector
	if withInjector {
		in = New(Config{Seed: 1}) // every probability zero
		in.AttachMachine(machine)
		in.AttachKernel(kern)
	}
	proc := kern.NewProcess()
	mgr := core.Attach(proc, core.DefaultPolicy())
	if withInjector {
		in.AttachManager(mgr)
	}
	t0 := proc.NewTask(0)
	t1 := proc.NewTask(1)

	var total cycles.Cost
	step := func(c cycles.Cost, err error) {
		if err != nil {
			t.Fatalf("mini workload step failed: %v", err)
		}
		total += c
	}
	base := pagetable.VAddr(0x5000_0000)
	step(t0.Mmap(base, 16*pagetable.PageSize, true))
	for _, task := range []*kernel.Task{t0, t1} {
		step(mgr.VdrAlloc(task, 0))
	}
	var ds []core.VdomID
	for i := 0; i < 3; i++ {
		d, c := mgr.AllocVdom(false)
		total += c
		step(mgr.Mprotect(t0, base+pagetable.VAddr(i*4)*pagetable.PageSize,
			4*pagetable.PageSize, d))
		ds = append(ds, d)
	}
	for _, d := range ds {
		step(mgr.WrVdr(t0, d, core.VPermReadWrite))
		step(mgr.WrVdr(t1, d, core.VPermRead))
	}
	for i := 0; i < 12; i++ {
		step(t0.Access(base+pagetable.VAddr(i)*pagetable.PageSize, true))
		step(t1.Access(base+pagetable.VAddr(i)*pagetable.PageSize, false))
	}
	step(mgr.WrVdr(t1, ds[0], core.VPermNone)) // cross-core revoke shootdown
	step(mgr.FreeVdom(ds[1]))
	if withInjector && in.TotalInjected()+in.TotalRecovered() != 0 {
		t.Fatalf("zero-probability injector recorded events: %v / %v",
			in.Injected(), in.Recovered())
	}
	return total
}

// TestZeroCostWhenOff proves the fault hooks are free when disabled: the
// identical workload charges exactly the same cycles with a
// zero-probability injector attached as with no injector at all.
func TestZeroCostWhenOff(t *testing.T) {
	bare := miniWorkload(t, false)
	hooked := miniWorkload(t, true)
	if bare != hooked {
		t.Fatalf("chaos hooks are not zero-cost when off: %d cycles bare, %d hooked",
			bare, hooked)
	}
}

// TestAuditCatchesIncoherence plants deliberate incoherences in a core's
// TLB and checks the auditor reports each — guarding against an auditor
// that passes because it checks nothing.
func TestAuditCatchesIncoherence(t *testing.T) {
	machine := hw.NewMachine(hw.Config{NumCores: 2})
	kern := kernel.New(kernel.Config{Machine: machine, VDomEnabled: true})
	proc := kern.NewProcess()
	mgr := core.Attach(proc, core.DefaultPolicy())
	task := proc.NewTask(0)
	base := pagetable.VAddr(0x6000_0000)
	if _, err := task.Mmap(base, 4*pagetable.PageSize, true); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Access(base, true); err != nil {
		t.Fatal(err)
	}
	sys := &replay.System{Machine: machine, Kernel: kern, Proc: proc, Manager: mgr}
	if got := Audit(sys); len(got) != 0 {
		t.Fatalf("clean system reported violations: %v", got)
	}

	// A translation for a live ASID that the page table no longer backs.
	machine.Core(0).TLB().Insert(tlb.Entry{
		ASID: task.BaseASID(), VPN: uint64(base)/pagetable.PageSize + 100,
	})
	// A cached entry writable beyond its PTE.
	wr := proc.AS().Shadow().Walk(base)
	machine.Core(1).TLB().Insert(tlb.Entry{
		ASID: task.BaseASID(), VPN: uint64(base) / pagetable.PageSize,
		Frame: wr.PTE.Frame + 7, Pdom: wr.PTE.Pdom, Writable: true,
	})
	got := Audit(sys)
	if len(got) != 2 {
		t.Fatalf("planted 2 incoherences, auditor found %d: %v", len(got), got)
	}
	// A zombie entry (retired ASID) must NOT be flagged.
	machine.Core(1).TLB().Insert(tlb.Entry{ASID: 0x7777, VPN: 1, Frame: 1})
	if after := Audit(sys); len(after) != 2 {
		t.Fatalf("zombie ASID entry changed the verdict: %v", after)
	}
}

// TestSameAuditMultiset pins the recovery check: audits compare as
// multisets (order is free, multiplicity is not), and the error names
// the first difference: an unexpected finding, else a missing one.
func TestSameAuditMultiset(t *testing.T) {
	a, b := Violation{Core: 0, Desc: "a"}, Violation{Core: -1, Desc: "b"}
	base := []Violation{a, b, b}
	if err := SameAudit(base, []Violation{b, a, b}); err != nil {
		t.Fatalf("reordered audit rejected: %v", err)
	}
	for _, tc := range []struct {
		got  []Violation
		want string
	}{
		{[]Violation{a, b}, "missing: b"},
		{[]Violation{a, b, b, {Core: 1, Desc: "c"}}, "unexpected: core 1: c"},
		{nil, "missing: core 0: a"},
	} {
		err := SameAudit(base, tc.got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("SameAudit(%v) = %v, want an error naming %q", tc.got, err, tc.want)
		}
	}
}
