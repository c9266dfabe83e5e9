package core

import (
	"errors"
	"testing"

	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
	"vdom/internal/tlb"
)

func TestVdrAllocTwiceFails(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.VdrAlloc(task, 2); err == nil {
		t.Error("second VdrAlloc succeeded")
	}
}

func TestMprotectUnmappedRegionFails(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	d, _ := f.m.AllocVdom(false)
	if _, err := f.m.Mprotect(task, 0xdead0000, pg, d); err == nil {
		t.Error("Mprotect on unmapped memory succeeded")
	}
}

func TestMprotectDeadVdomFails(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Mmap(0x100000000, pg, true); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Mprotect(task, 0x100000000, pg, 9999); !errors.Is(err, ErrFreedVdom) {
		t.Errorf("Mprotect with unallocated vdom = %v, want ErrFreedVdom", err)
	}
}

func TestAPIsWithoutVDR(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	d, _ := f.m.AllocVdom(false)
	if _, err := f.m.WrVdr(task, d, VPermRead); !errors.Is(err, ErrNoVDR) {
		t.Errorf("WrVdr without VDR = %v", err)
	}
	if _, _, err := f.m.RdVdr(task, d); !errors.Is(err, ErrNoVDR) {
		t.Errorf("RdVdr without VDR = %v", err)
	}
	if _, err := f.m.VdrFree(task); !errors.Is(err, ErrNoVDR) {
		t.Errorf("VdrFree without VDR = %v", err)
	}
	if _, err := f.m.PlaceInNewVDS(task); !errors.Is(err, ErrNoVDR) {
		t.Errorf("PlaceInNewVDS without VDR = %v", err)
	}
}

func TestVDROfUnknownTaskNil(t *testing.T) {
	f := x86Fixture(t)
	if f.m.VDROf(f.proc.NewTask(0)) != nil {
		t.Error("VDROf unknown task non-nil")
	}
}

func TestFaultOnForeignNonVdomMemoryUnhandled(t *testing.T) {
	// A domain fault on memory with no vdom tag is not VDom's to handle:
	// the kernel delivers SIGSEGV.
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Mmap(0x100000000, pg, true); err != nil {
		t.Fatal(err)
	}
	// Manually poison the PTE with a denied pdom, no VMA tag.
	if _, err := task.Access(0x100000000, true); err != nil {
		t.Fatal(err)
	}
	tbl := f.m.VDROf(task).Current().Table()
	tbl.SetPdom(0x100000000, 9)
	task.Core().TLB().FlushASID(task.ASID())
	var r regImage
	r.set(1, false, true)
	r.set(9, false, true)
	task.SetSavedPerm(r.bits)
	_, err := task.Access(pagetable.VAddr(0x100000000), false)
	if err == nil {
		t.Error("poisoned access succeeded")
	}
}

// stubChaos is a deterministic in-package fault source for error-path
// tests.
type stubChaos struct {
	failAlloc    bool
	exhaustPdoms bool
	degraded     []string
}

func (s *stubChaos) InjectVDSAllocFailure() bool   { return s.failAlloc }
func (s *stubChaos) InjectPdomExhaustion() bool    { return s.exhaustPdoms }
func (s *stubChaos) NoteDegradedFallback(w string) { s.degraded = append(s.degraded, w) }

// TestActivationEvictsAccessibleLastResort fills a nas=1 VDS with open
// vdoms and demands one more: HLRU's last resort evicts an accessible
// vdom (whose permission survives in the VDR, so it refaults back in)
// rather than failing — graceful degradation, not ErrNoResources.
func TestActivationEvictsAccessibleLastResort(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 1); err != nil {
		t.Fatal(err)
	}
	var firstBase pagetable.VAddr
	for i := 0; i < UsablePdomsPerVDS; i++ {
		d, base := f.newVdomRegion(t, task, 1, false)
		if i == 0 {
			firstBase = base
		}
		grant(t, f.m, task, d, VPermReadWrite)
		if _, err := task.Access(base, true); err != nil {
			t.Fatalf("vdom %d access: %v", d, err)
		}
	}
	evictionsBefore := f.m.Stats.Evictions
	extra, extraBase := f.newVdomRegion(t, task, 1, false)
	grant(t, f.m, task, extra, VPermReadWrite)
	if _, err := task.Access(extraBase, true); err != nil {
		t.Fatalf("activated vdom unusable: %v", err)
	}
	if f.m.Stats.Evictions == evictionsBefore {
		t.Error("full VDS activation did not evict")
	}
	// The evicted (still-open) vdom transparently refaults back in.
	if _, err := task.Access(firstBase, true); err != nil {
		t.Fatalf("evicted vdom did not refault back: %v", err)
	}
	if got := f.m.AuditInvariants(); len(got) != 0 {
		t.Fatalf("invariants violated after eviction cycle: %v", got)
	}
}

// TestTransientAllocFailureTyped injects a VDS allocation failure:
// PlaceInNewVDS has no fallback space, so the transient typed failure
// surfaces as ErrNoResources.
func TestTransientAllocFailureTyped(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	f.m.SetChaos(&stubChaos{failAlloc: true})
	defer f.m.SetChaos(nil)
	if _, err := f.m.PlaceInNewVDS(task); !errors.Is(err, ErrNoResources) {
		t.Fatalf("place_in_new_vds under alloc failure returned %v, want ErrNoResources", err)
	}
}

// TestVdrAllocDegradedTyped makes every VDS allocation fail before the
// first vdr_alloc: the retry-once degradation path runs, then the call
// fails with both ErrDegraded and the causal ErrNoResources visible to
// errors.Is.
func TestVdrAllocDegradedTyped(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	stub := &stubChaos{failAlloc: true}
	f.m.SetChaos(stub)
	_, err := f.m.VdrAlloc(task, 2)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("vdr_alloc after failed retry returned %v, want ErrDegraded", err)
	}
	if !errors.Is(err, ErrNoResources) {
		t.Fatalf("degraded error %v does not expose the ErrNoResources cause", err)
	}
	if len(stub.degraded) == 0 || stub.degraded[0] != "vdr_alloc:vds-retry" {
		t.Fatalf("retry path did not report itself: %v", stub.degraded)
	}
	// With the fault cleared the same call succeeds — transient means
	// transient.
	f.m.SetChaos(nil)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatalf("vdr_alloc still failing after fault cleared: %v", err)
	}
}

// TestASIDExhaustionTyped shrinks the ASID space to exactly the live set:
// a new VDS cannot get an ASID even after a generation rollover, and the
// terminal sentinel ErrExhausted surfaces.
func TestASIDExhaustionTyped(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	k := f.proc.Kernel()
	k.SetASIDLimit(tlb.ASID(k.LiveASIDCount()))
	if _, err := f.m.PlaceInNewVDS(task); !errors.Is(err, ErrExhausted) {
		t.Fatalf("place_in_new_vds with full ASID space returned %v, want ErrExhausted", err)
	}
}

// TestFreedVdomTyped checks the use-after-free sentinels.
func TestFreedVdomTyped(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	d, _ := f.newVdomRegion(t, task, 1, false)
	if _, err := f.m.FreeVdom(d); err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.WrVdr(task, d, VPermRead); !errors.Is(err, ErrFreedVdom) {
		t.Fatalf("wrvdr on freed vdom returned %v, want ErrFreedVdom", err)
	}
	if _, err := f.m.FreeVdom(d); !errors.Is(err, ErrFreedVdom) {
		t.Fatalf("double free returned %v, want ErrFreedVdom", err)
	}
}

// TestFaultOutcomesWrapped checks that the fault resolver's SIGSEGVs
// carry their cause: a denied read or write is ErrDenied and an access to
// a freed vdom is ErrFreedVdom, both to errors.Is and to tap.CodeOf.
func TestFaultOutcomesWrapped(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	d, base := f.newVdomRegion(t, task, 1, false)
	check := func(what string, write bool, want error, code tap.Code) {
		t.Helper()
		_, err := task.Access(base, write)
		if !errors.Is(err, kernel.ErrSigsegv) || !errors.Is(err, want) {
			t.Fatalf("%s: %v, want SIGSEGV wrapping %v", what, err, want)
		}
		if got := tap.CodeOf(err); got != code {
			t.Fatalf("%s: CodeOf = %v, want %v", what, got, code)
		}
	}
	check("read without permission", false, ErrDenied, tap.CodeDenied)
	grant(t, f.m, task, d, VPermRead)
	check("write with read permission", true, ErrDenied, tap.CodeDenied)
	if _, err := f.m.FreeVdom(d); err != nil {
		t.Fatal(err)
	}
	check("read of a freed vdom", false, ErrFreedVdom, tap.CodeFreedVdom)
}

func TestReassignAllowedAfterFree(t *testing.T) {
	f := x86Fixture(t)
	task := f.proc.NewTask(0)
	if _, err := f.m.VdrAlloc(task, 2); err != nil {
		t.Fatal(err)
	}
	d1, base := f.newVdomRegion(t, task, 1, false)
	if _, err := f.m.FreeVdom(d1); err != nil {
		t.Fatal(err)
	}
	d2, _ := f.m.AllocVdom(false)
	if _, err := f.m.Mprotect(task, base, pg, d2); err != nil {
		t.Fatalf("reassign after free rejected: %v", err)
	}
	grant(t, f.m, task, d2, VPermReadWrite)
	if _, err := task.Access(base, true); err != nil {
		t.Fatal(err)
	}
	// The sealed gate pages can never be reassigned, even though their
	// tag is not a live vdom.
	g, err := NewGate(f.m)
	if err != nil {
		t.Fatal(err)
	}
	page, err := g.SealVDRPage(task)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.m.Mprotect(task, page, pg, d2); !errors.Is(err, ErrReassign) {
		t.Errorf("sealed page reassign = %v, want ErrReassign", err)
	}
}
