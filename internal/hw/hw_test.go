package hw

import (
	"testing"
	"testing/quick"

	"vdom/internal/cycles"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
)

func TestPermEncoding(t *testing.T) {
	var r PermRegister
	for d := uint8(0); d < 16; d++ {
		if r.Get(d) != PermReadWrite {
			t.Fatalf("zero register: pdom %d = %v, want RW", d, r.Get(d))
		}
	}
	r.Set(3, PermNone)
	r.Set(7, PermRead)
	if r.Get(3) != PermNone || r.Get(7) != PermRead {
		t.Errorf("Get(3)=%v Get(7)=%v", r.Get(3), r.Get(7))
	}
	if r.Get(2) != PermReadWrite || r.Get(4) != PermReadWrite {
		t.Error("neighbouring fields disturbed")
	}
	r.Set(3, PermReadWrite)
	if r.Get(3) != PermReadWrite {
		t.Error("re-granting full access failed")
	}
}

func TestPermAllows(t *testing.T) {
	cases := []struct {
		p           Perm
		read, write bool
	}{
		{PermNone, false, false},
		{PermRead, true, false},
		{PermReadWrite, true, true},
	}
	for _, c := range cases {
		if c.p.Allows(false) != c.read {
			t.Errorf("%v.Allows(read) = %v", c.p, c.p.Allows(false))
		}
		if c.p.Allows(true) != c.write {
			t.Errorf("%v.Allows(write) = %v", c.p, c.p.Allows(true))
		}
	}
}

func TestPermRegisterRawRoundTrip(t *testing.T) {
	if err := quick.Check(func(v uint64, d uint8) bool {
		var r PermRegister
		r.SetRaw(v)
		pd := d % MaxPdoms
		// Raw round-trips and Get is consistent with the PKRU bits.
		if r.Raw() != v {
			return false
		}
		f := v >> (2 * uint64(pd)) & 0b11
		got := r.Get(pd)
		switch {
		case f&0b01 != 0:
			return got == PermNone
		case f&0b10 != 0:
			return got == PermRead
		default:
			return got == PermReadWrite
		}
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestDenyAllKeepsPdom0(t *testing.T) {
	var r PermRegister
	r.SetRaw(DenyAll())
	if r.Get(0) != PermReadWrite {
		t.Error("DenyAll revoked pdom0")
	}
	for d := uint8(1); d < MaxPdoms; d++ {
		if r.Get(d) != PermNone {
			t.Errorf("DenyAll left pdom %d = %v", d, r.Get(d))
		}
	}
}

func TestCPUSet(t *testing.T) {
	var s CPUSet
	s = s.Add(3).Add(17).Add(3)
	if !s.Has(3) || !s.Has(17) || s.Has(4) {
		t.Errorf("set membership wrong: %b", s)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d, want 2", s.Count())
	}
	s = s.Remove(3)
	if s.Has(3) || s.Count() != 1 {
		t.Errorf("Remove failed: %b", s)
	}
	if AllCores(4) != 0b1111 {
		t.Errorf("AllCores(4) = %b", AllCores(4))
	}
}

func newX86(cores int) *Machine {
	return NewMachine(Config{Arch: cycles.X86, NumCores: cores, TLBCapacity: 64})
}

func TestAccessHappyPath(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt := pagetable.New()
	pt.Map(0x4000, 7, true, 2)
	c.SwitchPgd(pt, 1)

	res := c.Access(0x4000, true)
	if res.Kind != AccessOK {
		t.Fatalf("first access = %v, want ok", res.Kind)
	}
	if res.TLBHit {
		t.Error("first access claimed a TLB hit")
	}
	coldCost := res.Cost

	res = c.Access(0x4000, false)
	if res.Kind != AccessOK || !res.TLBHit {
		t.Fatalf("second access = %+v, want warm hit", res)
	}
	if res.Cost >= coldCost {
		t.Errorf("warm access cost %d not cheaper than cold %d", res.Cost, coldCost)
	}
}

func TestAccessDomainFault(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt := pagetable.New()
	pt.Map(0x4000, 7, true, 5)
	c.SwitchPgd(pt, 1)

	c.Perm().Set(5, PermNone)
	if res := c.Access(0x4000, false); res.Kind != FaultDomainPerm {
		t.Errorf("read with AD = %v, want domain fault", res.Kind)
	}
	c.Perm().Set(5, PermRead)
	if res := c.Access(0x4000, false); res.Kind != AccessOK {
		t.Errorf("read with WD = %v, want ok", res.Kind)
	}
	if res := c.Access(0x4000, true); res.Kind != FaultDomainPerm {
		t.Errorf("write with WD = %v, want domain fault", res.Kind)
	}
	// The domain check applies on TLB hits too (the tag is cached).
	c.Perm().Set(5, PermNone)
	res := c.Access(0x4000, false)
	if res.Kind != FaultDomainPerm || !res.TLBHit {
		t.Errorf("hit-path domain check = %+v", res)
	}
}

func TestAccessNotPresentAndWriteProtect(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt := pagetable.New()
	pt.Map(0x4000, 7, false, 0) // read-only page
	c.SwitchPgd(pt, 1)

	if res := c.Access(0x9000, false); res.Kind != FaultNotPresent {
		t.Errorf("unmapped access = %v", res.Kind)
	}
	if res := c.Access(0x4000, true); res.Kind != FaultWriteProtect {
		t.Errorf("write to RO page = %v", res.Kind)
	}
	if res := c.Access(0x4000, false); res.Kind != AccessOK {
		t.Errorf("read of RO page = %v", res.Kind)
	}
}

func TestAccessPMDDisabled(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt := pagetable.New()
	base := pagetable.VAddr(0x40000000)
	pt.Map(base, 7, true, 2)
	c.SwitchPgd(pt, 1)
	c.Access(base, false) // warm the TLB
	pt.DisablePMD(base)
	// The stale TLB entry still hits — exactly why evictions must flush.
	if res := c.Access(base, false); !res.TLBHit {
		t.Error("expected stale TLB hit before flush")
	}
	c.TLB().FlushPage(1, base.VPN())
	if res := c.Access(base, false); res.Kind != FaultPMDDisabled {
		t.Errorf("after flush = %v, want pmd-disabled fault", res.Kind)
	}
}

func TestSwitchPgdPreservesTLBWithASID(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt1, pt2 := pagetable.New(), pagetable.New()
	pt1.Map(0x4000, 1, true, 0)
	pt2.Map(0x4000, 2, true, 0)

	c.SwitchPgd(pt1, 1)
	c.Access(0x4000, false)
	c.SwitchPgd(pt2, 2)
	c.Access(0x4000, false)
	c.SwitchPgd(pt1, 1)
	res := c.Access(0x4000, false)
	if !res.TLBHit {
		t.Error("ASID-tagged entry lost across pgd switches")
	}
}

func TestSwitchPgdFlushesWithoutASID(t *testing.T) {
	m := NewMachine(Config{Arch: cycles.X86, NumCores: 1, TLBCapacity: 64, NoASID: true})
	c := m.Core(0)
	pt1 := pagetable.New()
	pt1.Map(0x4000, 1, true, 0)
	c.SwitchPgd(pt1, 1)
	c.Access(0x4000, false)
	costWith := c.SwitchPgd(pt1, 1)
	if res := c.Access(0x4000, false); res.TLBHit {
		t.Error("TLB survived pgd switch despite NoASID")
	}
	// The no-ASID switch must cost more than an ASID-tagged one.
	m2 := newX86(1)
	costASID := m2.Core(0).SwitchPgd(pt1, 1)
	if costWith <= costASID {
		t.Errorf("NoASID switch cost %d <= ASID switch cost %d", costWith, costASID)
	}
}

func TestShootdown(t *testing.T) {
	m := newX86(4)
	pt := pagetable.New()
	pt.Map(0x4000, 1, true, 0)
	for i := 0; i < 4; i++ {
		m.Core(i).SwitchPgd(pt, 1)
		m.Core(i).Access(0x4000, false)
	}
	targets := AllCores(4).Remove(3) // cores 0..2
	rep := m.Shootdown(0, targets, func(tb tlb.Cache) { tb.FlushASID(1) },
		m.Params().TLBFlushLocalASID)
	if rep.RemoteCores != 2 {
		t.Errorf("RemoteCores = %d, want 2 (initiator excluded)", rep.RemoteCores)
	}
	wantInit := m.Params().TLBFlushLocalASID + 2*m.Params().IPI
	if rep.InitiatorCycles != wantInit {
		t.Errorf("InitiatorCycles = %d, want %d", rep.InitiatorCycles, wantInit)
	}
	for i := 0; i < 3; i++ {
		if res := m.Core(i).Access(0x4000, false); res.TLBHit {
			t.Errorf("core %d TLB survived shootdown", i)
		}
	}
	if res := m.Core(3).Access(0x4000, false); !res.TLBHit {
		t.Error("core 3 outside target set was flushed")
	}
}

func TestAllocFrames(t *testing.T) {
	m := newX86(1)
	f1 := m.AllocFrames(10)
	f2 := m.AllocFrames(5)
	if f2 != f1+10 {
		t.Errorf("frames overlap: %d then %d", f1, f2)
	}
}

func TestMachineConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NumCores=0 did not panic")
		}
	}()
	NewMachine(Config{Arch: cycles.X86})
}

func TestAccessWithoutTablePanics(t *testing.T) {
	m := newX86(1)
	defer func() {
		if recover() == nil {
			t.Error("Access with nil table did not panic")
		}
	}()
	m.Core(0).Access(0x1000, false)
}

func TestFaultKindString(t *testing.T) {
	kinds := []FaultKind{AccessOK, FaultNotPresent, FaultPMDDisabled, FaultDomainPerm, FaultWriteProtect}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("FaultKind %d string %q empty or duplicated", k, s)
		}
		seen[s] = true
	}
}

// Property: for any register value and pdom, Access outcome matches
// Perm.Allows on a mapped writable page.
func TestAccessMatchesPermProperty(t *testing.T) {
	if err := quick.Check(func(raw uint64, d, wr uint8) bool {
		m := newX86(1)
		c := m.Core(0)
		pd := pagetable.Pdom(d % 16)
		pt := pagetable.New()
		pt.Map(0x4000, 1, true, pd)
		c.SwitchPgd(pt, 1)
		c.Perm().SetRaw(raw)
		write := wr%2 == 1
		res := c.Access(0x4000, write)
		allowed := c.Perm().Allows(uint8(pd), write)
		if allowed {
			return res.Kind == AccessOK
		}
		return res.Kind == FaultDomainPerm
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSetAssociativeMachine(t *testing.T) {
	m := NewMachine(Config{Arch: cycles.X86, NumCores: 1, TLBCapacity: 64, SetAssociative: true})
	c := m.Core(0)
	if c.TLB().Capacity() < 64 {
		t.Errorf("set-assoc capacity = %d, want >= 64", c.TLB().Capacity())
	}
	pt := pagetable.New()
	// A stride that maps every page to the same set: with 8 ways, the
	// 9th conflicting page evicts the 1st despite free capacity.
	sets := c.TLB().Capacity() / 8
	for i := 0; i < 9; i++ {
		a := pagetable.VAddr(uint64(i*sets) << 12)
		pt.Map(a, pagetable.Frame(i), true, 0)
	}
	c.SwitchPgd(pt, 1)
	for i := 0; i < 9; i++ {
		a := pagetable.VAddr(uint64(i*sets) << 12)
		if res := c.Access(a, false); res.Kind != AccessOK {
			t.Fatalf("access %d: %v", i, res.Kind)
		}
	}
	if res := c.Access(0, false); res.TLBHit {
		t.Error("conflict-evicted entry still hits (set-associativity not modeled)")
	}
}

// TestWalkCacheTransparent drives the same deterministic access/mutation
// script against a machine with the walk cache enabled and one with it
// disabled: every AccessResult (kind, pdom, hit flag, and cost) must be
// identical, because the cache is a host-side optimization charged zero
// simulated cycles.
func TestWalkCacheTransparent(t *testing.T) {
	script := func(noWalkCache bool) ([]AccessResult, tlb.Stats) {
		m := NewMachine(Config{Arch: cycles.X86, NumCores: 1, TLBCapacity: 16})
		m.noWalkCache = noWalkCache
		c := m.Core(0)
		pt := pagetable.New()
		c.SwitchPgd(pt, 1)
		var out []AccessResult
		rnd := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 4000; i++ {
			rnd = rnd*6364136223846793005 + 1442695040888963407
			page := pagetable.VAddr((rnd >> 33) % 64 * pagetable.PageSize)
			switch rnd % 11 {
			case 0:
				pt.Map(page, pagetable.Frame(i), rnd%3 != 0, pagetable.Pdom(rnd%8))
			case 1:
				pt.Unmap(page)
			case 2:
				pt.SetPdom(page, pagetable.Pdom(rnd%8))
			case 3:
				pt.DisablePMD(page)
			case 4:
				pt.EnablePMD(page)
			case 5:
				c.TLB().FlushPage(1, page.VPN())
			default:
				out = append(out, c.Access(page, rnd%2 == 0))
			}
		}
		return out, c.TLB().Stats()
	}
	on, onStats := script(false)
	off, offStats := script(true)
	if len(on) != len(off) {
		t.Fatalf("result counts differ: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Fatalf("access %d diverged: cache-on %+v, cache-off %+v", i, on[i], off[i])
		}
	}
	if onStats != offStats {
		t.Errorf("TLB stats diverged: cache-on %+v, cache-off %+v", onStats, offStats)
	}
}

// TestWalkCacheCountsHits verifies the cache actually engages (repeated
// faulting accesses to one unmapped page replay the memoized walk) and
// that its counters reach the metrics catalogue.
func TestWalkCacheCountsHits(t *testing.T) {
	m := newX86(1)
	c := m.Core(0)
	pt := pagetable.New()
	c.SwitchPgd(pt, 1)
	for i := 0; i < 10; i++ {
		if res := c.Access(0x4000, false); res.Kind != FaultNotPresent {
			t.Fatalf("access %d = %v, want not-present", i, res.Kind)
		}
	}
	got := map[string]uint64{}
	m.EmitMetrics(func(name string, v uint64) { got[name] = v })
	if got["hw/walk-cache-hits"] != 9 || got["hw/walk-cache-misses"] != 1 {
		t.Errorf("walk cache counters = hits %d misses %d, want 9/1",
			got["hw/walk-cache-hits"], got["hw/walk-cache-misses"])
	}
	// A table mutation must invalidate the memo via the generation check.
	pt.Map(0x4000, 7, true, 2)
	if res := c.Access(0x4000, false); res.Kind != AccessOK || res.TLBHit {
		t.Fatalf("post-map access = %+v, want cold ok", res)
	}
	m.EmitMetrics(func(name string, v uint64) { got[name] = v })
	if got["hw/walk-cache-misses"] != 2 {
		t.Errorf("post-map misses = %d, want 2", got["hw/walk-cache-misses"])
	}
}
