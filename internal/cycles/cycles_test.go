package cycles

import "testing"

func TestParamsForReturnsCorrectArch(t *testing.T) {
	for _, arch := range []Arch{X86, ARM} {
		p := ParamsFor(arch)
		if p.Arch != arch {
			t.Errorf("ParamsFor(%v).Arch = %v", arch, p.Arch)
		}
	}
}

func TestParamsForUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("ParamsFor(99) did not panic")
		}
	}()
	ParamsFor(Arch(99))
}

func TestArchString(t *testing.T) {
	if X86.String() != "X86" || ARM.String() != "ARM" {
		t.Errorf("Arch strings wrong: %q %q", X86.String(), ARM.String())
	}
	if Arch(7).String() != "Arch(7)" {
		t.Errorf("unknown arch string = %q", Arch(7).String())
	}
}

// Table 3 anchors: the composite costs the rest of the repository derives
// must reconstruct the paper's measured single-operation cycles.
func TestTable3AnchorsX86(t *testing.T) {
	p := X86Params()
	if p.CallReturn != 7 {
		t.Errorf("empty API call = %d, paper reports 6.7", p.CallReturn)
	}
	if p.SyscallReturn != 173 {
		t.Errorf("empty syscall = %d, paper reports 173.4", p.SyscallReturn)
	}
	if p.PermRegWrite != 26 {
		t.Errorf("PKRU update = %d, paper reports 25.6", p.PermRegWrite)
	}
	if p.VMFUNC != 169 {
		t.Errorf("VMFUNC = %d, paper reports 169", p.VMFUNC)
	}
	// Fast wrvdr ≈ call + wrpkru + VDR bookkeeping ≈ 68.8.
	fast := p.CallReturn + p.PermRegWrite + p.VDRUpdate
	if fast < 64 || fast > 74 {
		t.Errorf("fast wrvdr composite = %d, paper reports 68.8", fast)
	}
	// Secure wrvdr adds the call gate ≈ 104.
	secure := fast + p.GateEntry + p.GateExit
	if secure < 99 || secure > 109 {
		t.Errorf("secure wrvdr composite = %d, paper reports 104", secure)
	}
}

func TestTable3AnchorsARM(t *testing.T) {
	p := ARMParams()
	if p.CallReturn != 17 {
		t.Errorf("empty API call = %d, paper reports 16.5", p.CallReturn)
	}
	if p.SyscallReturn != 268 {
		t.Errorf("empty syscall = %d, paper reports 268.3", p.SyscallReturn)
	}
	if p.PermRegWrite != 18 {
		t.Errorf("DACR update = %d, paper reports 18.1", p.PermRegWrite)
	}
	if p.UserWritablePermReg {
		t.Error("ARM DACR must not be user-writable")
	}
	// wrvdr on ARM = call + syscall + DACR + bookkeeping ≈ 406.
	wrvdr := p.CallReturn + p.SyscallReturn + p.PermRegWrite + p.VDRUpdate
	if wrvdr < 396 || wrvdr > 416 {
		t.Errorf("ARM wrvdr composite = %d, paper reports 406", wrvdr)
	}
}

func TestContextSwitchAnchors(t *testing.T) {
	// §7.5: VDom slows context switch by 6% (X86) and 7.63% (ARM),
	// reaching 451.9 and 1442.1 cycles.
	x := X86Params()
	vdomX := float64(x.ContextSwitchBase) * 1.06
	if vdomX < 445 || vdomX > 459 {
		t.Errorf("X86 VDom switch_mm = %.1f, paper reports 451.9", vdomX)
	}
	a := ARMParams()
	vdomA := float64(a.ContextSwitchBase) * 1.0763
	if vdomA < 1430 || vdomA > 1455 {
		t.Errorf("ARM VDom switch_mm = %.1f, paper reports 1442.1", vdomA)
	}
}

func TestBothArchesHave16Pdoms(t *testing.T) {
	for _, arch := range []Arch{X86, ARM} {
		if n := ParamsFor(arch).NumPdoms; n != 16 {
			t.Errorf("%v NumPdoms = %d, want 16", arch, n)
		}
	}
}

func TestPowerParams(t *testing.T) {
	p := PowerParams()
	if p.Arch != Power {
		t.Error("arch wrong")
	}
	if p.NumPdoms != 32 {
		t.Errorf("Power NumPdoms = %d, want 32 (paper §2)", p.NumPdoms)
	}
	if p.UserWritablePermReg {
		t.Error("Power AMR modeled as kernel-mediated")
	}
	if ParamsFor(Power).NumPdoms != 32 {
		t.Error("ParamsFor(Power) wrong")
	}
	if Power.String() != "Power" {
		t.Errorf("String = %q", Power.String())
	}
}
