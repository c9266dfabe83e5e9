// Package sectest implements the paper's security evaluation (§7.2): the
// penetration tests for in-thread and cross-thread attacks on random
// vdoms, the X86 API-protection attacks (VDR corruption, PKRU hijack via
// controlled eax), and the three sandbox defenses of Table 2.
package sectest

import (
	"errors"
	"fmt"
	"strings"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/sim"
)

// Result is one penetration test's outcome.
type Result struct {
	Name string
	// Blocked reports that the attack was stopped (the expected
	// outcome).
	Blocked bool
	// SetupFailed reports that the scenario could not even be built; the
	// attack verdict is then meaningless and Detail carries the error.
	SetupFailed bool
	Detail      string
}

// setupErr marks a Result whose scenario never ran.
var setupErr = errors.New("sectest: setup failed")

// setup produces the structured failure for a broken scenario.
func setup(stage string, err error) (bool, string) {
	return false, fmt.Sprintf("%v: %s: %v", setupErr, stage, err)
}

// Run executes the full battery on one architecture. Every attack yields
// a Result — setup problems are reported per attack instead of panicking
// the battery.
func Run(arch cycles.Arch) []Result {
	tests := []struct {
		name string
		run  func(arch cycles.Arch) (bool, string)
	}{
		{"in-thread read of AD vdom", inThreadReadAD},
		{"in-thread write of WD vdom", inThreadWriteWD},
		{"cross-thread access to private vdom", crossThread},
		{"thread without VDR touches protected page", noVDR},
		{"random-vdom fuzzing (200 attempts)", fuzzRandom},
		{"evicted-domain stale access", staleEvicted},
		{"vdom reassignment on protected area", reassign},
		{"use-after-free of a vdom's pages", useAfterFree},
		{"VDR page corruption from untrusted code", vdrCorruption},
		{"retag VDR page to attacker vdom", vdrRetag},
		{"PKRU hijack via controlled eax at gate exit", pkruHijack},
		{"sandbox ❶: binary scan finds unsafe wrpkru", binaryScan},
		{"sandbox ❷: call-gate register check", gateCheck},
		{"sandbox ❸: process_vm_readv filter", deputyFilter},
	}
	var out []Result
	for _, t := range tests {
		blocked, detail := t.run(arch)
		out = append(out, Result{
			Name:        t.name,
			Blocked:     blocked,
			SetupFailed: !blocked && strings.HasPrefix(detail, setupErr.Error()),
			Detail:      detail,
		})
	}
	return out
}

type env struct {
	k    *kernel.Kernel
	proc *kernel.Process
	mgr  *core.Manager
	next pagetable.VAddr
}

func newEnv(arch cycles.Arch) *env {
	sys, err := backend.Boot("vdom", backend.Spec{
		Arch: arch, Cores: 4, VDomKernel: true, Policy: core.DefaultPolicy(),
	})
	if err != nil {
		panic(err)
	}
	return &env{k: sys.Kernel, proc: sys.Proc, mgr: sys.Manager, next: 0x50_0000_0000}
}

// region maps a fresh protected area for task and returns its vdom and
// base; errors are returned, not panicked, so attacks can surface them as
// structured setup failures.
func (e *env) region(task *kernel.Task, pages int) (core.VdomID, pagetable.VAddr, error) {
	base := e.next
	e.next += pagetable.VAddr(pages)*pagetable.PageSize + 4*pagetable.PMDSize
	if _, err := task.Mmap(base, uint64(pages)*pagetable.PageSize, true); err != nil {
		return 0, 0, fmt.Errorf("mmap: %w", err)
	}
	d, _ := e.mgr.AllocVdom(false)
	if _, err := e.mgr.Mprotect(task, base, uint64(pages)*pagetable.PageSize, d); err != nil {
		return 0, 0, fmt.Errorf("mprotect: %w", err)
	}
	return d, base, nil
}

func sigsegv(err error) bool { return errors.Is(err, kernel.ErrSigsegv) }

func inThreadReadAD(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	_, base, err := e.region(t, 1) // permission stays AD
	if err != nil {
		return setup("region", err)
	}
	_, err = t.Access(base, false)
	return sigsegv(err), fmt.Sprintf("read with AD: %v", err)
}

func inThreadWriteWD(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	d, base, err := e.region(t, 1)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(t, d, core.VPermRead); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := t.Access(base, false); err != nil {
		return false, fmt.Sprintf("legitimate read failed: %v", err)
	}
	_, err = t.Access(base, true)
	return sigsegv(err), fmt.Sprintf("write with WD: %v", err)
}

func crossThread(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	owner := e.proc.NewTask(0)
	attacker := e.proc.NewTask(1)
	for _, t := range []*kernel.Task{owner, attacker} {
		if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
			return setup("vdr_alloc", err)
		}
	}
	d, base, err := e.region(owner, 1)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(owner, d, core.VPermReadWrite); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := owner.Access(base, true); err != nil {
		return false, fmt.Sprintf("owner lost access: %v", err)
	}
	_, err = attacker.Access(base, false)
	return sigsegv(err), fmt.Sprintf("attacker read: %v", err)
}

func noVDR(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	owner := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(owner, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	d, base, err := e.region(owner, 1)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(owner, d, core.VPermReadWrite); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := owner.Access(base, true); err != nil {
		return setup("owner access", err)
	}
	stranger := e.proc.NewTask(2)
	_, err = stranger.Access(base, false)
	return sigsegv(err), fmt.Sprintf("no-VDR access: %v", err)
}

// fuzzRandom builds several VDSes worth of vdoms across two threads and
// fires random unauthorized reads and writes; every one must be fatal.
func fuzzRandom(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t1 := e.proc.NewTask(0)
	t2 := e.proc.NewTask(1)
	for _, t := range []*kernel.Task{t1, t2} {
		if _, err := e.mgr.VdrAlloc(t, 3); err != nil {
			return setup("vdr_alloc", err)
		}
	}
	const n = 40
	doms := make([]core.VdomID, n)
	bases := make([]pagetable.VAddr, n)
	owners := make([]*kernel.Task, n)
	for i := 0; i < n; i++ {
		owner := t1
		if i%2 == 1 {
			owner = t2
		}
		var err error
		doms[i], bases[i], err = e.region(owner, 1)
		if err != nil {
			return setup("region", err)
		}
		owners[i] = owner
		if _, err := e.mgr.WrVdr(owner, doms[i], core.VPermReadWrite); err != nil {
			return setup("wrvdr open", err)
		}
		if _, err := owner.Access(bases[i], true); err != nil {
			return setup("owner access", err)
		}
		if _, err := e.mgr.WrVdr(owner, doms[i], core.VPermNone); err != nil {
			return setup("wrvdr close", err)
		}
	}
	rng := sim.NewRand(0x5ec)
	for try := 0; try < 200; try++ {
		i := rng.Intn(n)
		attacker := t1
		if owners[i] == t1 {
			attacker = t2
		}
		write := rng.Intn(2) == 1
		if _, err := attacker.Access(bases[i], write); !sigsegv(err) {
			return false, fmt.Sprintf("attempt %d on vdom %d (write=%v) not blocked: %v",
				try, doms[i], write, err)
		}
	}
	return true, "200/200 unauthorized accesses blocked"
}

// staleEvicted verifies that stale permission-register bits cannot reach a
// vdom whose pdom was reassigned by eviction.
func staleEvicted(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 1); err != nil {
		return setup("vdr_alloc", err)
	}
	n := core.UsablePdomsPerVDS + 2
	doms := make([]core.VdomID, n)
	bases := make([]pagetable.VAddr, n)
	for i := 0; i < n; i++ {
		var err error
		doms[i], bases[i], err = e.region(t, 1)
		if err != nil {
			return setup("region", err)
		}
		if _, err := e.mgr.WrVdr(t, doms[i], core.VPermReadWrite); err != nil {
			return setup("wrvdr open", err)
		}
		if _, err := t.Access(bases[i], true); err != nil {
			return setup("access", err)
		}
		if i != 0 {
			if _, err := e.mgr.WrVdr(t, doms[i], core.VPermNone); err != nil {
				return setup("wrvdr close", err)
			}
		}
	}
	// doms[0] stayed "open" in the VDR but was necessarily evicted.
	// Close it now and probe: the pages must not be readable via any
	// stale state.
	if _, err := e.mgr.WrVdr(t, doms[0], core.VPermNone); err != nil {
		return setup("wrvdr close", err)
	}
	_, err := t.Access(bases[0], false)
	return sigsegv(err), fmt.Sprintf("stale access: %v", err)
}

func reassign(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	_, base, err := e.region(t, 4)
	if err != nil {
		return setup("region", err)
	}
	evil, _ := e.mgr.AllocVdom(false)
	_, err = e.mgr.Mprotect(t, base, pagetable.PageSize, evil)
	return errors.Is(err, core.ErrReassign), fmt.Sprintf("reassign: %v", err)
}

// useAfterFree frees a vdom whose pdom is then recycled by a new domain,
// and probes the old pages through stale VDR bits — the page-recycling
// attack the fuzzer uncovered during development.
func useAfterFree(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	dOld, baseOld, err := e.region(t, 2)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(t, dOld, core.VPermRead); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := t.Access(baseOld, false); err != nil {
		return false, fmt.Sprintf("setup read failed: %v", err)
	}
	if _, err := e.mgr.FreeVdom(dOld); err != nil {
		return setup("free", err)
	}
	// Recycle the hardware domain with a new trust domain.
	dNew, baseNew, err := e.region(t, 1)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(t, dNew, core.VPermReadWrite); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := t.Access(baseNew, true); err != nil {
		return false, fmt.Sprintf("new domain unusable: %v", err)
	}
	// The freed domain's pages must be unreachable despite the stale
	// VDR entry and the recycled pdom.
	if _, err := t.Access(baseOld, false); !sigsegv(err) {
		return false, fmt.Sprintf("freed pages readable: %v", err)
	}
	return true, "freed pages disabled before pdom reuse"
}

func vdrCorruption(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	g, err := core.NewGate(e.mgr)
	if err != nil {
		return setup("gate", err)
	}
	page, err := g.SealVDRPage(t)
	if err != nil {
		return setup("seal", err)
	}
	if _, err := t.Access(page, true); !sigsegv(err) {
		return false, fmt.Sprintf("direct VDR write: %v", err)
	}
	if _, err := t.Access(page, false); !sigsegv(err) {
		return false, fmt.Sprintf("direct VDR read: %v", err)
	}
	return true, "VDR page sealed by pdom1"
}

func vdrRetag(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	g, err := core.NewGate(e.mgr)
	if err != nil {
		return setup("gate", err)
	}
	page, err := g.SealVDRPage(t)
	if err != nil {
		return setup("seal", err)
	}
	evil, _ := e.mgr.AllocVdom(false)
	_, err = e.mgr.Mprotect(t, page, pagetable.PageSize, evil)
	return errors.Is(err, core.ErrReassign), fmt.Sprintf("retag VDR page: %v", err)
}

func pkruHijack(arch cycles.Arch) (bool, string) {
	if arch != cycles.X86 {
		// DACR is kernel-only on ARM; there is no user-space register
		// write to hijack.
		return true, "not applicable on ARM (DACR is privileged)"
	}
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	e.k.Dispatch(t)
	g, err := core.NewGate(e.mgr)
	if err != nil {
		return setup("gate", err)
	}
	g.Enter(t)
	var evil hw.PermRegister // all-access, including pdom1
	_, err = g.Exit(t, evil.Raw())
	return errors.Is(err, core.ErrGateViolation), fmt.Sprintf("gate exit: %v", err)
}

func binaryScan(arch cycles.Arch) (bool, string) {
	code := []core.Instr{
		{Op: core.OpOther}, {Op: core.OpWRPKRU}, {Op: core.OpOther},
		{Op: core.OpXORECX}, {Op: core.OpWRPKRU}, {Op: core.OpCmpEAX}, {Op: core.OpJNE},
		{Op: core.OpXRSTOR},
	}
	fs := core.ScanBinary(code)
	ok := len(fs) == 2 && fs[0].Index == 1 && fs[1].Index == 7
	return ok, fmt.Sprintf("findings: %v", fs)
}

func gateCheck(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	g, err := core.NewGate(e.mgr)
	if err != nil {
		return setup("gate", err)
	}
	d, base, err := e.region(t, 1)
	if err != nil {
		return setup("region", err)
	}
	if _, err := e.mgr.WrVdr(t, d, core.VPermReadWrite); err != nil {
		return setup("wrvdr", err)
	}
	if _, err := t.Access(base, true); err != nil {
		return setup("access", err)
	}
	if !g.ValidateRegister(t, t.SavedPerm()) {
		return false, "legal register rejected"
	}
	if g.ValidateRegister(t, 0) {
		return false, "all-access register accepted"
	}
	return true, "dynamic PKRU check distinguishes legal from hijacked values"
}

func deputyFilter(arch cycles.Arch) (bool, string) {
	e := newEnv(arch)
	t := e.proc.NewTask(0)
	if _, err := e.mgr.VdrAlloc(t, 2); err != nil {
		return setup("vdr_alloc", err)
	}
	_, base, err := e.region(t, 1)
	if err != nil {
		return setup("region", err)
	}
	// Without the filter the kernel deputy leaks the page.
	if _, _, err := t.ProcessVMReadv(base); err != nil {
		return false, fmt.Sprintf("baseline deputy read failed: %v", err)
	}
	e.k.RegisterSyscallFilter(func(_ *kernel.Task, sc kernel.Syscall, args kernel.SyscallArgs) error {
		if sc != kernel.SysProcessVMReadv {
			return nil
		}
		if v := e.proc.AS().FindVMA(args.Addr); v != nil && v.Tag != 0 {
			return errors.New("read of domain-protected memory")
		}
		return nil
	})
	_, _, err = t.ProcessVMReadv(base)
	return errors.Is(err, kernel.ErrBlocked), fmt.Sprintf("filtered deputy read: %v", err)
}
