package workload

import (
	"math"

	"vdom/internal/backend"
	"vdom/internal/cycles"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
)

// UnixBenchScore is one test's relative score: VDom-kernel ops/sec divided
// by vanilla-kernel ops/sec, ×100 (§7.3 reports 98.5%–101.8%).
type UnixBenchScore struct {
	Test     string
	Relative float64 // percent
}

// UnixBenchResult is the whole suite.
type UnixBenchResult struct {
	Arch cycles.Arch
	// Parallel is true for the N-copy run (one instance per core).
	Parallel bool
	Scores   []UnixBenchScore
	// Index is the geometric mean of the relative scores.
	Index float64
}

// RunUnixBench runs the UnixBench-like kernel suite on the vanilla and
// VDom-modified kernels and reports per-test relative scores. The suite
// covers the surfaces the kernel modification touches: syscall entry,
// pipe-style data shuffling, context switching, process/task spawning, and
// demand paging; a pure-user Dhrystone-style test anchors the unaffected
// end.
func RunUnixBench(arch cycles.Arch, parallel bool) UnixBenchResult {
	copies := 1
	if parallel {
		copies = DefaultCores(arch)
	}
	tests := []struct {
		name string
		run  func(k *kernel.Kernel) float64 // cycles per op
	}{
		{"dhrystone (register)", ubDhrystone},
		{"syscall overhead", ubSyscall},
		{"pipe throughput", ubPipe},
		{"pipe-based context switching", ubContextSwitch},
		{"process creation", ubSpawn},
		{"execl throughput", ubExec},
		{"demand paging", ubPaging},
	}
	res := UnixBenchResult{Arch: arch, Parallel: parallel}
	prod := 1.0
	for _, tst := range tests {
		vanilla := bootBench(arch, copies, false)
		vdomk := bootBench(arch, copies, true)
		base := tst.run(vanilla)
		mod := tst.run(vdomk)
		rel := base / mod * 100 // ops/sec ratio == inverse cycle ratio
		res.Scores = append(res.Scores, UnixBenchScore{Test: tst.name, Relative: rel})
		prod *= rel
	}
	res.Index = math.Pow(prod, 1/float64(len(tests)))
	return res
}

func bootBench(arch cycles.Arch, cores int, vdomOn bool) *kernel.Kernel {
	return backend.BootSubstrate(backend.Spec{Arch: arch, Cores: cores, VDomKernel: vdomOn}).Kernel
}

// ubDhrystone: pure user-space integer work — kernel flavour is invisible.
func ubDhrystone(k *kernel.Kernel) float64 {
	return 1_000_000
}

// ubSyscall: empty syscall round trips.
func ubSyscall(k *kernel.Kernel) float64 {
	p := k.NewProcess()
	t := p.NewTask(0)
	var total cycles.Cost
	const n = 256
	for i := 0; i < n; i++ {
		_, c := t.GetTID()
		total += c
	}
	return float64(total) / n
}

// ubPipe: two syscalls plus a 512-byte copy per op.
func ubPipe(k *kernel.Kernel) float64 {
	p := k.NewProcess()
	t := p.NewTask(0)
	var total cycles.Cost
	const n = 256
	for i := 0; i < n; i++ {
		_, c1 := t.GetTID() // write()
		_, c2 := t.GetTID() // read()
		total += c1 + c2 + 512/8
	}
	return float64(total) / n
}

// ubContextSwitch: ping-pong between two tasks on one core, the test most
// sensitive to the VDom kernel's switch_mm slowdown.
func ubContextSwitch(k *kernel.Kernel) float64 {
	p := k.NewProcess()
	t1, t2 := p.NewTask(0), p.NewTask(0)
	var total cycles.Cost
	const n = 256
	for i := 0; i < n; i++ {
		total += k.Dispatch(t1) + k.Params().SyscallReturn
		total += k.Dispatch(t2) + k.Params().SyscallReturn
	}
	return float64(total) / (2 * n)
}

// ubSpawn: create a task, dispatch it once, and let it make one syscall.
func ubSpawn(k *kernel.Kernel) float64 {
	p := k.NewProcess()
	var total cycles.Cost
	const n = 64
	for i := 0; i < n; i++ {
		t := p.NewTask(0)
		total += k.Params().SyscallReturn * 3 // fork-style setup
		total += k.Dispatch(t)
		_, c := t.GetTID()
		total += c
	}
	return float64(total) / n
}

// ubExec: fresh process with an address-space setup (mmap text/data/stack)
// and first faults.
func ubExec(k *kernel.Kernel) float64 {
	var total cycles.Cost
	const n = 16
	for i := 0; i < n; i++ {
		p := k.NewProcess()
		t := p.NewTask(0)
		base := pagetable.VAddr(0x400000)
		for seg := 0; seg < 3; seg++ {
			addr := base + pagetable.VAddr(seg)*0x10000000
			c, err := t.Mmap(addr, 16*pagetable.PageSize, true)
			if err != nil {
				panic(err)
			}
			total += c
			c2, err := t.Access(addr, true)
			if err != nil {
				panic(err)
			}
			total += c2
		}
	}
	return float64(total) / n
}

// ubPaging: mmap a region and fault every page.
func ubPaging(k *kernel.Kernel) float64 {
	p := k.NewProcess()
	t := p.NewTask(0)
	const pages = 128
	c, err := t.Mmap(0x70000000, pages*pagetable.PageSize, true)
	if err != nil {
		panic(err)
	}
	total := c
	for i := 0; i < pages; i++ {
		c, err := t.Access(0x70000000+pagetable.VAddr(i)*pagetable.PageSize, true)
		if err != nil {
			panic(err)
		}
		total += c
	}
	return float64(total) / pages
}
