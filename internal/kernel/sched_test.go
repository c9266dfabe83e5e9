package kernel_test

import (
	"testing"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
	"vdom/internal/tlb"
)

const pg = pagetable.PageSize

// bootVDom builds a machine + VDom kernel + process + manager for
// scheduler tests that need the core layer (which the in-package kernel
// tests cannot import).
func bootVDom(t *testing.T, cores int) (*kernel.Kernel, *kernel.Process, *core.Manager) {
	t.Helper()
	m := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: cores, TLBCapacity: 256})
	k := kernel.New(kernel.Config{Machine: m, VDomEnabled: true})
	p := k.NewProcess()
	return k, p, core.Attach(p, core.DefaultPolicy())
}

// TestSchedThreadExitWhileResident exercises a thread releasing its VDR
// — leaving its VDS — while it is still the task resident on its core:
// the next dispatch of another thread, and a later re-dispatch of the
// exited thread against the base address space, must both work, and the
// emptied VDS must be reapable.
func TestSchedThreadExitWhileResident(t *testing.T) {
	k, p, mgr := bootVDom(t, 1)
	env := sim.NewEnv()
	sched := kernel.NewSched(env, k)

	t1 := p.NewTask(0)
	t2 := p.NewTask(0)
	const plain = pagetable.VAddr(0x10_0000)
	if _, err := t1.Mmap(plain, 4*pg, true); err != nil {
		t.Fatal(err)
	}
	const guarded = pagetable.VAddr(0x20_0000)
	if _, err := t1.Mmap(guarded, 4*pg, true); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.VdrAlloc(t1, 2); err != nil {
		t.Fatal(err)
	}
	// Move t1 out of the process's home VDS, so its exit empties a
	// reclaimable one.
	if _, err := mgr.PlaceInNewVDS(t1); err != nil {
		t.Fatal(err)
	}
	if got := len(mgr.VDSes()); got != 2 {
		t.Fatalf("expected 2 VDSes after the spread, have %d", got)
	}
	d, _ := mgr.AllocVdom(false)
	if _, err := mgr.Mprotect(t1, guarded, 4*pg, d); err != nil {
		t.Fatal(err)
	}

	env.Go("t1", func(proc *sim.Proc) {
		// Open the domain and touch it, so t1 is resident in its VDS and
		// is the core's last-dispatched task...
		sched.Run(proc, t1, func() cycles.Cost {
			c, err := mgr.WrVdr(t1, d, core.VPermReadWrite)
			if err != nil {
				t.Errorf("wrvdr: %v", err)
			}
			a, err := t1.Access(guarded, true)
			if err != nil {
				t.Errorf("guarded access: %v", err)
			}
			return c + a
		})
		// ... then exit: the VDR is released while t1 is still resident.
		sched.Run(proc, t1, func() cycles.Cost {
			c, err := mgr.VdrFree(t1)
			if err != nil {
				t.Errorf("vdr_free: %v", err)
			}
			return c
		})
	})
	env.Go("t2", func(proc *sim.Proc) {
		sched.Run(proc, t2, func() cycles.Cost {
			c, err := t2.Access(plain, false)
			if err != nil {
				t.Errorf("t2 access after t1 exit: %v", err)
			}
			return c
		})
	})
	env.Run()

	if got := mgr.VDROf(t1); got != nil {
		t.Fatalf("t1 still has a VDR after exit: %v", got)
	}
	// VdrFree reaps on the way out: only the home VDS remains.
	if got := len(mgr.VDSes()); got != 1 {
		t.Fatalf("the VDS t1 exited from was not reclaimed: %d VDSes remain", got)
	}
	// The exited thread can still run plain bursts on the base address
	// space.
	env2 := sim.NewEnv()
	sched2 := kernel.NewSched(env2, k)
	env2.Go("t1-again", func(proc *sim.Proc) {
		sched2.Run(proc, t1, func() cycles.Cost {
			c, err := t1.Access(plain, true)
			if err != nil {
				t.Errorf("t1 access after its VDS was reaped: %v", err)
			}
			return c
		})
	})
	env2.Run()
}

// TestSchedVDSSwitchUnderContention pins two threads, each in its own
// VDS, onto one capacity-1 core: their bursts serialize (queue wait
// accrues) and every alternation forces the dispatcher to reload the
// other thread's address space, so VDS/pgd switches accumulate.
func TestSchedVDSSwitchUnderContention(t *testing.T) {
	k, p, mgr := bootVDom(t, 1)
	env := sim.NewEnv()
	sched := kernel.NewSched(env, k)

	const rounds = 6
	tasks := make([]*kernel.Task, 2)
	doms := make([]core.VdomID, 2)
	for i := range tasks {
		tasks[i] = p.NewTask(0)
		base := pagetable.VAddr(0x40_0000 + uint64(i)*0x10_0000)
		if _, err := tasks[i].Mmap(base, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.VdrAlloc(tasks[i], 1); err != nil {
			t.Fatal(err)
		}
		doms[i], _ = mgr.AllocVdom(false)
		if _, err := mgr.Mprotect(tasks[i], base, 4*pg, doms[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Separate the threads into distinct VDSes so re-dispatch means a
	// full address-space change, not just a permission update.
	if _, err := mgr.PlaceInNewVDS(tasks[1]); err != nil {
		t.Fatal(err)
	}

	var busy [2]cycles.Cost
	for i := range tasks {
		i := i
		tk := tasks[i]
		base := pagetable.VAddr(0x40_0000 + uint64(i)*0x10_0000)
		env.Go([]string{"a", "b"}[i], func(proc *sim.Proc) {
			for r := 0; r < rounds; r++ {
				busy[i] += sched.Run(proc, tk, func() cycles.Cost {
					c, err := mgr.WrVdr(tk, doms[i], core.VPermReadWrite)
					if err != nil {
						t.Errorf("wrvdr: %v", err)
					}
					a, err := tk.Access(base, true)
					if err != nil {
						t.Errorf("access: %v", err)
					}
					c2, err := mgr.WrVdr(tk, doms[i], core.VPermNone)
					if err != nil {
						t.Errorf("wrvdr close: %v", err)
					}
					return c + a + c2
				})
			}
		})
	}
	makespan := env.Run()

	if sched.QueueWait(0) == 0 {
		t.Error("two threads on one core accrued no queue wait")
	}
	if got := mgr.Stats.VDSSwitches; got == 0 {
		t.Error("alternating threads in distinct VDSes recorded no VDS switches")
	}
	// One core serializes everything: the makespan is exactly the busy
	// cycles, queueing excluded.
	if want := uint64(busy[0] + busy[1]); uint64(makespan) != want {
		t.Errorf("makespan %d != total on-core cycles %d", makespan, want)
	}
	if cur := k.CurrentOn(0); cur != tasks[0] && cur != tasks[1] {
		t.Errorf("core 0 resident task is %v", cur)
	}
}

// snapHeader describes the bootVDom geometry to the snapshot layer, so
// Restore boots an identical system.
func snapHeader(cores int) replay.Header {
	pol := core.DefaultPolicy()
	h := replay.Header{
		Version: replay.FormatVersion, Kernel: replay.KernelVDom,
		Arch: "x86", Cores: cores, TLBCap: 256, Workload: "sched-test",
		Flags:          replay.HdrVDomKernel,
		FlushThreshold: pol.RangeFlushThresholdPages,
		Nas:            pol.DefaultNas,
	}
	if pol.SecureGate {
		h.Flags |= replay.HdrSecureGate
	}
	return h
}

// checkpoint round-trips the live system through the vdom-snap/v2
// container and restores it into a fresh System.
func checkpoint(t *testing.T, k *kernel.Kernel, p *kernel.Process, mgr *core.Manager) (*replay.System, map[uint64]*kernel.Task) {
	t.Helper()
	sys := &replay.System{Machine: k.Machine(), Kernel: k, Proc: p, Manager: mgr}
	st, err := snapshot.Capture(sys, snapHeader(k.Machine().NumCores()), 0, 0)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	st2, err := snapshot.Decode(snapshot.Encode(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sys2, tasks, err := snapshot.Restore(st2)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return sys2, tasks
}

// churnASID burns one ASID: it moves the task into a brand-new VDS
// (fresh ASID draw) and reaps the VDS it vacated.
func churnASID(t *testing.T, mgr *core.Manager, tk *kernel.Task) {
	t.Helper()
	if _, err := mgr.PlaceInNewVDS(tk); err != nil {
		t.Fatalf("place in new VDS: %v", err)
	}
	mgr.ReapVDSes()
}

// TestSchedASIDRolloverAcrossCheckpoint drives the ASID allocator to the
// brink of a generation rollover, checkpoints, and verifies the restored
// kernel rolls over at exactly the same allocation as the live one: the
// shrunken ASID limit, the next-ASID cursor, and the generation counters
// all survive the checkpoint/restore boundary.
func TestSchedASIDRolloverAcrossCheckpoint(t *testing.T) {
	const limit = tlb.ASID(6)
	boot := func() (*kernel.Kernel, *core.Manager, *kernel.Task) {
		k, p, mgr := bootVDom(t, 1)
		k.SetASIDLimit(limit)
		tk := p.NewTask(0)
		if _, err := tk.Mmap(0x50_0000, 4*pg, true); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.VdrAlloc(tk, 2); err != nil {
			t.Fatal(err)
		}
		return k, mgr, tk
	}

	// Probe run: learn how many VDS churns the first rollover takes.
	// The machine is deterministic, so a second boot replays exactly.
	pk, pmgr, ptk := boot()
	churns := 0
	for pk.ASIDRollovers() == 0 {
		churnASID(t, pmgr, ptk)
		churns++
		if churns > 1000 {
			t.Fatalf("no ASID rollover after %d churns at limit %d", churns, limit)
		}
	}

	// Real run: stop one churn short of the rollover and checkpoint there.
	k, mgr, tk := boot()
	p := tk.Process()
	for i := 0; i < churns-1; i++ {
		churnASID(t, mgr, tk)
	}
	if got := k.ASIDRollovers(); got != 0 {
		t.Fatalf("rolled over before the checkpoint: %d rollovers", got)
	}
	sys2, tasks2 := checkpoint(t, k, p, mgr)
	k2 := sys2.Kernel
	tk2 := tasks2[uint64(tk.TID())]
	if tk2 == nil {
		t.Fatalf("restored system lost task %d; have %v", tk.TID(), tasks2)
	}

	// One more churn on each side crosses the generation boundary —
	// in the live kernel and in the restored one, identically.
	churnASID(t, mgr, tk)
	churnASID(t, sys2.Manager, tk2)
	if k.ASIDRollovers() != 1 {
		t.Errorf("live kernel: want 1 rollover after the final churn, got %d", k.ASIDRollovers())
	}
	if k2.ASIDRollovers() != k.ASIDRollovers() {
		t.Errorf("restored kernel rolled over %d times, live kernel %d", k2.ASIDRollovers(), k.ASIDRollovers())
	}
	if k2.ASIDGeneration() != k.ASIDGeneration() {
		t.Errorf("ASID generation diverged across restore: %d vs %d", k2.ASIDGeneration(), k.ASIDGeneration())
	}
	if k2.LiveASIDCount() != k.LiveASIDCount() {
		t.Errorf("live-ASID count diverged across restore: %d vs %d", k2.LiveASIDCount(), k.LiveASIDCount())
	}
	// The restored task still runs against its post-rollover VDS.
	if _, err := tk2.Access(0x50_0000, true); err != nil {
		t.Errorf("restored task access after rollover: %v", err)
	}
}

// TestSchedThreadExitWhileCheckpointed checkpoints a system while a
// thread occupies its own VDS, lets the thread exit (reaping that VDS)
// on the live system, and then restores the checkpoint: the restored
// world must still hold the pre-exit state — VDS, VDR, and domain grant
// intact — and the restored thread must dispatch, run, and exit cleanly.
func TestSchedThreadExitWhileCheckpointed(t *testing.T) {
	k, p, mgr := bootVDom(t, 1)
	t1 := p.NewTask(0)
	const guarded = pagetable.VAddr(0x60_0000)
	if _, err := t1.Mmap(guarded, 4*pg, true); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.VdrAlloc(t1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.PlaceInNewVDS(t1); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.AllocVdom(false)
	if _, err := mgr.Mprotect(t1, guarded, 4*pg, d); err != nil {
		t.Fatal(err)
	}

	// Checkpoint with t1 alive in its own VDS...
	sys2, tasks2 := checkpoint(t, k, p, mgr)

	// ...then exit the thread on the live system: its VDS is reaped.
	if _, err := mgr.VdrFree(t1); err != nil {
		t.Fatal(err)
	}
	if got := len(mgr.VDSes()); got != 1 {
		t.Fatalf("live system: VDS not reclaimed after exit, %d remain", got)
	}

	// The checkpoint is unaffected by the later exit: the restored world
	// still has the thread in its VDS with the VDR held.
	t1r := tasks2[uint64(t1.TID())]
	if t1r == nil {
		t.Fatalf("restored system lost task %d", t1.TID())
	}
	mgr2 := sys2.Manager
	if got := len(mgr2.VDSes()); got != 2 {
		t.Fatalf("restored system: want the pre-exit 2 VDSes, have %d", got)
	}
	if mgr2.VDROf(t1r) == nil {
		t.Fatal("restored thread lost its VDR")
	}

	// The restored thread dispatches and runs against its domain grant...
	env := sim.NewEnv()
	sched := kernel.NewSched(env, sys2.Kernel)
	env.Go("t1-restored", func(proc *sim.Proc) {
		sched.Run(proc, t1r, func() cycles.Cost {
			c, err := mgr2.WrVdr(t1r, d, core.VPermReadWrite)
			if err != nil {
				t.Errorf("restored wrvdr: %v", err)
			}
			a, err := t1r.Access(guarded, true)
			if err != nil {
				t.Errorf("restored guarded access: %v", err)
			}
			return c + a
		})
		// ...and exits cleanly in the restored world too.
		sched.Run(proc, t1r, func() cycles.Cost {
			c, err := mgr2.VdrFree(t1r)
			if err != nil {
				t.Errorf("restored vdr_free: %v", err)
			}
			return c
		})
	})
	env.Run()
	if got := len(mgr2.VDSes()); got != 1 {
		t.Fatalf("restored system: VDS not reclaimed after the replayed exit, %d remain", got)
	}
}
