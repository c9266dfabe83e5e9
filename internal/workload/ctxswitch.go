package workload

import (
	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/replay"
)

// CtxSwitchCycles measures §7.5's context-switch costs on one
// architecture: the vanilla kernel's switch_mm, the VDom kernel's
// switch_mm for processes not using VDom, and the average switch to a task
// running in a VDS (which carries the extra metadata maintenance).
func CtxSwitchCycles(arch cycles.Arch) (vanilla, vdomProc, vdsSwitch float64) {
	measure := func(vdomOn, vds bool) float64 {
		spec := backend.Spec{Arch: arch, Cores: 1, VDomKernel: vdomOn, Policy: core.DefaultPolicy()}
		sys := backend.BootSubstrate(spec)
		k := sys.Kernel
		sys.Proc = k.NewProcess()
		t1, t2 := sys.Proc.NewTask(0), sys.Proc.NewTask(0)
		if vds {
			// The manager attaches after the tasks exist.
			vdomBackend, _ := backend.Get(replay.KernelVDom)
			if err := vdomBackend.Attach(sys, spec); err != nil {
				panic(err)
			}
			mgr := sys.Manager
			if _, err := mgr.VdrAlloc(t1, 2); err != nil {
				panic(err)
			}
			if _, err := mgr.VdrAlloc(t2, 2); err != nil {
				panic(err)
			}
		}
		var total cycles.Cost
		const n = 128
		for i := 0; i < n; i++ {
			total += k.SwitchMMCost(t1)
			total += k.SwitchMMCost(t2)
		}
		return float64(total) / (2 * n)
	}
	vanilla = measure(false, false)
	vdomProc = measure(true, false)
	vdsSwitch = measure(true, true)
	return
}
