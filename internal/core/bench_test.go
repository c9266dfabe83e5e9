package core

import (
	"fmt"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
)

func benchFixture(b *testing.B, nas int) (*Manager, *kernel.Task, []VdomID, []pagetable.VAddr) {
	mach := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: 2, TLBCapacity: 4096})
	k := kernel.New(kernel.Config{Machine: mach, VDomEnabled: true})
	proc := k.NewProcess()
	m := Attach(proc, DefaultPolicy())
	task := proc.NewTask(0)
	if _, err := m.VdrAlloc(task, nas); err != nil {
		b.Fatal(err)
	}
	next := pagetable.VAddr(0x100000000)
	var doms []VdomID
	var bases []pagetable.VAddr
	for i := 0; i < 20; i++ {
		base := next
		next += 4 * pagetable.PMDSize
		if _, err := task.Mmap(base, pagetable.PageSize, true); err != nil {
			b.Fatal(err)
		}
		d, _ := m.AllocVdom(false)
		if _, err := m.Mprotect(task, base, pagetable.PageSize, d); err != nil {
			b.Fatal(err)
		}
		doms = append(doms, d)
		bases = append(bases, base)
	}
	return m, task, doms, bases
}

// BenchmarkWrVdrMapped measures the simulator's speed on the hot path: a
// permission flip on a resident vdom (the 104-virtual-cycle operation).
func BenchmarkWrVdrMapped(b *testing.B) {
	m, task, doms, _ := benchFixture(b, 2)
	if _, err := m.WrVdr(task, doms[0], VPermReadWrite); err != nil {
		b.Fatal(err)
	}
	perms := []VPerm{VPermRead, VPermReadWrite}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.WrVdr(task, doms[0], perms[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWrVdrEviction measures a full eviction+remap round per op.
func BenchmarkWrVdrEviction(b *testing.B) {
	m, task, doms, _ := benchFixture(b, 1)
	for _, d := range doms {
		if _, err := m.WrVdr(task, d, VPermReadWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := m.WrVdr(task, d, VPermNone); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := doms[i%len(doms)]
		if _, err := m.WrVdr(task, d, VPermReadWrite); err != nil {
			b.Fatal(err)
		}
		if _, err := m.WrVdr(task, d, VPermNone); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessWarm measures a fully warm protected access (TLB hit +
// domain check).
func BenchmarkAccessWarm(b *testing.B) {
	m, task, doms, bases := benchFixture(b, 2)
	if _, err := m.WrVdr(task, doms[0], VPermReadWrite); err != nil {
		b.Fatal(err)
	}
	if _, err := task.Access(bases[0], true); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := task.Access(bases[0], true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMprotect re-protects one resident area to its own vdom in a
// process with 16, 256 and 4096 mapped areas. The reassignment check
// walks only the protected range, so ns/op should not grow with the
// number of areas.
func BenchmarkMprotect(b *testing.B) {
	for _, areas := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("areas=%d", areas), func(b *testing.B) {
			mach := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: 2, TLBCapacity: 4096})
			k := kernel.New(kernel.Config{Machine: mach, VDomEnabled: true})
			proc := k.NewProcess()
			m := Attach(proc, DefaultPolicy())
			task := proc.NewTask(0)
			if _, err := m.VdrAlloc(task, 2); err != nil {
				b.Fatal(err)
			}
			base := pagetable.VAddr(0x100000000)
			var target pagetable.VAddr
			var owner VdomID
			for i := 0; i < areas; i++ {
				addr := base + pagetable.VAddr(2*i)*pagetable.PageSize
				if _, err := task.Mmap(addr, pagetable.PageSize, true); err != nil {
					b.Fatal(err)
				}
				d, _ := m.AllocVdom(false)
				if _, err := m.Mprotect(task, addr, pagetable.PageSize, d); err != nil {
					b.Fatal(err)
				}
				if i == areas/2 {
					target, owner = addr, d
				}
			}
			// Make the target page resident so every re-protect also
			// flushes its retagged translation.
			if _, err := m.WrVdr(task, owner, VPermReadWrite); err != nil {
				b.Fatal(err)
			}
			if _, err := task.Access(target, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Mprotect(task, target, pagetable.PageSize, owner); err != nil {
					b.Fatal(err)
				}
				// Re-protecting records the area in the VDT again; drop
				// the copy so the owner's chain stays one entry long.
				m.vdt.RemoveArea(owner, target, pagetable.PageSize)
			}
		})
	}
}
