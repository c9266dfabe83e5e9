package mm

import (
	"slices"
	"testing"

	"vdom/internal/cycles"
	"vdom/internal/hw"
	"vdom/internal/pagetable"
)

// FuzzAddressSpaceOps drives mmap/munmap/mprotect/touch tapes and checks
// that the VMA tree stays overlap-free and consistent with access
// behaviour.
func FuzzAddressSpaceOps(f *testing.F) {
	f.Add([]byte{0, 10, 4, 1, 10, 2, 2, 11, 0})
	f.Add([]byte{0, 0, 8, 0, 4, 2, 1, 2, 2, 3, 1, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		m := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: 1, TLBCapacity: 64})
		as := NewAddressSpace(m)
		for i := 0; i+2 < len(tape); i += 3 {
			op := tape[i] % 4
			startPg := uint64(tape[i+1]) % 128
			lenPg := uint64(tape[i+2])%16 + 1
			start := pagetable.VAddr(startPg * pg)
			length := lenPg * pg
			switch op {
			case 0:
				as.Mmap(start, length, true) // may ErrOverlap; fine
			case 1:
				as.Munmap(start, length)
			case 2:
				as.Mprotect(start, length, tape[i+2]&1 == 0)
			case 3:
				as.HandleFault(as.Shadow(), start, false)
			}
			// Invariant: areas never overlap and iterate in order.
			var prevEnd pagetable.VAddr
			ok := true
			as.vmas.All(func(v *VMA) bool {
				if v.Start < prevEnd {
					ok = false
					return false
				}
				if v.Length == 0 || v.Length%pg != 0 {
					ok = false
					return false
				}
				prevEnd = v.End()
				return true
			})
			if !ok {
				t.Fatal("VMA tree invariant violated")
			}
			// A window from the tape (possibly empty, inverted or not
			// page-aligned): VMAsIn yields exactly the intersecting
			// areas of the full walk, in order, as the same pointers.
			wStart := pagetable.VAddr(uint64(tape[i+2])%144*pg + uint64(tape[i]>>2)%2*(pg/2))
			wEnd := pagetable.VAddr(uint64(tape[i+1]^tape[i])%144*pg + uint64(tape[i]>>3)%2*(pg/2))
			if got, want := rangeVMAs(as, wStart, wEnd), filterVMAs(as, wStart, wEnd); !slices.Equal(got, want) {
				t.Fatalf("VMAsIn(%#x, %#x) = %v, want %v", uint64(wStart), uint64(wEnd), got, want)
			}
		}
		// Every present shadow page must fall inside some VMA.
		bad := false
		as.Shadow().Pages(func(a pagetable.VAddr, _ pagetable.PTE) {
			if as.FindVMA(a) == nil {
				bad = true
			}
		})
		if bad {
			t.Fatal("present page outside any VMA")
		}
	})
}

// rangeVMAs collects the areas VMAsIn visits for [start, end).
func rangeVMAs(as *AddressSpace, start, end pagetable.VAddr) []*VMA {
	var out []*VMA
	as.VMAsIn(start, end, func(v *VMA) bool {
		out = append(out, v)
		return true
	})
	return out
}

// filterVMAs is the reference for rangeVMAs: the full walk filtered by
// intersection with [start, end), which is empty when start >= end.
func filterVMAs(as *AddressSpace, start, end pagetable.VAddr) []*VMA {
	var out []*VMA
	as.vmas.All(func(v *VMA) bool {
		if start < end && v.Start < end && v.End() > start {
			out = append(out, v)
		}
		return true
	})
	return out
}
