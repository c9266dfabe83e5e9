package mm

import (
	"bytes"
	"errors"
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
		as.Shadow().Pages(func(a pagetable.VAddr, _ pagetable.PTE) bool {
			if as.FindVMA(a) == nil {
				bad = true
			}
			return true
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

// tagResolver is a tag-aware resolver for the Populate differential:
// every table maps tag g to pdom 2+g%14, except that the registered VDS
// table refuses tags ≡ 2 (mod 3), which it must install access-never.
type tagResolver struct{ vds *pagetable.Table }

func (r tagResolver) PdomFor(t *pagetable.Table, tag Tag) (pagetable.Pdom, bool) {
	if t == r.vds && tag%3 == 2 {
		return 0, false
	}
	return pagetable.Pdom(2 + tag%14), true
}

func (tagResolver) AccessNever() pagetable.Pdom { return 1 }

// populateTwin is one side of the Populate differential: a machine, its
// address space and one registered non-shadow table.
type populateTwin struct {
	m   *hw.Machine
	as  *AddressSpace
	vds *pagetable.Table
}

func newPopulateTwin() populateTwin {
	m := hw.NewMachine(hw.Config{Arch: cycles.X86, NumCores: 1, TLBCapacity: 64})
	as := NewAddressSpace(m)
	vds := pagetable.New()
	as.RegisterTable(vds)
	as.SetResolver(tagResolver{vds})
	return populateTwin{m: m, as: as, vds: vds}
}

// image is the twin's whole state: the address space (areas and every
// table, counters and generations included) and the machine (frame
// watermark and per-core state).
func (p populateTwin) image() []byte {
	b := p.as.AppendState(nil)
	return p.m.AppendState(b, func(t *pagetable.Table) int {
		switch t {
		case p.as.Shadow():
			return 0
		case p.vds:
			return 1
		}
		return -1
	})
}

// populateByFaults is the reference Populate: one read fault per page
// through HandleFault, stopping at the first error.
func populateByFaults(as *AddressSpace, t *pagetable.Table, start pagetable.VAddr, length uint64) (int, error) {
	if err := checkRange(start, length); err != nil {
		return 0, err
	}
	fresh := 0
	for off := uint64(0); off < length; off += pg {
		fix, err := as.HandleFault(t, start+pagetable.VAddr(off), false)
		if err != nil {
			return fresh, err
		}
		if fix.FreshFrame {
			fresh++
		}
	}
	return fresh, nil
}

// Populate-tape operations, selected by op % popOps; arg = op / popOps
// carries a flag (arg&1: read-only area, read-only mprotect, or the VDS
// table rather than the shadow) and a tag (arg>>1).
const (
	popMmap byte = iota
	popSetTag
	popMprotect
	popPopulate
	popDisablePMD
	popMunmap
	popOps
)

// popStep appends one Populate-tape triple: operation kind with argument
// arg over pages [8*at, 8*at+6*n).
func popStep(tape []byte, kind, arg, at, n byte) []byte {
	return append(tape, kind+arg*popOps, at, n)
}

// populateTapes are seeds for FuzzPopulate: a populate crossing a VMA
// boundary (and a 2 MiB one) and running off the last area, a populate
// of the VDS table under a tag its resolver refuses, and populates over
// present pages whose write-protect bit went stale on an mprotect
// upgrade, one of them under a disabled PMD entry.
func populateTapes() [][]byte {
	var cross, refused, stale []byte
	cross = popStep(cross, popMmap, 0, 0, 80)      // pages [0, 480), writable
	cross = popStep(cross, popMmap, 1, 60, 80)     // pages [480, 960), read-only
	cross = popStep(cross, popSetTag, 10, 0, 80)   // tag 5
	cross = popStep(cross, popSetTag, 14, 60, 80)  // tag 7
	cross = popStep(cross, popPopulate, 1, 2, 150) // VDS, [16, 916)
	cross = popStep(cross, popPopulate, 0, 0, 160) // shadow, [0, 960)
	cross = popStep(cross, popPopulate, 1, 0, 200) // VDS, runs off the end

	refused = popStep(refused, popMmap, 0, 0, 100)   // pages [0, 600)
	refused = popStep(refused, popSetTag, 4, 0, 100) // tag 2: the VDS refuses it
	refused = popStep(refused, popPopulate, 1, 10, 60)
	refused = popStep(refused, popPopulate, 0, 0, 100)
	refused = popStep(refused, popPopulate, 1, 0, 100)

	stale = popStep(stale, popMmap, 0, 0, 90)      // pages [0, 540), writable
	stale = popStep(stale, popPopulate, 0, 0, 90)  // shadow
	stale = popStep(stale, popPopulate, 1, 0, 20)  // VDS, [0, 120)
	stale = popStep(stale, popMprotect, 1, 4, 70)  // read-only [32, 452)
	stale = popStep(stale, popMprotect, 0, 4, 70)  // writable again, lazily
	stale = popStep(stale, popPopulate, 1, 0, 90)  // VDS repairs via the shadow
	stale = popStep(stale, popMprotect, 1, 60, 10) // read-only [480, 540)
	stale = popStep(stale, popMprotect, 0, 60, 10)
	stale = popStep(stale, popDisablePMD, 0, 64, 0) // shadow PMD entry of [512, 1024)
	stale = popStep(stale, popPopulate, 0, 0, 90)   // shadow
	return [][]byte{cross, refused, stale}
}

// FuzzPopulate drives two identical machines with an address-space tape
// and checks Populate, on the shadow and on a registered VDS table,
// against a HandleFault loop: the same fresh-frame count, the same error
// class, and byte-identical address-space and machine state after every
// op.
func FuzzPopulate(f *testing.F) {
	for _, tape := range populateTapes() {
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		fast, slow := newPopulateTwin(), newPopulateTwin()
		for i := 0; i+2 < len(tape); i += 3 {
			op, at, n := tape[i], tape[i+1], tape[i+2]
			arg := op / popOps
			flag, tag := arg&1 != 0, Tag(arg>>1)
			start := pagetable.VAddr(uint64(at) * 8 * pg)
			length := uint64(n) * 6 * pg
			for _, p := range []populateTwin{fast, slow} {
				switch op % popOps {
				case popMmap:
					p.as.Mmap(start, length, !flag)
				case popSetTag:
					p.as.SetTag(start, length, tag)
				case popMprotect:
					p.as.Mprotect(start, length, !flag)
				case popDisablePMD:
					if flag {
						p.vds.DisablePMD(start)
					} else {
						p.as.Shadow().DisablePMD(start)
					}
				case popMunmap:
					p.as.Munmap(start, length)
				}
			}
			if op%popOps == popPopulate {
				ft, st := fast.as.Shadow(), slow.as.Shadow()
				if flag {
					ft, st = fast.vds, slow.vds
				}
				got, gerr := fast.as.Populate(ft, start, length)
				want, werr := populateByFaults(slow.as, st, start, length)
				if got != want || (gerr == nil) != (werr == nil) ||
					errors.Is(gerr, ErrSegfault) != errors.Is(werr, ErrSegfault) ||
					errors.Is(gerr, ErrBadRange) != errors.Is(werr, ErrBadRange) {
					t.Fatalf("op %d: Populate = %d, %v; fault loop = %d, %v", i/3, got, gerr, want, werr)
				}
			}
			if !bytes.Equal(fast.image(), slow.image()) {
				t.Fatalf("op %d: state differs from the fault-loop twin", i/3)
			}
		}
	})
}
