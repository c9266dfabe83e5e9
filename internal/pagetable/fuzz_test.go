package pagetable

import "testing"

// fuzzAddr spreads a 16-bit tape argument over all four radix indices:
// four puds (including the top of the address space), eight pmds under
// each, 32 leaves under each pmd and 64 pages per leaf, both leaf edges
// included. Tapes therefore build many leaves, pmds and puds.
func fuzzAddr(hi, lo byte) VAddr {
	i3 := [4]uint64{0, 1, 256, 511}[hi>>6]
	i2 := uint64(hi >> 3 & 7)
	i1 := uint64(hi&7)<<2 | uint64(lo>>6)
	i0 := uint64(lo&63)<<3 | uint64(lo&63)>>3
	return VAddr(i3<<39 | i2<<30 | i1<<21 | i0<<12)
}

// leafTape returns a tape that materializes n distinct leaves (n ≤ 256),
// disabling every fourth one's PMD entry and unmapping every fifth page.
func leafTape(n int) []byte {
	var tape []byte
	for j := 0; j < n; j++ {
		hi := byte(j * 67) // odd multiplier: distinct hi for every j < 256
		lo := byte(j*13) & 63
		tape = append(tape, byte(j%2)*140, hi, lo) // Map (140%5 == 0, writable)
		if j%4 == 3 {
			tape = append(tape, 3, hi, lo) // DisablePMD
		}
		if j%5 == 4 {
			tape = append(tape, 1, hi, lo) // Unmap
		}
	}
	return tape
}

// FuzzTableOps drives a page table with an arbitrary operation tape of
// (op, addr-hi, addr-lo) triples and checks the structural invariants the
// rest of the system depends on.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 16, 16, 32, 255, 1, 9})
	f.Add([]byte{5, 4, 3, 2, 1, 0, 100, 200, 50, 60})
	for _, n := range []int{3, 5, 9, 65} { // across leaf-slab boundaries
		f.Add(leafTape(n))
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		pt := New()
		ref := map[VAddr]PTE{} // page → expected
		for i := 0; i+2 < len(tape); i += 3 {
			op, hi, lo := tape[i], tape[i+1], tape[i+2]
			a := fuzzAddr(hi, lo)
			switch op % 5 {
			case 0:
				pte := PTE{Frame: Frame(hi)<<8 | Frame(lo), Present: true,
					Writable: op&0x80 != 0, Pdom: Pdom(op % 16)}
				pt.Map(a, pte.Frame, pte.Writable, pte.Pdom)
				ref[a] = pte
			case 1:
				had := ref[a].Present
				delete(ref, a)
				if pt.Unmap(a) != had {
					t.Fatalf("Unmap(%#x) disagreement", uint64(a))
				}
			case 2:
				d := Pdom(op % 16)
				if pt.SetPdom(a, d) {
					e := ref[a]
					if !e.Present {
						t.Fatalf("SetPdom succeeded on absent page %#x", uint64(a))
					}
					e.Pdom = d
					ref[a] = e
				} else if ref[a].Present {
					t.Fatalf("SetPdom failed on present page %#x", uint64(a))
				}
			case 3:
				pt.DisablePMD(a)
			case 4:
				pt.EnablePMD(a)
			}
		}
		// Present() equals the reference count.
		if pt.Present() != len(ref) {
			t.Fatalf("Present = %d, ref = %d", pt.Present(), len(ref))
		}
		// The snapshot is a fixed point and reproduces every walk,
		// disabled PMD entries included.
		restored := roundTrip(t, pt)
		for a := range ref {
			if g, w := restored.Walk(a), pt.Walk(a); g != w {
				t.Fatalf("restored walk(%#x) = %+v, want %+v", uint64(a), g, w)
			}
		}
		// Every reference entry is found by a walk (modulo PMD
		// disables, which hide but never lose entries).
		for a, want := range ref {
			pt.EnablePMD(a) // unhide for verification
			wr := pt.Walk(a)
			if !wr.Present || wr.PTE != want {
				t.Fatalf("walk(%#x) = %+v, want %+v", uint64(a), wr, want)
			}
		}
	})
}
