package tlb

import (
	"fmt"
	"testing"
)

func BenchmarkLookupHit(b *testing.B) {
	c := New(DefaultCapacity)
	for vpn := uint64(0); vpn < 512; vpn++ {
		c.Insert(mk(1, vpn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1, uint64(i)%512)
	}
}

func BenchmarkInsertWithEviction(b *testing.B) {
	c := New(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(mk(1, uint64(i)))
	}
}

// BenchmarkInsertCold measures a boot's cost per TLB: a fresh TLB and
// its first 64 inserts.
func BenchmarkInsertCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := New(DefaultCapacity)
		for vpn := uint64(0); vpn < 64; vpn++ {
			c.Insert(mk(1, vpn))
		}
	}
}

func BenchmarkSetAssocLookupHit(b *testing.B) {
	c := NewSetAssoc(128, 8)
	for vpn := uint64(0); vpn < 512; vpn++ {
		c.Insert(mk(1, vpn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(1, uint64(i)%512)
	}
}

// BenchmarkFlushASID flushes ASID 1 out of a full DefaultCapacity TLB
// and refills its slots, once with 8 of the entries (sparse) and once
// with two thirds of them (dense). The fill puts entry k in slot k, and
// each refill aims the clock hand at the flushed slot, so every
// iteration starts from the same full layout.
func BenchmarkFlushASID(b *testing.B) {
	for _, tc := range []struct {
		name string
		in   func(k int) bool
	}{
		{"sparse", func(k int) bool { return k%(DefaultCapacity/8) == 0 }},
		{"dense", func(k int) bool { return k%3 != 0 }},
	} {
		c := New(DefaultCapacity)
		var flushed []int
		for k := range DefaultCapacity {
			a := ASID(2)
			if tc.in(k) {
				a = 1
				flushed = append(flushed, k)
			}
			c.Insert(mk(a, uint64(k)))
		}
		b.Run(fmt.Sprintf("%s-%d", tc.name, len(flushed)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.FlushASID(1)
				for _, k := range flushed {
					c.hand = k
					c.Insert(mk(1, uint64(k)))
				}
			}
			if c.Len() != DefaultCapacity {
				b.Fatalf("Len = %d, want a full TLB", c.Len())
			}
		})
	}
}
