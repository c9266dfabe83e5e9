package pagetable

import (
	"strconv"
	"testing"
)

func BenchmarkWalkPresent(b *testing.B) {
	pt := New()
	pt.Map(0x40000000, 1, true, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(0x40000000)
	}
}

func BenchmarkMapNewPages(b *testing.B) {
	pt := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Map(VAddr(uint64(i)<<PageShift), Frame(i), true, 2)
	}
}

func BenchmarkEvictRange2MB(b *testing.B) {
	pt := New()
	base := VAddr(0x40000000)
	for off := uint64(0); off < PMDSize; off += PageSize {
		pt.Map(base+VAddr(off), Frame(off/PageSize), true, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.EvictRange(base, PMDSize, 1)
		pt.RemapRange(base, PMDSize, 4)
	}
}

func BenchmarkRetagRange64Pages(b *testing.B) {
	pt := New()
	base := VAddr(0x40000000)
	for i := 0; i < 64; i++ {
		pt.Map(base+VAddr(i*PageSize), Frame(i), true, 4)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.RetagRange(base, 64*PageSize, Pdom(2+i%2))
	}
}

// BenchmarkMaterializeLeaves builds a fresh table with n leaves spread
// over two puds and two pmds under each, one page mapped per leaf.
func BenchmarkMaterializeLeaves(b *testing.B) {
	for _, n := range []int{1, 16, 256} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pt := New()
				for j := 0; j < n; j++ {
					pt.Map(slabLeafAddr(j), Frame(j), true, 1)
				}
				tableSink = pt
			}
		})
	}
}

// BenchmarkPopulateLeaf builds a fresh table and populates one full
// 2 MiB leaf, as every Table-4 domain's setup does.
func BenchmarkPopulateLeaf(b *testing.B) {
	frames := make([]Frame, EntriesPerTable)
	alloc := func(n int) Frame { return 1 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pt := New()
		pt.PopulateChunk(0x40000000, EntriesPerTable, true, 3, alloc, frames)
		tableSink = pt
	}
}

// BenchmarkWalkRunLeaf walks DPTI's leaf shape: four single pages a
// quarter of the leaf apart, each demand-faulted on its own.
func BenchmarkWalkRunLeaf(b *testing.B) {
	pt := New()
	base := VAddr(0x40000000)
	var addrs [4]VAddr
	for k := range addrs {
		addrs[k] = base + VAddr(k*EntriesPerTable/4)<<PageShift
		pt.Map(addrs[k], Frame(100+k), true, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walkSink = pt.Walk(addrs[i&3])
	}
}

var walkSink WalkResult
