package mm

import (
	"sort"
	"testing"
	"testing/quick"

	"vdom/internal/pagetable"
)

const pg = pagetable.PageSize

func v(startPage, pages int) *VMA {
	return &VMA{Start: pagetable.VAddr(startPage * pg), Length: uint64(pages * pg), Writable: true}
}

func TestTreeInsertFind(t *testing.T) {
	var tr Tree
	tr.Insert(v(10, 4))
	tr.Insert(v(2, 2))
	tr.Insert(v(30, 1))
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	if got := tr.Find(11 * pg); got == nil || got.Start != 10*pg {
		t.Errorf("Find(11 pages) = %v", got)
	}
	if got := tr.Find(14 * pg); got != nil {
		t.Errorf("Find in gap = %v, want nil", got)
	}
	if got := tr.Find(0); got != nil {
		t.Errorf("Find before all = %v, want nil", got)
	}
	if got := tr.Find(2 * pg); got == nil || got.Start != 2*pg {
		t.Errorf("Find at exact start = %v", got)
	}
}

func TestTreeDelete(t *testing.T) {
	var tr Tree
	for i := 0; i < 20; i++ {
		tr.Insert(v(i*10, 1))
	}
	if !tr.Delete(50 * pg) {
		t.Fatal("Delete existing returned false")
	}
	if tr.Delete(50 * pg) {
		t.Fatal("double Delete returned true")
	}
	if tr.Len() != 19 {
		t.Errorf("Len = %d, want 19", tr.Len())
	}
	if tr.Find(50*pg) != nil {
		t.Error("deleted VMA still findable")
	}
	if tr.Find(60*pg) == nil || tr.Find(40*pg) == nil {
		t.Error("neighbours of deleted VMA lost")
	}
}

func TestTreeDeleteAll(t *testing.T) {
	var tr Tree
	for i := 0; i < 50; i++ {
		tr.Insert(v(i*2, 1))
	}
	for i := 0; i < 50; i++ {
		if !tr.Delete(pagetable.VAddr(i * 2 * pg)) {
			t.Fatalf("Delete #%d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after deleting all", tr.Len())
	}
}

func TestTreeDuplicateInsertPanics(t *testing.T) {
	var tr Tree
	tr.Insert(v(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("duplicate Insert did not panic")
		}
	}()
	tr.Insert(v(1, 2))
}

func TestTreeRange(t *testing.T) {
	var tr Tree
	// Areas: [10,14), [20,22), [22,24), [30,31) in pages; the middle two
	// touch.
	tr.Insert(v(10, 4))
	tr.Insert(v(20, 2))
	tr.Insert(v(22, 2))
	tr.Insert(v(30, 1))
	collect := func(s, e int) []int {
		var got []int
		tr.Range(pagetable.VAddr(s*pg), pagetable.VAddr(e*pg), func(m *VMA) bool {
			got = append(got, int(m.Start/pg))
			return true
		})
		return got
	}
	cases := []struct {
		s, e int
		want []int
	}{
		{0, 5, nil},
		{0, 100, []int{10, 20, 22, 30}},
		{12, 21, []int{10, 20}}, // starts inside first, ends inside second
		{14, 20, nil},           // exactly the gap, adjacent on both sides
		{13, 14, []int{10}},
		{30, 31, []int{30}},
		{31, 40, nil},
		{12, 12, nil}, // empty
		{21, 11, nil}, // inverted
		{21, 22, []int{20}},
		{22, 24, []int{22}}, // starts where a touching area ends
		{21, 23, []int{20, 22}},
		{24, 30, nil}, // adjacent on both sides
	}
	for _, c := range cases {
		got := collect(c.s, c.e)
		if len(got) != len(c.want) {
			t.Errorf("Range(%d,%d) = %v, want %v", c.s, c.e, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Range(%d,%d) = %v, want %v", c.s, c.e, got, c.want)
				break
			}
		}
	}
}

func TestTreeRangeEarlyStop(t *testing.T) {
	var tr Tree
	for i := 0; i < 10; i++ {
		tr.Insert(v(i*2, 1))
	}
	n := 0
	tr.Range(0, pagetable.VAddr(100*pg), func(*VMA) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestTreeAllAscending(t *testing.T) {
	var tr Tree
	starts := []int{50, 10, 30, 20, 40, 0, 60}
	for _, s := range starts {
		tr.Insert(v(s, 1))
	}
	var got []int
	tr.All(func(m *VMA) bool {
		got = append(got, int(m.Start/pg))
		return true
	})
	if !sort.IntsAreSorted(got) {
		t.Errorf("All order = %v, not ascending", got)
	}
	if len(got) != len(starts) {
		t.Errorf("All visited %d, want %d", len(got), len(starts))
	}
}

// Property: the tree agrees with a reference map under random insert/delete
// sequences, and Find honours interval containment.
func TestTreeMatchesReferenceProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(func(ops []uint16) bool {
		var tr Tree
		ref := map[pagetable.VAddr]*VMA{}
		for _, op := range ops {
			// Non-overlapping by construction: each slot is 1 page
			// at a distinct page index.
			start := pagetable.VAddr(uint64(op%512) * pg)
			if op&0x8000 == 0 {
				if _, ok := ref[start]; !ok {
					m := &VMA{Start: start, Length: pg}
					tr.Insert(m)
					ref[start] = m
				}
			} else {
				had := ref[start] != nil
				delete(ref, start)
				if tr.Delete(start) != had {
					return false
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		for start := range ref {
			got := tr.Find(start + pg/2)
			if got == nil || got.Start != start {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestVMAHelpers(t *testing.T) {
	m := &VMA{Start: 0x4000, Length: 2 * pg, Writable: false, Tag: 7}
	if m.End() != 0x4000+2*pg {
		t.Errorf("End = %#x", uint64(m.End()))
	}
	if !m.Contains(0x4000) || !m.Contains(m.End()-1) || m.Contains(m.End()) {
		t.Error("Contains boundary conditions wrong")
	}
	if m.Pages() != 2 {
		t.Errorf("Pages = %d", m.Pages())
	}
	if m.String() == "" {
		t.Error("String empty")
	}
}
