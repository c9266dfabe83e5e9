package core

import (
	"errors"
	"slices"
	"testing"

	"vdom/internal/kernel"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/tlb"
)

// reassignAreas is the size of the reassignment fixture: enough areas
// that the check's window sits deep inside a multi-level VMA tree.
const reassignAreas = 300

// reassignAreaPages is the length of every fixture area, in pages.
const reassignAreaPages = 4

// areaAt returns the start of fixture area i; areas are laid out back to
// back, so area i ends exactly where area i+1 begins.
func areaAt(i int) pagetable.VAddr {
	return 0x100000000 + pagetable.VAddr(i*reassignAreaPages*pg)
}

// TestMprotectReassignWindow drives the §7.2 reassignment check over a
// process with reassignAreas adjacent areas: every even area belongs to
// its own live vdom and every odd area is untagged. Each case protects a
// window to a vdom and names the area the check must reject, or none.
func TestMprotectReassignWindow(t *testing.T) {
	const k = 200 // an even (live-owned) area deep in the tree
	cases := []struct {
		name string
		// prep adjusts the fixture and returns the vdom to protect to.
		prep       func(f *fixture, owners []VdomID) VdomID
		start, end pagetable.VAddr
		// wantErr is the exact error text, or "" when the call succeeds.
		wantErr string
	}{
		{
			name:    "live area straddles start",
			start:   areaAt(k) + 2*pg,
			end:     areaAt(k + 2),
			wantErr: "core: area already assigned to another vdom: vdom 101 owns [0x100320000,0x100324000) rw tag=101",
		},
		{
			name:    "live area straddles end",
			start:   areaAt(k + 1),
			end:     areaAt(k+2) + 2*pg,
			wantErr: "core: area already assigned to another vdom: vdom 102 owns [0x100328000,0x10032c000) rw tag=102",
		},
		{
			name:  "live areas exactly adjacent on both sides",
			start: areaAt(k + 1),
			end:   areaAt(k + 2),
		},
		{
			name: "sealed area inside the window",
			prep: func(f *fixture, _ []VdomID) VdomID {
				if _, err := f.proc.AS().SetTag(areaAt(k+1), reassignAreaPages*pg, SealTag); err != nil {
					t.Fatal(err)
				}
				d, _ := f.m.AllocVdom(false)
				return d
			},
			start:   areaAt(k+1) + pg,
			end:     areaAt(k+1) + 2*pg,
			wantErr: "core: area already assigned to another vdom: vdom 18446744073709551615 owns [0x100324000,0x100328000) rw tag=18446744073709551615",
		},
		{
			name: "owner freed",
			prep: func(f *fixture, owners []VdomID) VdomID {
				if _, err := f.m.FreeVdom(owners[k]); err != nil {
					t.Fatal(err)
				}
				d, _ := f.m.AllocVdom(false)
				return d
			},
			start: areaAt(k - 1),
			end:   areaAt(k + 2),
		},
		{
			name:  "re-protect to the same vdom",
			prep:  func(_ *fixture, owners []VdomID) VdomID { return owners[k] },
			start: areaAt(k - 1),
			end:   areaAt(k + 2),
		},
		{
			name:    "two conflicts name the lower area",
			start:   areaAt(k + 1),
			end:     areaAt(k + 5),
			wantErr: "core: area already assigned to another vdom: vdom 102 owns [0x100328000,0x10032c000) rw tag=102",
		},
		{
			// An empty range assigns no memory, so no owner conflicts
			// with it; the address space rejects it as empty.
			name:    "empty range inside a live area",
			start:   areaAt(k) + pg,
			end:     areaAt(k) + pg,
			wantErr: "mm: bad range: empty tag range",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := x86Fixture(t)
			task := f.proc.NewTask(0)
			owners := make([]VdomID, reassignAreas)
			for i := 0; i < reassignAreas; i++ {
				if _, err := task.Mmap(areaAt(i), reassignAreaPages*pg, true); err != nil {
					t.Fatal(err)
				}
				if i%2 != 0 {
					continue
				}
				owners[i], _ = f.m.AllocVdom(false)
				if _, err := f.m.Mprotect(task, areaAt(i), reassignAreaPages*pg, owners[i]); err != nil {
					t.Fatal(err)
				}
			}
			if n := f.proc.AS().NumVMAs(); n != reassignAreas {
				t.Fatalf("fixture has %d areas, want %d", n, reassignAreas)
			}
			var d VdomID
			if c.prep != nil {
				d = c.prep(f, owners)
			} else {
				d, _ = f.m.AllocVdom(false)
			}
			_, err := f.m.Mprotect(task, c.start, uint64(c.end-c.start), d)
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Fatalf("Mprotect = %v, want %q", err, c.wantErr)
				}
				want := ErrReassign
				if c.start == c.end {
					want = mm.ErrBadRange
				}
				if !errors.Is(err, want) {
					t.Errorf("Mprotect = %v, want %v", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("Mprotect = %v, want success", err)
			}
			f.proc.AS().VMAsIn(c.start, c.end, func(v *mm.VMA) bool {
				if VdomID(v.Tag) != d {
					t.Errorf("area %v not retagged to vdom %d", v, d)
				}
				return true
			})
		})
	}
}

// TestFlushRetaggedWarmAllocFree pins the retag flush to zero heap
// allocations once warm, and its ASID list, which fixes the order of the
// per-core flushes, to the first-seen order of a map-based
// de-duplication.
func TestFlushRetaggedWarmAllocFree(t *testing.T) {
	f := x86Fixture(t)
	var tasks []*kernel.Task
	for core := 0; core < 3; core++ {
		task := f.proc.NewTask(core)
		if _, err := f.m.VdrAlloc(task, 2); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, task)
	}
	_, base := f.newVdomRegion(t, tasks[0], 4, false)
	flush := func() { f.m.flushRetagged(tasks[0], base, 4*pg) }

	if allocs := testing.AllocsPerRun(100, flush); allocs != 0 {
		t.Errorf("warm flushRetagged allocates %v objects per call, want 0", allocs)
	}

	seen := map[tlb.ASID]bool{}
	var want []tlb.ASID
	add := func(a tlb.ASID) {
		if !seen[a] {
			seen[a] = true
			want = append(want, a)
		}
	}
	for _, task := range f.proc.Tasks() {
		add(task.BaseASID())
		add(task.ASID())
	}
	for _, vds := range f.m.vdses {
		add(vds.asid)
	}
	if len(want) < 2 || !slices.Equal(f.m.retagASIDs, want) {
		t.Errorf("flushed ASIDs = %v, want first-seen order %v", f.m.retagASIDs, want)
	}
}
