package mm

import (
	"errors"
	"fmt"

	"vdom/internal/hw"
	"vdom/internal/pagetable"
	"vdom/internal/tap"
)

// Common errors returned by address-space operations.
var (
	ErrOverlap   = errors.New("mm: mapping overlaps an existing area")
	ErrNoMapping = tap.NewOutcome(tap.CodeNoMapping, "mm: address not mapped")
	ErrSegfault  = errors.New("mm: segmentation fault")
	// ErrBadRange marks a misaligned or empty address range (EINVAL).
	ErrBadRange = tap.NewOutcome(tap.CodeBadRange, "mm: bad range")
)

// DomainResolver tells the memory manager which hardware domain a tagged
// page should carry in a given page table. The VDom core implements it
// with per-VDS domain maps; untagged pages always resolve to pdom 0.
type DomainResolver interface {
	// PdomFor returns the hardware domain for tag in table t. ok=false
	// means the tag is not mapped in that address space and the page
	// must be installed with the access-never domain.
	PdomFor(t *pagetable.Table, tag Tag) (pdom pagetable.Pdom, ok bool)
	// AccessNever returns the reserved access-never pdom.
	AccessNever() pagetable.Pdom
}

type defaultResolver struct{}

func (defaultResolver) PdomFor(*pagetable.Table, Tag) (pagetable.Pdom, bool) { return 0, true }
func (defaultResolver) AccessNever() pagetable.Pdom                          { return 1 }

// SyncReport aggregates the structural work of an eager synchronization so
// the kernel layer can charge cycles and issue shootdowns.
type SyncReport struct {
	PTEWrites     uint64
	PMDWrites     uint64
	PagesTouched  int
	TablesTouched int
}

func (r *SyncReport) add(o SyncReport) {
	r.PTEWrites += o.PTEWrites
	r.PMDWrites += o.PMDWrites
	r.PagesTouched += o.PagesTouched
	if o.TablesTouched > r.TablesTouched {
		r.TablesTouched = o.TablesTouched
	}
}

// AddressSpace is the process-wide view of virtual memory: one VMA tree and
// one shadow page table shared by every VDS, plus the set of live VDS page
// tables that must be kept consistent (paper: "we decide to use
// [mm_struct] for all VDSes ... only page tables require extra
// synchronization").
type AddressSpace struct {
	machine  *hw.Machine
	vmas     Tree
	shadow   *pagetable.Table
	tables   []*pagetable.Table // VDS tables, excluding the shadow
	resolver DomainResolver

	// lastFind memoizes the most recent VMA lookup. Fault storms and
	// populate loops touch the same area repeatedly, so one containment
	// check usually replaces a tree descent. The memo stays correct
	// without explicit invalidation on splits (the containment check
	// re-reads the live Start/Length); only deletion must forget it.
	lastFind *VMA

	// frameScratch backs Populate's chunked fast path (one 2 MiB run of
	// frames at a time); contents are dead between calls.
	frameScratch [pagetable.PMDSize / pagetable.PageSize]pagetable.Frame
}

// NewAddressSpace creates an empty address space on the machine.
func NewAddressSpace(m *hw.Machine) *AddressSpace {
	return &AddressSpace{
		machine:  m,
		shadow:   pagetable.New(),
		resolver: defaultResolver{},
	}
}

// SetResolver installs the domain resolver (the VDom core).
func (as *AddressSpace) SetResolver(r DomainResolver) { as.resolver = r }

// Shadow returns the per-process shadow page table.
func (as *AddressSpace) Shadow() *pagetable.Table { return as.shadow }

// Tables returns the registered VDS page tables (not the shadow).
func (as *AddressSpace) Tables() []*pagetable.Table { return as.tables }

// NumTables returns the number of registered VDS tables.
func (as *AddressSpace) NumTables() int { return len(as.tables) }

// RegisterTable adds a VDS page table to the synchronization set. New
// tables start empty; demand paging fills them on first touch.
func (as *AddressSpace) RegisterTable(t *pagetable.Table) {
	as.tables = append(as.tables, t)
}

// UnregisterTable removes a VDS page table from the synchronization set.
func (as *AddressSpace) UnregisterTable(t *pagetable.Table) {
	for i, x := range as.tables {
		if x == t {
			as.tables = append(as.tables[:i], as.tables[i+1:]...)
			return
		}
	}
}

// FindVMA returns the area containing a, or nil.
func (as *AddressSpace) FindVMA(a pagetable.VAddr) *VMA {
	if v := as.lastFind; v != nil && v.Contains(a) {
		return v
	}
	v := as.vmas.Find(a)
	if v != nil {
		as.lastFind = v
	}
	return v
}

// forget drops the find memo if it points at v (called before v is
// deleted from the tree).
func (as *AddressSpace) forget(v *VMA) {
	if as.lastFind == v {
		as.lastFind = nil
	}
}

// VMAsIn calls fn, in ascending order, for every area intersecting
// [start, end); returning false stops the walk. The cost is O(log n + k)
// for k visited areas, so per-operation paths use it instead of a full
// walk.
func (as *AddressSpace) VMAsIn(start, end pagetable.VAddr, fn func(*VMA) bool) {
	as.vmas.Range(start, end, fn)
}

// NumVMAs returns the number of areas.
func (as *AddressSpace) NumVMAs() int { return as.vmas.Len() }

// EmitMetrics publishes address-space counters: lifetime PTE/PMD writes
// summed over the shadow and every registered VDS table (pagetable/
// prefix) plus area and table population (mm/ prefix). See
// OBSERVABILITY.md for the catalogue.
func (as *AddressSpace) EmitMetrics(emit func(name string, v uint64)) {
	pte := as.shadow.CumulativePTEWrites()
	pmd := as.shadow.CumulativePMDWrites()
	var present uint64
	for _, t := range as.tables {
		pte += t.CumulativePTEWrites()
		pmd += t.CumulativePMDWrites()
		present += uint64(t.Present())
	}
	emit("pagetable/pte-writes", pte)
	emit("pagetable/pmd-writes", pmd)
	emit("mm/vmas", uint64(as.NumVMAs()))
	emit("mm/vds-tables", uint64(as.NumTables()))
	emit("mm/pages-present", present)
}

// Mmap creates a new anonymous area. start and length must be
// page-aligned, and the range must not overlap an existing area. Pages are
// not populated: first touch faults them in (demand paging).
func (as *AddressSpace) Mmap(start pagetable.VAddr, length uint64, writable bool) (*VMA, error) {
	if err := checkRange(start, length); err != nil {
		return nil, err
	}
	overlap := false
	as.vmas.Range(start, start+pagetable.VAddr(length), func(*VMA) bool {
		overlap = true
		return false
	})
	if overlap {
		return nil, ErrOverlap
	}
	v := &VMA{Start: start, Length: length, Writable: writable}
	as.vmas.Insert(v)
	return v, nil
}

// Munmap removes [start, start+length), splitting partially covered areas,
// and eagerly unmaps the pages from the shadow and every VDS table
// (revocation is always eager, §6.2).
func (as *AddressSpace) Munmap(start pagetable.VAddr, length uint64) (SyncReport, error) {
	if err := checkRange(start, length); err != nil {
		return SyncReport{}, err
	}
	end := start + pagetable.VAddr(length)
	as.splitAt(start)
	as.splitAt(end)
	var doomed []*VMA
	as.vmas.Range(start, end, func(v *VMA) bool {
		doomed = append(doomed, v)
		return true
	})
	var rep SyncReport
	for _, v := range doomed {
		as.vmas.Delete(v.Start)
		as.forget(v)
		rep.add(as.eachTable(func(t *pagetable.Table) SyncReport {
			t.ResetCounts()
			n := t.UnmapRange(v.Start, v.Length)
			return SyncReport{PTEWrites: t.PTEWrites, PMDWrites: t.PMDWrites, PagesTouched: n}
		}))
	}
	return rep, nil
}

// Mprotect changes the writability of [start, start+length), splitting
// areas as needed. Downgrades are synchronized eagerly into every table;
// upgrades only touch the VMA (the next write faults and is fixed up
// lazily, as in Linux).
func (as *AddressSpace) Mprotect(start pagetable.VAddr, length uint64, writable bool) (SyncReport, error) {
	if err := checkRange(start, length); err != nil {
		return SyncReport{}, err
	}
	end := start + pagetable.VAddr(length)
	as.splitAt(start)
	as.splitAt(end)
	var rep SyncReport
	found := false
	as.vmas.Range(start, end, func(v *VMA) bool {
		found = true
		if v.Writable == writable {
			return true
		}
		v.Writable = writable
		if !writable { // revocation: eager
			rep.add(as.eachTable(func(t *pagetable.Table) SyncReport {
				t.ResetCounts()
				n := t.SetWritableRange(v.Start, v.Length, false)
				return SyncReport{PTEWrites: t.PTEWrites, PMDWrites: t.PMDWrites, PagesTouched: n}
			}))
		}
		return true
	})
	if !found {
		// Linux mprotect(2) returns ENOMEM when the range contains no
		// mapping; the typed sentinel keeps the failure checkable.
		return rep, ErrNoMapping
	}
	return rep, nil
}

// SetTag labels every page containing any part of [addr, addr+length) with
// the domain tag (vdom_mprotect semantics: the range is expanded to page
// boundaries). Present pages are retagged in the shadow and in every VDS
// table according to the resolver, so already-mapped memory immediately
// falls under the new domain.
func (as *AddressSpace) SetTag(addr pagetable.VAddr, length uint64, tag Tag) (SyncReport, error) {
	if length == 0 {
		return SyncReport{}, fmt.Errorf("%w: empty tag range", ErrBadRange)
	}
	start := addr.PageAlign()
	end := (addr + pagetable.VAddr(length) + pagetable.PageSize - 1).PageAlign()
	as.splitAt(start)
	as.splitAt(end)
	found := false
	var rep SyncReport
	as.vmas.Range(start, end, func(v *VMA) bool {
		found = true
		v.Tag = tag
		rep.add(as.eachTable(func(t *pagetable.Table) SyncReport {
			pdom, ok := as.resolver.PdomFor(t, tag)
			if !ok {
				pdom = as.resolver.AccessNever()
			}
			t.ResetCounts()
			n := t.RetagRange(v.Start, v.Length, pdom)
			return SyncReport{PTEWrites: t.PTEWrites, PMDWrites: t.PMDWrites, PagesTouched: n}
		}))
		return true
	})
	if !found {
		return rep, ErrNoMapping
	}
	return rep, nil
}

// eachTable runs fn over the shadow and every VDS table, summing reports.
func (as *AddressSpace) eachTable(fn func(*pagetable.Table) SyncReport) SyncReport {
	var rep SyncReport
	r := fn(as.shadow)
	rep.PTEWrites += r.PTEWrites
	rep.PMDWrites += r.PMDWrites
	rep.PagesTouched += r.PagesTouched
	touched := 1
	for _, t := range as.tables {
		r := fn(t)
		rep.PTEWrites += r.PTEWrites
		rep.PMDWrites += r.PMDWrites
		rep.PagesTouched += r.PagesTouched
		touched++
	}
	rep.TablesTouched = touched
	return rep
}

// splitAt splits the VMA spanning a (if any) so that a becomes an area
// boundary. a must be page-aligned.
func (as *AddressSpace) splitAt(a pagetable.VAddr) {
	v := as.FindVMA(a)
	if v == nil || v.Start == a {
		return
	}
	tailLen := uint64(v.End() - a)
	v.Length -= tailLen
	as.vmas.Insert(&VMA{Start: a, Length: tailLen, Writable: v.Writable, Tag: v.Tag})
}

// FaultFix describes how a demand-paging fault was repaired.
type FaultFix struct {
	// FreshFrame reports whether a new physical frame was allocated
	// (first touch process-wide) as opposed to copying the shadow PTE.
	FreshFrame bool
	// PTEWrites counts page-table updates performed.
	PTEWrites uint64
	// Pdom is the domain tag the page was installed with in the faulting
	// table.
	Pdom pagetable.Pdom
}

// HandleFault services a not-present fault at addr in table t (which may
// be the shadow). It allocates a frame on first touch, keeps the shadow
// table authoritative, and fills the faulting VDS table from it (lazy
// demand paging, §6.2). Access violations return ErrSegfault.
func (as *AddressSpace) HandleFault(t *pagetable.Table, addr pagetable.VAddr, write bool) (FaultFix, error) {
	v := as.FindVMA(addr)
	if v == nil {
		return FaultFix{}, ErrSegfault
	}
	if write && !v.Writable {
		return FaultFix{}, ErrSegfault
	}
	page := addr.PageAlign()
	var fix FaultFix

	shadowWr := as.shadow.Walk(page)
	var frame pagetable.Frame
	var shadowPdom pagetable.Pdom
	if shadowWr.Present {
		frame = shadowWr.PTE.Frame
		shadowPdom = shadowWr.PTE.Pdom
		// Lazily repair a stale write-protect bit left by a permission
		// upgrade (Mprotect upgrades do not sync eagerly).
		if v.Writable && !shadowWr.PTE.Writable {
			as.shadow.ResetCounts()
			as.shadow.SetWritable(page, true)
			fix.PTEWrites += as.shadow.PTEWrites
		}
	} else {
		frame = as.machine.AllocFrames(1)
		fix.FreshFrame = true
		as.shadow.ResetCounts()
		pdom, ok := as.resolver.PdomFor(as.shadow, v.Tag)
		if !ok {
			pdom = as.resolver.AccessNever()
		}
		shadowPdom = pdom
		as.shadow.Map(page, frame, v.Writable, pdom)
		fix.PTEWrites += as.shadow.PTEWrites
	}
	if t != as.shadow {
		pdom, ok := as.resolver.PdomFor(t, v.Tag)
		if !ok {
			pdom = as.resolver.AccessNever()
		}
		t.ResetCounts()
		t.Map(page, frame, v.Writable, pdom)
		fix.PTEWrites += t.PTEWrites
		fix.Pdom = pdom
	} else {
		// The pdom the just-consulted (or just-installed) shadow PTE
		// carries; re-walking would return exactly shadowPdom.
		fix.Pdom = shadowPdom
	}
	return fix, nil
}

// Populate eagerly faults in every page of [start, start+length) in table
// t, as mmap(MAP_POPULATE) would. It returns the number of fresh frames.
//
// It performs exactly the per-page work a HandleFault loop would — the
// same counter resets, frame allocations, and map calls in the same
// per-page order — but hoists the VMA lookup and domain resolution out
// of the page loop (both are invariant across one area: the resolvers
// are pure lookups and nothing inside the loop can remap a domain) and
// delegates each 2 MiB run to the fused pagetable chunk operations.
// FuzzPopulate checks it against that HandleFault loop on a twin
// machine.
func (as *AddressSpace) Populate(t *pagetable.Table, start pagetable.VAddr, length uint64) (int, error) {
	if err := checkRange(start, length); err != nil {
		return 0, err
	}
	fresh := 0
	end := start + pagetable.VAddr(length)
	alloc := as.machine.AllocFrames
	for addr := start; addr < end; {
		v := as.FindVMA(addr)
		if v == nil {
			return fresh, ErrSegfault
		}
		chunkEnd := v.End()
		if chunkEnd > end {
			chunkEnd = end
		}
		shadowPdom, ok := as.resolver.PdomFor(as.shadow, v.Tag)
		if !ok {
			shadowPdom = as.resolver.AccessNever()
		}
		var tPdom pagetable.Pdom
		if t != as.shadow {
			if tPdom, ok = as.resolver.PdomFor(t, v.Tag); !ok {
				tPdom = as.resolver.AccessNever()
			}
		}
		for addr < chunkEnd {
			runEnd := addr.PMDAlign() + pagetable.PMDSize
			if runEnd > chunkEnd {
				runEnd = chunkEnd
			}
			pages := int(uint64(runEnd-addr) / pagetable.PageSize)
			frames := as.frameScratch[:pages]
			fresh += as.shadow.PopulateChunk(addr, pages, v.Writable, shadowPdom, alloc, frames)
			if t != as.shadow {
				t.MapChunk(addr, frames, v.Writable, tPdom)
			}
			addr = runEnd
		}
	}
	return fresh, nil
}

func checkRange(start pagetable.VAddr, length uint64) error {
	if uint64(start)%pagetable.PageSize != 0 || length%pagetable.PageSize != 0 || length == 0 {
		return badRangeErr(start, length)
	}
	return nil
}

// badRangeErr keeps the cold error construction out of checkRange's
// inline budget, so the aligned fast path stays branch-and-return.
//
//go:noinline
func badRangeErr(start pagetable.VAddr, length uint64) error {
	return fmt.Errorf("%w [%#x, +%#x): must be page-aligned and non-empty", ErrBadRange, uint64(start), length)
}

// Reclaim emulates kswapd pressure: it unmaps up to max present pages
// (lowest-addressed first) from the shadow and — eagerly, as §6.2 requires
// for frame reclamation — from every VDS table. The pages demand-fault
// back in on their next touch. It returns the number of frames reclaimed
// and the synchronization work performed.
func (as *AddressSpace) Reclaim(max int) (int, SyncReport) {
	var victims []pagetable.VAddr
	if max > 0 {
		as.shadow.Pages(func(a pagetable.VAddr, _ pagetable.PTE) bool {
			victims = append(victims, a)
			return len(victims) < max
		})
	}
	var rep SyncReport
	for _, a := range victims {
		rep.add(as.eachTable(func(t *pagetable.Table) SyncReport {
			t.ResetCounts()
			n := 0
			if t.Unmap(a) {
				n = 1
			}
			return SyncReport{PTEWrites: t.PTEWrites, PMDWrites: t.PMDWrites, PagesTouched: n}
		}))
	}
	return len(victims), rep
}
