package epk

import (
	"sort"

	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2). The section is the
// domain capacity, the (thread, group) bindings in ascending thread
// order, and the stats; ints are zigzag varints, counters uvarints.

// ThreadGroupSnap is one (thread → current EPT group) binding.
type ThreadGroupSnap struct {
	ThreadID int
	Group    int
}

// Snap is the serializable image of a System.
type Snap struct {
	NumDomains int
	Current    []ThreadGroupSnap // ascending ThreadID
	Stats      Stats
}

// Snap captures the system's image. The VM tax model is configuration,
// not state: it is rebuilt from the boot header on restore.
func (s *System) Snap() Snap {
	st := Snap{NumDomains: s.numDomains, Stats: s.Stats}
	for tid, g := range s.current {
		st.Current = append(st.Current, ThreadGroupSnap{ThreadID: tid, Group: g})
	}
	sort.Slice(st.Current, func(i, j int) bool { return st.Current[i].ThreadID < st.Current[j].ThreadID })
	return st
}

// LoadSnap restores a captured image onto a freshly created System; st
// must have passed Read's validation against it.
func (s *System) LoadSnap(st Snap) {
	s.current = make(map[int]int, len(st.Current))
	for _, tg := range st.Current {
		s.current[tg.ThreadID] = tg.Group
	}
	s.Stats = st.Stats
}

// Append appends the snapshot's encoding.
func (st Snap) Append(b []byte) []byte {
	b = wire.AppendVarint(b, int64(st.NumDomains))
	b = wire.AppendUvarint(b, uint64(len(st.Current)))
	for _, tg := range st.Current {
		b = wire.AppendVarint(b, int64(tg.ThreadID))
		b = wire.AppendVarint(b, int64(tg.Group))
	}
	b = wire.AppendUvarint(b, st.Stats.MPKSwitches)
	return wire.AppendUvarint(b, st.Stats.VMFuncSwitches)
}

// Read decodes a snapshot Append wrote; a domain capacity other than
// sys's fails the reader.
func (st *Snap) Read(r *wire.Reader, sys *System) {
	if st.NumDomains = int(r.Varint()); st.NumDomains != sys.numDomains {
		r.Failf("domain capacity %d, booted %d", st.NumDomains, sys.numDomains)
		return
	}
	st.Current = make([]ThreadGroupSnap, r.Count("thread group"))
	for i := range st.Current {
		st.Current[i] = ThreadGroupSnap{ThreadID: int(r.Varint()), Group: int(r.Varint())}
	}
	st.Stats = Stats{MPKSwitches: r.Uvarint(), VMFuncSwitches: r.Uvarint()}
}
