package epk

import (
	"sort"

	"vdom/internal/wire"
)

// Checkpoint capture and restore (vdom-snap/v2), encoded straight from
// the live structures. The section is the domain capacity, the (thread,
// group) bindings in ascending thread order, and the stats; ints are
// zigzag varints, counters uvarints. The VM tax model is configuration,
// not state: it is rebuilt from the boot header on restore.

// AppendState appends the system's image.
func (s *System) AppendState(b []byte) []byte {
	b = wire.AppendVarint(b, int64(s.numDomains))
	tids := make([]int, 0, len(s.current))
	for tid := range s.current {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	b = wire.AppendUvarint(b, uint64(len(tids)))
	for _, tid := range tids {
		b = wire.AppendVarint(b, int64(tid))
		b = wire.AppendVarint(b, int64(s.current[tid]))
	}
	b = wire.AppendUvarint(b, s.Stats.MPKSwitches)
	return wire.AppendUvarint(b, s.Stats.VMFuncSwitches)
}

// ReadState restores an image AppendState wrote onto a freshly created
// System; a domain capacity other than s's fails the reader.
func (s *System) ReadState(r *wire.Reader) {
	if n := int(r.Varint()); n != s.numDomains {
		r.Failf("domain capacity %d, booted %d", n, s.numDomains)
		return
	}
	n := r.Count("thread group")
	s.current = make(map[int]int, n)
	for i := 0; i < n; i++ {
		tid := int(r.Varint())
		s.current[tid] = int(r.Varint())
	}
	s.Stats = Stats{MPKSwitches: r.Uvarint(), VMFuncSwitches: r.Uvarint()}
}
