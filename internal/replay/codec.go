package replay

import (
	"fmt"
	"math"
	"sort"

	"vdom/internal/tap"
	"vdom/internal/wire"
)

// traceMagic opens every binary trace.
var traceMagic = [4]byte{'V', 'D', 'T', 'R'}

// maxSmallField caps the header's geometry fields (core counts and the
// like): anything beyond it is rejected as malformed.
const maxSmallField = 1 << 20

// Encode serializes the trace to the compact binary form: the VDTR magic,
// then header, events (times delta-encoded), and end-state section, all
// fields uvarint and all maps sorted by key so encoding is deterministic.
func Encode(t *Trace) []byte {
	// One right-sized allocation up front: a fully populated event rarely
	// exceeds ~20 uvarint bytes, so estimating from the event count keeps
	// the encoder from reallocating its buffer through every doubling on
	// large traces.
	b := make([]byte, 0, 256+24*len(t.Events)+32*len(t.End))
	b = append(b, traceMagic[:]...)
	b = AppendHeader(b, t.Header)

	b = wire.AppendUvarint(b, uint64(len(t.Events)))
	var prev uint64
	for _, e := range t.Events {
		b = wire.AppendUvarint(b, e.Time-prev)
		prev = e.Time
		b = wire.AppendUvarint(b, e.TID)
		b = wire.AppendUvarint(b, uint64(e.Op))
		b = wire.AppendUvarint(b, e.Addr)
		b = wire.AppendUvarint(b, e.Len)
		b = wire.AppendUvarint(b, e.Dom)
		b = wire.AppendUvarint(b, uint64(e.Perm))
		b = wire.AppendUvarint(b, uint64(e.Flags))
		b = wire.AppendUvarint(b, e.Cost)
		b = wire.AppendUvarint(b, uint64(e.Err))
	}

	if t.End == nil {
		b = wire.AppendUvarint(b, 0)
	} else {
		b = wire.AppendUvarint(b, 1)
		b = appendU64Map(b, t.End)
	}
	return b
}

// AppendHeader appends the header's field sequence — the one the VDTR
// trace codec and the vdom-snap/v2 meta section share.
func AppendHeader(b []byte, h Header) []byte {
	b = wire.AppendUvarint(b, uint64(h.Version))
	b = wire.AppendString(b, h.Kernel)
	b = wire.AppendString(b, h.Arch)
	b = wire.AppendUvarint(b, uint64(h.Cores))
	b = wire.AppendUvarint(b, uint64(h.TLBCap))
	b = wire.AppendUvarint(b, h.Seed)
	b = wire.AppendString(b, h.Workload)
	b = wire.AppendUvarint(b, h.ConfigDigest)
	b = wire.AppendUvarint(b, uint64(h.Flags))
	b = wire.AppendUvarint(b, h.FlushThreshold)
	b = wire.AppendUvarint(b, uint64(h.Nas))
	b = wire.AppendUvarint(b, uint64(h.Domains))
	return appendU64Map(b, h.Extra)
}

// ReadHeader reads the field sequence AppendHeader writes. It does not
// check the version: the trace decoder does that before anything else,
// and a snapshot carries whatever header its run recorded.
func ReadHeader(r *wire.Reader) Header {
	var h Header
	h.Version = smallInt(r, "version")
	h.Kernel = r.String()
	h.Arch = r.String()
	h.Cores = smallInt(r, "cores")
	h.TLBCap = smallInt(r, "tlb-cap")
	h.Seed = r.Uvarint()
	h.Workload = r.String()
	h.ConfigDigest = r.Uvarint()
	flags := r.Uvarint()
	if flags > math.MaxUint32 {
		r.Failf("header flags %#x out of range", flags)
	}
	h.Flags = uint32(flags)
	h.FlushThreshold = r.Uvarint()
	h.Nas = smallInt(r, "nas")
	h.Domains = smallInt(r, "domains")
	if n := r.Count("extra"); n > 0 {
		h.Extra = readU64Map(r, n)
	}
	return h
}

// Decode parses a binary trace. Malformed input yields a typed error
// (ErrBadMagic, ErrBadVersion, ErrTruncated, ErrBadRecord) — never a
// panic, whatever the bytes.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(traceMagic) || string(data[:4]) != string(traceMagic[:]) {
		return nil, ErrBadMagic
	}
	peek := wire.NewReader(data[4:])
	if v := peek.Uvarint(); peek.Err() == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, FormatVersion)
	}
	r := wire.NewReader(data)
	r.Bytes(len(traceMagic))

	t := &Trace{Header: ReadHeader(r)}
	nEvents := r.Count("events")
	t.Events = make([]Event, 0, nEvents)
	var clock uint64
	for i := 0; i < nEvents; i++ {
		var e Event
		clock += r.Uvarint()
		e.Time = clock
		e.TID = r.Uvarint()
		if e.Op = tap.Op(byteField(r, "op")); !e.Op.Valid() {
			r.Failf("unknown op %d", e.Op)
		}
		e.Addr = r.Uvarint()
		e.Len = r.Uvarint()
		e.Dom = r.Uvarint()
		e.Perm = byteField(r, "perm")
		e.Flags = byteField(r, "flags")
		e.Cost = r.Uvarint()
		if e.Err = tap.Code(byteField(r, "err")); !e.Err.Valid() {
			r.Failf("unknown error code %d", e.Err)
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, wire.Retype(err, ErrTruncated, ErrBadRecord))
		}
		t.Events = append(t.Events, e)
	}

	switch marker := r.Uvarint(); marker {
	case 0:
	case 1:
		t.End = readU64Map(r, r.Count("end"))
	default:
		r.Failf("bad end-state marker %d", marker)
	}
	if err := r.Done(); err != nil {
		return nil, wire.Retype(err, ErrTruncated, ErrBadRecord)
	}
	return t, nil
}

// smallInt reads a field that fits in an int and must be small (header
// geometry like core counts).
func smallInt(r *wire.Reader, name string) int {
	v := r.Uvarint()
	if v > maxSmallField {
		r.Failf("%s %d out of range", name, v)
		return 0
	}
	return int(v)
}

// byteField reads a uvarint that must fit in one byte.
func byteField(r *wire.Reader, name string) uint8 {
	v := r.Uvarint()
	if v > math.MaxUint8 {
		r.Failf("%s %d out of range", name, v)
	}
	return uint8(v)
}

// appendU64Map appends a count and the map's entries in key order.
func appendU64Map(b []byte, m map[string]uint64) []byte {
	b = wire.AppendUvarint(b, uint64(len(m)))
	for _, k := range sortedU64Keys(m) {
		b = wire.AppendString(b, k)
		b = wire.AppendUvarint(b, m[k])
	}
	return b
}

// readU64Map reads n map entries.
func readU64Map(r *wire.Reader, n int) map[string]uint64 {
	m := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.Uvarint()
	}
	return m
}

// sortedU64Keys returns the map's keys in lexical order.
func sortedU64Keys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
