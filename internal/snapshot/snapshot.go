// Package snapshot implements vdom-snap/v2, the versioned full-System
// checkpoint/restore subsystem of the crash-tolerance layer (see
// RECOVERY.md).
//
// A snapshot serializes every layer of a running System — the memory
// manager's VMA tree and page tables (per-PTE domain tags, PMD-disable
// marks, and mutation generations included), the kernel's task, ASID-
// generation, and per-core residency state, the hardware cores' ASID-
// tagged TLBs, permission registers, and walk caches, and the domain
// layer of the trace's kernel kind (VDom manager, libmpk key cache, EPK
// groups, or DPTI domains) — into a self-describing container:
//
//	"VDSN" | uvarint version | uvarint #sections |
//	    { uvarint len(name) | name | uvarint len(payload) |
//	      crc32(payload) | payload }*
//
// The first section is always "meta": the replay.Header of the recorded
// run (carrying the config digest, in the trace codec's field sequence),
// the virtual clock, and the trace event index the checkpoint
// corresponds to. Every payload is CRC-32 (IEEE) protected and written
// by its layer's explicit binary codec on internal/wire (uvarints,
// zigzag varints, flag bytes); the layout is deterministic, so capturing
// a restored System reproduces the snapshot byte for byte. Decode
// returns typed errors (ErrBadMagic, ErrBadVersion, ErrTruncated,
// ErrBadChecksum, ErrBadRecord) and never panics on hostile input, and
// Restore validates every section against the booted System before
// loading it, so a checksum-valid but corrupted payload is an
// ErrBadRecord naming the section and its offset, never a panic.
//
// Restore composes with internal/replay: it boots a fresh System from
// the meta header and loads each section into its layer, after which
// replay.RunTail re-executes the trace events recorded since the
// checkpoint to reach the crash point.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"vdom/internal/backend"
	"vdom/internal/kernel"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/wire"
)

// FormatVersion is the on-disk snapshot format version. Version 1
// payloads were gob-encoded; they are rejected with ErrBadVersion.
const FormatVersion = 2

// FormatName identifies the format in docs and reports.
const FormatName = "vdom-snap/v2"

// Typed decode errors, all matchable with errors.Is.
var (
	// ErrBadMagic means the input does not start with the VDSN magic.
	ErrBadMagic = errors.New("snapshot: bad magic")
	// ErrBadVersion means the format version is unsupported.
	ErrBadVersion = errors.New("snapshot: unsupported version")
	// ErrTruncated means the input ended before the structure did.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrBadChecksum means a section payload failed CRC verification.
	ErrBadChecksum = errors.New("snapshot: section checksum mismatch")
	// ErrBadRecord means a structurally invalid record (bad counts,
	// oversized lengths, undecodable or inconsistent payloads, missing
	// sections).
	ErrBadRecord = errors.New("snapshot: bad record")
)

// Sanity caps keeping hostile inputs from allocating unboundedly.
const (
	maxSections    = 1024
	maxNameLen     = 255
	maxPayloadSize = 1 << 26
)

var magic = [4]byte{'V', 'D', 'S', 'N'}

// Meta identifies what a snapshot is a checkpoint of.
type Meta struct {
	// Header is the recorded run's trace header; its ConfigDigest ties
	// the snapshot to the run configuration, and Restore boots the
	// System skeleton from it.
	Header replay.Header
	// Clock is the virtual cycle clock at the checkpoint.
	Clock uint64
	// EventIndex is the number of trace events recorded before the
	// checkpoint: tail recovery replays Events[EventIndex:].
	EventIndex int
}

// Section is one named, CRC-protected payload.
type Section struct {
	Name string
	Data []byte
	// Offset is the section record's byte offset in the decoded
	// container (0 for captured, not-yet-encoded sections). Decode and
	// Restore errors carry it so a bad section can be located in the
	// file without re-parsing.
	Offset int64
}

// State is a decoded (or captured, not-yet-encoded) snapshot.
type State struct {
	Meta Meta
	// Sections holds every non-meta section in container order.
	Sections []Section
}

// AddSection appends a section (e.g. the chaos injector's PRNG state,
// attached by the crash-soak harness).
func (s *State) AddSection(name string, data []byte) {
	s.Sections = append(s.Sections, Section{Name: name, Data: data})
}

// Section returns the named section's payload.
func (s *State) Section(name string) ([]byte, bool) {
	sec, ok := s.lookup(name)
	return sec.Data, ok
}

// ReadSection decodes the named section with read, which must consume
// the payload exactly. A missing section, a read failure, or trailing
// bytes yield an ErrBadRecord naming the section and its container
// offset (and still matching the wire error underneath).
func (s *State) ReadSection(name string, read func(r *wire.Reader)) error {
	sec, ok := s.lookup(name)
	if !ok {
		return fmt.Errorf("%w: missing section %q", ErrBadRecord, name)
	}
	return sec.read(read)
}

func (sec Section) read(read func(r *wire.Reader)) error {
	r := wire.NewReader(sec.Data)
	read(r)
	if err := r.Done(); err != nil {
		return fmt.Errorf("%w: section %q at offset %d: %w", ErrBadRecord, sec.Name, sec.Offset, err)
	}
	return nil
}

// lookup returns the full named section, offset included.
func (s *State) lookup(name string) (Section, bool) {
	for _, sec := range s.Sections {
		if sec.Name == name {
			return sec, true
		}
	}
	return Section{}, false
}

// Section names of the substrate images; each domain layer's section is
// named by its backend (Backend.Section — "core/manager", "libmpk",
// "epk", "dpti").
const (
	secMeta   = "meta"
	secMM     = "mm/as"
	secKernel = "kernel"
	secHW     = "hw/machine"
)

// Capture builds a snapshot of the live System: hdr describes the run
// (as recorded by the trace recorder), clock is the current virtual
// clock, and eventIndex is the number of trace events recorded so far.
func Capture(sys *replay.System, hdr replay.Header, clock uint64, eventIndex int) (*State, error) {
	if sys == nil {
		return nil, fmt.Errorf("%w: nil system", ErrBadRecord)
	}
	st := &State{Meta: Meta{Header: hdr, Clock: clock, EventIndex: eventIndex}}

	// Every section is appended to one growing buffer; each keeps a
	// capacity-capped view of its own bytes.
	var buf []byte
	add := func(name string, b []byte) {
		st.AddSection(name, b[len(buf):len(b):len(b)])
		buf = b
	}
	var tableID func(*pagetable.Table) int
	if sys.Proc != nil {
		as := sys.Proc.AS()
		add(secMM, as.AppendState(buf))

		// Stable table-id mapping; stale pointers (a reaped VDS's table
		// lingering in a core's loaded-table or walk-memo slot) map to
		// "none": they can never match a live table again, so the
		// restored miss behaviour is identical.
		ids := map[*pagetable.Table]int{as.Shadow(): 0}
		for j, t := range as.Tables() {
			ids[t] = j + 1
		}
		tableID = func(t *pagetable.Table) int {
			if id, ok := ids[t]; ok {
				return id
			}
			return -1
		}
		add(secKernel, sys.Kernel.Snap(sys.Proc, tableID).Append(buf))
		add(secHW, sys.Machine.AppendState(buf, tableID))
	}
	if b := backend.Of(sys); b != nil {
		add(b.Section(), b.Capture(sys, buf, tableID))
	}
	return st, nil
}

// Restore boots a fresh System from the snapshot's header and loads
// every captured layer into it. It returns the System and its live
// tasks keyed by trace thread id, ready for replay.RunTail. Each section
// is validated against the booted System before it is loaded.
func Restore(st *State) (*replay.System, map[uint64]*kernel.Task, error) {
	sys, err := replay.Boot(st.Meta.Header)
	if err != nil {
		return nil, nil, err
	}
	tasks := map[uint64]*kernel.Task{}
	var task func(int) *kernel.Task

	if sys.Proc != nil {
		space := sys.Proc.AS()
		if err := st.ReadSection(secMM, space.ReadState); err != nil {
			return nil, nil, err
		}
		numTables, table := space.NumTables(), space.TableByID

		var ks kernel.Snap
		if err := st.ReadSection(secKernel, func(r *wire.Reader) { ks.Read(r, sys.Kernel, numTables) }); err != nil {
			return nil, nil, err
		}
		byTID := sys.Kernel.LoadSnap(ks, sys.Proc, table)
		for tid, tk := range byTID {
			tasks[uint64(tid)] = tk
		}
		task = func(tid int) *kernel.Task { return byTID[tid] } // nil for tid 0

		if err := st.ReadSection(secHW, func(r *wire.Reader) { sys.Machine.ReadState(r, table, numTables) }); err != nil {
			return nil, nil, err
		}
	}
	if b := backend.Of(sys); b != nil {
		if err := st.ReadSection(b.Section(), func(r *wire.Reader) { b.Restore(sys, r, task) }); err != nil {
			return nil, nil, err
		}
	}
	return sys, tasks, nil
}

// Encode serializes the snapshot into the vdom-snap/v2 container.
func Encode(st *State) []byte {
	meta := replay.AppendHeader(nil, st.Meta.Header)
	meta = wire.AppendUvarint(meta, st.Meta.Clock)
	meta = wire.AppendVarint(meta, int64(st.Meta.EventIndex))

	size := 16 + len(meta)
	for _, sec := range st.Sections {
		size += 24 + len(sec.Name) + len(sec.Data)
	}
	b := make([]byte, 0, size)
	b = append(b, magic[:]...)
	b = wire.AppendUvarint(b, FormatVersion)
	b = wire.AppendUvarint(b, uint64(1+len(st.Sections)))
	b = appendSection(b, Section{Name: secMeta, Data: meta})
	for _, sec := range st.Sections {
		b = appendSection(b, sec)
	}
	return b
}

func appendSection(b []byte, sec Section) []byte {
	if len(sec.Name) > maxNameLen {
		panic(fmt.Sprintf("snapshot: section name %q too long", sec.Name))
	}
	if len(sec.Data) > maxPayloadSize {
		panic(fmt.Sprintf("snapshot: section %q payload %d exceeds cap", sec.Name, len(sec.Data)))
	}
	b = wire.AppendString(b, sec.Name)
	b = wire.AppendUvarint(b, uint64(len(sec.Data)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(sec.Data))
	return append(b, sec.Data...)
}

// Decode parses a vdom-snap/v2 container. It verifies the magic,
// version, structure, every section's CRC, and the meta section,
// returning typed errors for each failure mode; it never panics on
// hostile input. The decoded sections own their bytes (the input is
// copied once).
func Decode(b []byte) (*State, error) {
	if len(b) < len(magic) || [4]byte(b[:4]) != magic {
		return nil, ErrBadMagic
	}
	r := wire.NewReader(bytes.Clone(b))
	r.Bytes(len(magic))
	if version := r.Uvarint(); r.Err() == nil && version != FormatVersion {
		return nil, fmt.Errorf("%w: %d (supported: %d)", ErrBadVersion, version, FormatVersion)
	}
	count := r.Uvarint()
	if r.Err() == nil && (count == 0 || count > maxSections) {
		return nil, fmt.Errorf("%w: %d sections", ErrBadRecord, count)
	}
	st := &State{}
	sawMeta := false
	for i := uint64(0); i < count && r.Err() == nil; i++ {
		off := int64(r.Offset())
		nameLen := r.Uvarint()
		if r.Err() == nil && (nameLen == 0 || nameLen > maxNameLen) {
			return nil, fmt.Errorf("%w: section name length %d at offset %d", ErrBadRecord, nameLen, off)
		}
		name := string(r.Bytes(int(nameLen)))
		payLen := r.Uvarint()
		if r.Err() == nil && payLen > maxPayloadSize {
			return nil, fmt.Errorf("%w: section %q at offset %d: payload length %d", ErrBadRecord, name, off, payLen)
		}
		crc := r.Bytes(4)
		data := r.Bytes(int(payLen))
		if r.Err() != nil {
			break
		}
		if crc32.ChecksumIEEE(data) != binary.LittleEndian.Uint32(crc) {
			return nil, fmt.Errorf("%w: section %q at offset %d", ErrBadChecksum, name, off)
		}
		sec := Section{Name: name, Data: data, Offset: off}
		if name != secMeta {
			st.Sections = append(st.Sections, sec)
			continue
		}
		if sawMeta {
			return nil, fmt.Errorf("%w: duplicate meta section at offset %d", ErrBadRecord, off)
		}
		sawMeta = true
		if err := sec.read(st.Meta.read); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, wire.Retype(err, ErrTruncated, ErrBadRecord)
	}
	if !sawMeta {
		return nil, fmt.Errorf("%w: missing meta section", ErrBadRecord)
	}
	return st, nil
}

// read decodes the meta section's payload.
func (m *Meta) read(r *wire.Reader) {
	m.Header = replay.ReadHeader(r)
	m.Clock = r.Uvarint()
	if m.EventIndex = int(r.Varint()); m.EventIndex < 0 {
		r.Failf("event index %d", m.EventIndex)
	}
}
