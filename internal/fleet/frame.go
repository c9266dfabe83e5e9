package fleet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The vdom-fleet/v1 wire format. Every frame is:
//
//	magic "VDFL" (4 bytes) | type (1 byte) | payload length (uvarint) | payload
//
// and every payload field is uvarint- or length-prefixed, exactly like
// the repository's other binary formats (vdom-trace/v1, vdom-snap/v2).
// The per-frame magic buys cheap desync detection: a transport fault
// that shears the stream mid-frame makes the next read fail ErrBadMagic
// immediately instead of misparsing tail bytes as a frame header.

// ProtocolVersion is the vdom-fleet protocol generation; a hello frame
// carrying any other version is rejected with ErrBadVersion.
const ProtocolVersion = 1

// frameMagic opens every frame on the pipe.
var frameMagic = [4]byte{'V', 'D', 'F', 'L'}

// FrameType discriminates the protocol's frames.
type FrameType uint8

// The vdom-fleet/v1 frame types.
const (
	// FrameHello is the worker's first frame: protocol version + worker id.
	FrameHello FrameType = 1
	// FrameAssign carries one CellSpec from coordinator to worker.
	FrameAssign FrameType = 2
	// FrameResult carries one CellResult (with integrity digest) back.
	FrameResult FrameType = 3
	// FrameHeartbeat is the worker's liveness beacon while a cell runs.
	FrameHeartbeat FrameType = 4
	// FrameShutdown asks the worker to drain and exit.
	FrameShutdown FrameType = 5
)

// Typed decode sentinels: every malformed input maps to exactly one of
// these (wrapped with context), and none of them is ever a panic.
var (
	// ErrBadMagic means the stream position does not open a frame.
	ErrBadMagic = errors.New("fleet: bad frame magic")
	// ErrBadVersion means the peer speaks a different protocol generation.
	ErrBadVersion = errors.New("fleet: unsupported protocol version")
	// ErrTruncated means the input ended inside a frame or field.
	ErrTruncated = errors.New("fleet: truncated frame")
	// ErrBadRecord means a structurally invalid frame or field.
	ErrBadRecord = errors.New("fleet: malformed frame")
	// ErrBadDigest means a result frame's content failed its integrity
	// digest — the payload decoded but was corrupted in flight.
	ErrBadDigest = errors.New("fleet: result digest mismatch")
)

// Anti-panic caps: a well-formed frame never exceeds these, so anything
// beyond them is rejected as malformed rather than allocated. The frame
// cap bounds a forged length prefix; the string cap bounds any single
// rendered-text or error field; cells and indices are bounded far below
// any real grid.
const (
	maxFramePayload = 64 << 20
	maxStringLen    = 1 << 20
	maxCellIndex    = 1 << 20
)

// WriteFrame writes one frame: magic, type, length-prefixed payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, frameMagic[:]...)
	hdr = append(hdr, byte(t))
	hdr = binary.AppendUvarint(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Skip the empty write: io.Pipe blocks zero-length writes
		// until a reader shows up, and a shutdown frame's recipient
		// may already be gone.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from the buffered stream. io.EOF is
// returned bare only at a clean frame boundary; any mid-frame end of
// input is ErrTruncated, and a bad opening is ErrBadMagic — the caller
// treats both as a torn transport.
func ReadFrame(br *bufio.Reader) (FrameType, []byte, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: reading magic: %v", ErrTruncated, err)
	}
	if magic != frameMagic {
		return 0, nil, fmt.Errorf("%w: got %q", ErrBadMagic, magic[:])
	}
	tb, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: reading frame type", ErrTruncated)
	}
	t := FrameType(tb)
	if t < FrameHello || t > FrameShutdown {
		return 0, nil, fmt.Errorf("%w: unknown frame type %d", ErrBadRecord, tb)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: reading payload length", ErrTruncated)
	}
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds cap %d", ErrBadRecord, n, maxFramePayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload ended after %v", ErrTruncated, err)
	}
	return t, payload, nil
}

// Hello is the worker's opening frame.
type Hello struct {
	// Version is the worker's ProtocolVersion.
	Version int
	// Worker is the worker's fleet slot id.
	Worker int
}

// EncodeHello serializes a hello payload.
func EncodeHello(h Hello) []byte {
	b := make([]byte, 0, 8)
	b = binary.AppendUvarint(b, uint64(h.Version))
	b = binary.AppendUvarint(b, uint64(h.Worker))
	return b
}

// DecodeHello parses a hello payload, rejecting version skew.
func DecodeHello(data []byte) (Hello, error) {
	d := &payloadDecoder{buf: data}
	v, err := d.uvarint()
	if err != nil {
		return Hello{}, err
	}
	if v != ProtocolVersion {
		return Hello{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, ProtocolVersion)
	}
	w, err := d.smallInt("worker")
	if err != nil {
		return Hello{}, err
	}
	if err := d.done(); err != nil {
		return Hello{}, err
	}
	return Hello{Version: int(v), Worker: w}, nil
}

// Assign is one cell assignment: the run-unique cell id plus the spec.
type Assign struct {
	// ID is the coordinator's run-unique cell id; the matching result
	// frame echoes it.
	ID   uint64
	Spec CellSpec
}

// EncodeAssign serializes an assignment payload.
func EncodeAssign(a Assign) []byte {
	b := make([]byte, 0, 64)
	b = binary.AppendUvarint(b, a.ID)
	b = putString(b, a.Spec.Grid)
	b = binary.AppendUvarint(b, uint64(a.Spec.Index))
	b = binary.AppendUvarint(b, a.Spec.Seed)
	b = putString(b, a.Spec.Kernel)
	b = putString(b, a.Spec.Arch)
	b = binary.AppendUvarint(b, uint64(a.Spec.Flags))
	b = putString(b, a.Spec.Spec)
	return b
}

// DecodeAssign parses an assignment payload.
func DecodeAssign(data []byte) (Assign, error) {
	d := &payloadDecoder{buf: data}
	var a Assign
	var err error
	if a.ID, err = d.uvarint(); err != nil {
		return a, err
	}
	if a.Spec.Grid, err = d.string(); err != nil {
		return a, err
	}
	idx, err := d.uvarint()
	if err != nil {
		return a, err
	}
	if idx > maxCellIndex {
		return a, fmt.Errorf("%w: cell index %d exceeds cap %d", ErrBadRecord, idx, maxCellIndex)
	}
	a.Spec.Index = int(idx)
	if a.Spec.Seed, err = d.uvarint(); err != nil {
		return a, err
	}
	if a.Spec.Kernel, err = d.string(); err != nil {
		return a, err
	}
	if a.Spec.Arch, err = d.string(); err != nil {
		return a, err
	}
	flags, err := d.uvarint()
	if err != nil {
		return a, err
	}
	if flags > 1<<32-1 {
		return a, fmt.Errorf("%w: spec flags %#x out of range", ErrBadRecord, flags)
	}
	a.Spec.Flags = uint32(flags)
	if a.Spec.Spec, err = d.string(); err != nil {
		return a, err
	}
	if err := d.done(); err != nil {
		return a, err
	}
	return a, nil
}

// Result is one computed cell travelling back to the coordinator.
type Result struct {
	// ID echoes the assignment's cell id.
	ID   uint64
	Cell CellResult
}

// EncodeResult serializes a result payload, appending the integrity
// digest over the content fields.
func EncodeResult(r Result) []byte {
	b := make([]byte, 0, 128+len(r.Cell.Text)+len(r.Cell.Metrics)+len(r.Cell.Trace)+len(r.Cell.Aux))
	b = binary.AppendUvarint(b, r.ID)
	b = putString(b, r.Cell.Err)
	b = putString(b, r.Cell.Text)
	b = binary.AppendUvarint(b, r.Cell.Total)
	b = putBytes(b, r.Cell.Metrics)
	b = putBytes(b, r.Cell.Trace)
	b = putBytes(b, r.Cell.Aux)
	b = binary.AppendUvarint(b, r.Cell.digest(r.ID))
	return b
}

// DecodeResult parses a result payload and verifies its digest; a
// payload whose content was corrupted in flight fails with ErrBadDigest
// even when it decodes structurally.
func DecodeResult(data []byte) (Result, error) {
	d := &payloadDecoder{buf: data}
	var r Result
	var err error
	if r.ID, err = d.uvarint(); err != nil {
		return r, err
	}
	if r.Cell.Err, err = d.string(); err != nil {
		return r, err
	}
	if r.Cell.Text, err = d.longString(); err != nil {
		return r, err
	}
	if r.Cell.Total, err = d.uvarint(); err != nil {
		return r, err
	}
	if r.Cell.Metrics, err = d.bytes(); err != nil {
		return r, err
	}
	if r.Cell.Trace, err = d.bytes(); err != nil {
		return r, err
	}
	if r.Cell.Aux, err = d.bytes(); err != nil {
		return r, err
	}
	sum, err := d.uvarint()
	if err != nil {
		return r, err
	}
	if err := d.done(); err != nil {
		return r, err
	}
	if sum != r.Cell.digest(r.ID) {
		return r, fmt.Errorf("%w: cell %d", ErrBadDigest, r.ID)
	}
	return r, nil
}

// Heartbeat is the worker's liveness beacon while a cell executes.
type Heartbeat struct {
	// Worker is the sender's fleet slot id.
	Worker int
	// Cell is the in-flight cell id.
	Cell uint64
	// Beat is the per-cell beat sequence number, monotonic from 1.
	Beat uint64
}

// EncodeHeartbeat serializes a heartbeat payload.
func EncodeHeartbeat(h Heartbeat) []byte {
	b := make([]byte, 0, 16)
	b = binary.AppendUvarint(b, uint64(h.Worker))
	b = binary.AppendUvarint(b, h.Cell)
	b = binary.AppendUvarint(b, h.Beat)
	return b
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	d := &payloadDecoder{buf: data}
	w, err := d.smallInt("worker")
	if err != nil {
		return Heartbeat{}, err
	}
	cell, err := d.uvarint()
	if err != nil {
		return Heartbeat{}, err
	}
	beat, err := d.uvarint()
	if err != nil {
		return Heartbeat{}, err
	}
	if err := d.done(); err != nil {
		return Heartbeat{}, err
	}
	return Heartbeat{Worker: w, Cell: cell, Beat: beat}, nil
}

// payloadDecoder walks a payload with bounds checking; every failure is
// a typed sentinel, never a panic, whatever the bytes.
type payloadDecoder struct {
	buf []byte
	off int
}

func (d *payloadDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			return 0, ErrTruncated
		}
		return 0, fmt.Errorf("%w: varint overflow at offset %d", ErrBadRecord, d.off)
	}
	d.off += n
	return v, nil
}

func (d *payloadDecoder) stringCapped(cap uint64) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > cap || n > uint64(len(d.buf)-d.off) {
		return "", fmt.Errorf("%w: string length %d at offset %d", ErrBadRecord, n, d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *payloadDecoder) string() (string, error) { return d.stringCapped(maxStringLen) }

// longString admits rendered-output fields up to the frame cap (a full
// chaos shard's rendering exceeds the small-string cap).
func (d *payloadDecoder) longString() (string, error) { return d.stringCapped(maxFramePayload) }

// bytes decodes a length-prefixed byte field, bounded by the remaining
// input so a forged length cannot drive a huge allocation. Empty
// decodes as nil, keeping round-trips exact.
func (d *payloadDecoder) bytes() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off) {
		return nil, fmt.Errorf("%w: byte field length %d exceeds remaining input", ErrBadRecord, n)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return out, nil
}

// smallInt decodes a field that must be small (worker slots).
func (d *payloadDecoder) smallInt(name string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > 1<<16 {
		return 0, fmt.Errorf("%w: %s %d out of range", ErrBadRecord, name, v)
	}
	return int(v), nil
}

// done rejects trailing bytes, so a frame is exactly its fields.
func (d *payloadDecoder) done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadRecord, len(d.buf)-d.off)
	}
	return nil
}

func putString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func putBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}
