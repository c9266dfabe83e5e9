package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vdom/internal/wire"
)

// The vdom-fleet/v1 wire format. Every frame is:
//
//	magic "VDFL" (4 bytes) | type (1 byte) | payload length (uvarint) | payload
//
// and every payload field is uvarint- or length-prefixed, written and
// read with internal/wire exactly like the repository's other binary
// formats (vdom-trace/v1, vdom-snap/v2).
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
// cap bounds a forged length prefix, and with it the rendered Text
// field; the string cap bounds every other string field; worker slots
// and cell indices are bounded far below any real fleet or grid.
const (
	maxFramePayload = 64 << 20
	maxStringLen    = 1 << 20
	maxWorker       = 1 << 16
	maxCellIndex    = 1 << 20
)

// WriteFrame writes one frame: magic, type, length-prefixed payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	hdr := append(make([]byte, 0, 16), frameMagic[:]...)
	hdr = append(hdr, byte(t))
	hdr = wire.AppendUvarint(hdr, uint64(len(payload)))
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
	b := wire.AppendUvarint(make([]byte, 0, 8), uint64(h.Version))
	return wire.AppendUvarint(b, uint64(h.Worker))
}

// DecodeHello parses a hello payload, rejecting version skew.
func DecodeHello(data []byte) (Hello, error) {
	r := wire.NewReader(data)
	v := r.Uvarint()
	if r.Err() == nil && v != ProtocolVersion {
		return Hello{}, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, v, ProtocolVersion)
	}
	h := Hello{Version: int(v), Worker: int(capped(r, "worker", maxWorker))}
	if err := r.Done(); err != nil {
		return Hello{}, wire.Retype(err, ErrTruncated, ErrBadRecord)
	}
	return h, nil
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
	b := wire.AppendUvarint(make([]byte, 0, 64), a.ID)
	b = wire.AppendString(b, a.Spec.Grid)
	b = wire.AppendUvarint(b, uint64(a.Spec.Index))
	b = wire.AppendUvarint(b, a.Spec.Seed)
	b = wire.AppendString(b, a.Spec.Kernel)
	b = wire.AppendString(b, a.Spec.Arch)
	b = wire.AppendUvarint(b, uint64(a.Spec.Flags))
	return wire.AppendString(b, a.Spec.Spec)
}

// DecodeAssign parses an assignment payload.
func DecodeAssign(data []byte) (Assign, error) {
	r := wire.NewReader(data)
	var a Assign
	a.ID = r.Uvarint()
	a.Spec.Grid = shortString(r)
	a.Spec.Index = int(capped(r, "cell index", maxCellIndex))
	a.Spec.Seed = r.Uvarint()
	a.Spec.Kernel = shortString(r)
	a.Spec.Arch = shortString(r)
	a.Spec.Flags = uint32(capped(r, "spec flags", math.MaxUint32))
	a.Spec.Spec = shortString(r)
	if err := r.Done(); err != nil {
		return Assign{}, wire.Retype(err, ErrTruncated, ErrBadRecord)
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
	b = wire.AppendUvarint(b, r.ID)
	b = wire.AppendString(b, r.Cell.Err)
	b = wire.AppendString(b, r.Cell.Text)
	b = wire.AppendUvarint(b, r.Cell.Total)
	for _, p := range [][]byte{r.Cell.Metrics, r.Cell.Trace, r.Cell.Aux} {
		b = wire.AppendUvarint(b, uint64(len(p)))
		b = append(b, p...)
	}
	return wire.AppendUvarint(b, r.Cell.digest(r.ID))
}

// DecodeResult parses a result payload and verifies its digest; a
// payload whose content was corrupted in flight fails with ErrBadDigest
// even when it decodes structurally.
func DecodeResult(data []byte) (Result, error) {
	r := wire.NewReader(data)
	var res Result
	res.ID = r.Uvarint()
	res.Cell.Err = shortString(r)
	// Text is a rendered shard and may exceed the short-string cap; the
	// frame cap bounds it.
	res.Cell.Text = r.String()
	res.Cell.Total = r.Uvarint()
	res.Cell.Metrics = byteField(r, "metrics")
	res.Cell.Trace = byteField(r, "trace")
	res.Cell.Aux = byteField(r, "aux")
	sum := r.Uvarint()
	if err := r.Done(); err != nil {
		return Result{}, wire.Retype(err, ErrTruncated, ErrBadRecord)
	}
	if sum != res.Cell.digest(res.ID) {
		return Result{}, fmt.Errorf("%w: cell %d", ErrBadDigest, res.ID)
	}
	return res, nil
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
	b := wire.AppendUvarint(make([]byte, 0, 16), uint64(h.Worker))
	b = wire.AppendUvarint(b, h.Cell)
	return wire.AppendUvarint(b, h.Beat)
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(data []byte) (Heartbeat, error) {
	r := wire.NewReader(data)
	h := Heartbeat{Worker: int(capped(r, "worker", maxWorker))}
	h.Cell = r.Uvarint()
	h.Beat = r.Uvarint()
	if err := r.Done(); err != nil {
		return Heartbeat{}, wire.Retype(err, ErrTruncated, ErrBadRecord)
	}
	return h, nil
}

// capped reads a uvarint field that must not exceed max.
func capped(r *wire.Reader, name string, max uint64) uint64 {
	v := r.Uvarint()
	if v > max {
		r.Failf("%s %d exceeds cap %d", name, v, max)
		return 0
	}
	return v
}

// shortString reads a string field bounded by the short-string cap.
func shortString(r *wire.Reader) string {
	s := r.String()
	if len(s) > maxStringLen {
		r.Failf("string length %d exceeds cap %d", len(s), maxStringLen)
		return ""
	}
	return s
}

// byteField reads a length-prefixed byte field. The length is read as a
// Count, so one beyond the remaining input is ErrBadRecord and cannot
// drive a huge allocation; empty decodes as nil, keeping round-trips
// exact.
func byteField(r *wire.Reader, name string) []byte {
	if n := r.Count(name); n > 0 {
		return bytes.Clone(r.Bytes(n))
	}
	return nil
}
