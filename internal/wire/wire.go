// Package wire holds the binary primitives the repository's versioned
// formats share: append-style writers for uvarints, zigzag varints,
// booleans, length-prefixed strings and fixed 8-byte floats, and a
// bounds-checked Reader over the same encodings.
//
// The Reader's error is sticky: the first failure is recorded, the
// cursor jumps to the end of the input, and every later read returns a
// zero value. A decoder therefore reads a whole record straight through
// and checks Err (or Done) once, instead of testing an error after every
// field. Failures wrap ErrTruncated or ErrBadRecord, and each format
// re-types them with its own sentinels. The error values are built out
// of line, so the inlined read paths carry no formatting code.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Base decode errors, matchable with errors.Is through every wrapping.
var (
	// ErrTruncated means the input ended inside a field.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrBadRecord means a structurally invalid field: a malformed
	// varint, a length or count beyond the remaining input, a value out
	// of range, or trailing bytes.
	ErrBadRecord = errors.New("wire: bad record")
)

// AppendUvarint appends v as an unsigned LEB128 varint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zigzag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte (0 or 1).
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat64 appends f as its IEEE 754 bits, 8 bytes little-endian.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// Reader decodes the encodings above from a byte slice.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Offset returns the cursor's byte offset in the input.
func (r *Reader) Offset() int { return r.off }

// Done returns the first failure, or ErrBadRecord when unread bytes
// remain: a complete record consumes its input exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.off < len(r.buf) && r.buf[r.off] < 0x80 {
		v := r.buf[r.off]
		r.off++
		return uint64(v)
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.varintFailure(n)
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.varintFailure(n)
		return 0
	}
	r.off += n
	return v
}

// Byte reads one raw byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.buf) {
		r.truncated()
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Failf("bool byte out of range")
	return false
}

// Bytes reads n raw bytes. The result aliases the input.
func (r *Reader) Bytes(n int) []byte {
	if n < 0 || n > len(r.buf)-r.off {
		r.truncated()
		return nil
	}
	v := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if n > uint64(len(r.buf)-r.off) {
		r.Failf("string length %d exceeds remaining input", n)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// Float64 reads 8 bytes of IEEE 754 bits.
func (r *Reader) Float64() float64 {
	b := r.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Count reads a collection length. Every element costs at least one
// byte, so a count beyond the remaining input is rejected before it can
// drive an allocation.
func (r *Reader) Count(name string) int {
	v := r.Uvarint()
	if v > uint64(len(r.buf)-r.off) {
		r.Failf("%s count %d exceeds remaining input", name, v)
		return 0
	}
	return int(v)
}

// Failf records an ErrBadRecord failure (unless one is already recorded)
// and stops the Reader. Format decoders use it for their own range and
// consistency checks, so those failures share the sticky error.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrBadRecord, fmt.Sprintf(format, args...), r.off)
	}
	r.off = len(r.buf)
}

// Retype re-types a Reader failure with a format's own sentinels: an
// ErrTruncated failure wraps truncated, any other wraps badRecord, and
// both keep the wire error in the chain. It returns nil for nil.
func Retype(err, truncated, badRecord error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTruncated):
		return fmt.Errorf("%w: %w", truncated, err)
	default:
		return fmt.Errorf("%w: %w", badRecord, err)
	}
}

// truncated records an ErrTruncated failure and stops the Reader.
//
//go:noinline
func (r *Reader) truncated() {
	if r.err == nil {
		r.err = fmt.Errorf("%w at offset %d", ErrTruncated, r.off)
	}
	r.off = len(r.buf)
}

// varintFailure records the failure binary.Uvarint/Varint signalled with
// n: 0 for a buffer that ends mid-varint, negative for an overflow.
//
//go:noinline
func (r *Reader) varintFailure(n int) {
	if n == 0 {
		r.truncated()
		return
	}
	r.Failf("varint overflow")
}
