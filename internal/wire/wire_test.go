package wire

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 0)
	b = AppendUvarint(b, 1<<63)
	b = AppendVarint(b, -5)
	b = AppendVarint(b, math.MaxInt64)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = AppendString(b, "")
	b = AppendString(b, "vdom")
	b = AppendFloat64(b, 0.125)

	r := NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 1<<63 {
		t.Errorf("Uvarint = %d, want 1<<63", v)
	}
	if v := r.Varint(); v != -5 {
		t.Errorf("Varint = %d, want -5", v)
	}
	if v := r.Varint(); v != math.MaxInt64 {
		t.Errorf("Varint = %d, want MaxInt64", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	if s := r.String(); s != "" {
		t.Errorf("String = %q, want empty", s)
	}
	if s := r.String(); s != "vdom" {
		t.Errorf("String = %q, want vdom", s)
	}
	if f := r.Float64(); f != 0.125 {
		t.Errorf("Float64 = %v, want 0.125", f)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

// TestStickyError checks that the first failure sticks: later reads
// return zero values and leave the recorded error (and its offset) alone.
func TestStickyError(t *testing.T) {
	r := NewReader([]byte{0x05, 0x80})
	if v := r.Uvarint(); v != 5 {
		t.Fatalf("Uvarint = %d, want 5", v)
	}
	if v := r.Uvarint(); v != 0 || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("mid-varint end: got %d, %v; want 0, ErrTruncated", v, r.Err())
	}
	first := r.Err()
	if !strings.Contains(first.Error(), "offset 1") {
		t.Errorf("error %q does not carry offset 1", first)
	}
	if r.Uvarint() != 0 || r.String() != "" || r.Bool() || r.Count("x") != 0 || r.Bytes(1) != nil {
		t.Error("reads after a failure returned non-zero values")
	}
	r.Failf("later failure")
	if r.Err() != first || r.Done() != first {
		t.Errorf("sticky error replaced: %v", r.Err())
	}
}

// TestCountCap checks that a collection count is bounded by the bytes
// remaining, so a forged count cannot drive a huge allocation.
func TestCountCap(t *testing.T) {
	r := NewReader([]byte{3, 'a', 'b', 'c'})
	if n := r.Count("items"); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 3, nil", n, r.Err())
	}
	r = NewReader([]byte{4, 'a', 'b', 'c'})
	if n := r.Count("items"); n != 0 || !errors.Is(r.Err(), ErrBadRecord) {
		t.Fatalf("Count = %d, %v; want 0, ErrBadRecord", n, r.Err())
	}
	if !strings.Contains(r.Err().Error(), "items count 4") {
		t.Errorf("error %q does not name the count", r.Err())
	}
	r = NewReader(AppendUvarint(nil, 1<<40))
	if _ = r.String(); !errors.Is(r.Err(), ErrBadRecord) {
		t.Errorf("oversized string length: got %v, want ErrBadRecord", r.Err())
	}
}

func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2})
	r.Uvarint()
	if err := r.Done(); !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), "1 trailing bytes") {
		t.Fatalf("Done = %v, want ErrBadRecord naming 1 trailing byte", err)
	}
}

func TestMalformedFields(t *testing.T) {
	overflow := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	for name, read := range map[string]func(*Reader){
		"uvarint overflow": func(r *Reader) { r.Uvarint() },
		"varint overflow":  func(r *Reader) { r.Varint() },
	} {
		r := NewReader(overflow)
		read(r)
		if !errors.Is(r.Err(), ErrBadRecord) {
			t.Errorf("%s: got %v, want ErrBadRecord", name, r.Err())
		}
	}
	r := NewReader([]byte{2})
	if r.Bool(); !errors.Is(r.Err(), ErrBadRecord) {
		t.Errorf("bool byte 2: got %v, want ErrBadRecord", r.Err())
	}
	r = NewReader([]byte{1, 2, 3})
	if r.Float64(); !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("short float: got %v, want ErrTruncated", r.Err())
	}
}

func TestRetype(t *testing.T) {
	truncated, bad := errors.New("fmt: truncated"), errors.New("fmt: bad record")
	if err := Retype(nil, truncated, bad); err != nil {
		t.Fatalf("Retype(nil) = %v", err)
	}
	r := NewReader([]byte{0x80})
	r.Uvarint()
	if err := Retype(r.Err(), truncated, bad); !errors.Is(err, truncated) || errors.Is(err, bad) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated varint re-typed as %v", err)
	}
	r = NewReader(nil)
	r.Failf("out of range")
	if err := Retype(r.Err(), truncated, bad); !errors.Is(err, bad) || errors.Is(err, truncated) || !errors.Is(err, ErrBadRecord) {
		t.Fatalf("bad record re-typed as %v", err)
	}
}
