package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{Version: ProtocolVersion, Worker: 3}
	assign := Assign{ID: 42, Spec: CellSpec{
		Grid: "fig5:X86:65536", Index: 7, Seed: 0xfeedface,
		Kernel: "dpti", Arch: "RISCV", Flags: FlagQuick | FlagTrace, Spec: "x",
	}}
	result := Result{ID: 42, Cell: CellResult{
		Text: "row\n", Total: 123456,
		Metrics: []byte(`{"a":1}`), Trace: []byte(`{"traceEvents":[]}`),
		Aux: []byte{0, 1, 2, 255}, Err: "",
	}}
	// A failed cell carries no byte fields; they must come back nil.
	failed := Result{ID: 43, Cell: CellResult{Err: "cell failed"}}
	beat := Heartbeat{Worker: 3, Cell: 42, Beat: 9}

	// The golden bytes pin the vdom-fleet/v1 encoding of each frame
	// type; a codec change that alters them is a protocol break.
	for _, w := range []struct {
		t      FrameType
		p      []byte
		golden string
	}{
		{FrameHello, EncodeHello(hello), "5644464c01020103"},
		{FrameAssign, EncodeAssign(assign),
			"5644464c02242a0e666967353a5838363a363535333607cef5b7f70f0464707469055249534356050178"},
		{FrameResult, EncodeResult(result),
			"5644464c03342a0004726f770ac0c407077b2261223a317d127b2274726163654576656e7473223a5b5d7d04000102ffb199adfca4e3b2d8cc01"},
		{FrameResult, EncodeResult(failed),
			"5644464c031b2b0b63656c6c206661696c65640000000000badbe7c1c5e6f0f839"},
		{FrameHeartbeat, EncodeHeartbeat(beat), "5644464c0403032a09"},
		{FrameShutdown, nil, "5644464c0500"},
	} {
		var frame bytes.Buffer
		if err := WriteFrame(&frame, w.t, w.p); err != nil {
			t.Fatalf("WriteFrame(%d): %v", w.t, err)
		}
		if got := hex.EncodeToString(frame.Bytes()); got != w.golden {
			t.Errorf("frame %d bytes = %s, want golden %s", w.t, got, w.golden)
		}
		buf.Write(frame.Bytes())
	}

	br := bufio.NewReader(&buf)
	readOne := func(want FrameType) []byte {
		t.Helper()
		ft, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if ft != want {
			t.Fatalf("frame type = %d, want %d", ft, want)
		}
		return payload
	}

	if got, err := DecodeHello(readOne(FrameHello)); err != nil || got != hello {
		t.Fatalf("hello round-trip = %+v, %v; want %+v", got, err, hello)
	}
	if got, err := DecodeAssign(readOne(FrameAssign)); err != nil || !reflect.DeepEqual(got, assign) {
		t.Fatalf("assign round-trip = %+v, %v; want %+v", got, err, assign)
	}
	for _, want := range []Result{result, failed} {
		if got, err := DecodeResult(readOne(FrameResult)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("result round-trip = %+v, %v; want %+v", got, err, want)
		}
	}
	if got, err := DecodeHeartbeat(readOne(FrameHeartbeat)); err != nil || got != beat {
		t.Fatalf("heartbeat round-trip = %+v, %v; want %+v", got, err, beat)
	}
	readOne(FrameShutdown)
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

func TestReadFrameSentinels(t *testing.T) {
	frame := func(t FrameType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	good := frame(FrameHeartbeat, EncodeHeartbeat(Heartbeat{Worker: 1, Cell: 2, Beat: 3}))

	oversize := append([]byte{}, frameMagic[:]...)
	oversize = append(oversize, byte(FrameResult))
	oversize = binary.AppendUvarint(oversize, maxFramePayload+1)
	header := append(append([]byte{}, frameMagic[:]...), byte(FrameHello))

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", append([]byte("XXXX"), good[4:]...), ErrBadMagic},
		{"unknown type", frame(FrameType(99), nil), ErrBadRecord},
		{"truncated header", good[:2], ErrTruncated},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
		{"oversize payload length", oversize, ErrBadRecord},
		{"missing payload length", header, ErrTruncated},
		{"truncated payload length", append(header, 0x80, 0x80), ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestReadFrameLengthOverflow pins the class of a payload-length varint
// that overflows 64 bits: the frame is malformed, not truncated (the
// stream has bytes left), and the varint error stays in the chain.
func TestReadFrameLengthOverflow(t *testing.T) {
	data := append(append([]byte{}, frameMagic[:]...), byte(FrameHello))
	data = append(data, bytes.Repeat([]byte{0xff}, 10)...)
	data = append(data, 0x01)
	_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(data)))
	if !errors.Is(err, ErrBadRecord) || errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrame = %v, want ErrBadRecord only", err)
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("ReadFrame = %v, want the varint overflow kept in the chain", err)
	}
}

// TestDecodeSentinels pins the exact sentinel, and with it the fleet
// report's transport-error bucket, for each class of malformed payload.
func TestDecodeSentinels(t *testing.T) {
	u := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	hello := func(b []byte) error { _, err := DecodeHello(b); return err }
	assign := func(b []byte) error { _, err := DecodeAssign(b); return err }
	result := func(b []byte) error { _, err := DecodeResult(b); return err }
	beat := func(b []byte) error { _, err := DecodeHeartbeat(b); return err }
	// withGrid is an assign payload whose grid string is g.
	withGrid := func(g string) []byte { return EncodeAssign(Assign{ID: 1, Spec: CellSpec{Grid: g}}) }
	grid := withGrid("table4")
	digestFlip := EncodeResult(Result{ID: 7, Cell: CellResult{Text: "hello fleet", Total: 99}})
	digestFlip[3] ^= 0x01 // first Text byte: still decodable, digest now wrong

	cases := []struct {
		name   string
		decode func([]byte) error
		data   []byte
		want   error
		bucket string
	}{
		{"empty hello", hello, nil, ErrTruncated, "truncated"},
		{"truncated varint", beat, []byte{0x01, 0x80}, ErrTruncated, "truncated"},
		{"truncated assign", assign, grid[:len(grid)-1], ErrTruncated, "truncated"},
		{"varint overflow", beat, append(bytes.Repeat([]byte{0xff}, 10), 0x01), ErrBadRecord, "malformed"},
		{"string length past input", assign, append(u(1, 5), "ab"...), ErrBadRecord, "malformed"},
		{"forged string length", assign, u(1, 1<<40), ErrBadRecord, "malformed"},
		{"byte-field length past input", result, append(u(1, 0, 0, 0, 9), 'x'), ErrBadRecord, "malformed"},
		{"short string over cap", assign, withGrid(strings.Repeat("g", maxStringLen+1)), ErrBadRecord, "malformed"},
		{"hello worker over cap", hello, u(ProtocolVersion, maxWorker+1), ErrBadRecord, "malformed"},
		{"heartbeat worker over cap", beat, u(maxWorker+1, 1, 1), ErrBadRecord, "malformed"},
		{"cell index over cap", assign, EncodeAssign(Assign{Spec: CellSpec{Index: maxCellIndex + 1}}), ErrBadRecord, "malformed"},
		{"flags over MaxUint32", assign, append(u(1, 0, 0, 0, 0, 0, math.MaxUint32+1), 0), ErrBadRecord, "malformed"},
		{"trailing byte", hello, append(EncodeHello(Hello{Version: ProtocolVersion, Worker: 1}), 0), ErrBadRecord, "malformed"},
		{"version skew", hello, EncodeHello(Hello{Version: 99}), ErrBadVersion, "badVersion"},
		{"digest mismatch", result, digestFlip, ErrBadDigest, "badDigest"},
	}
	sentinels := []error{ErrBadMagic, ErrBadVersion, ErrTruncated, ErrBadRecord, ErrBadDigest}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.decode(tc.data)
			for _, s := range sentinels {
				if errors.Is(err, s) != (s == tc.want) {
					t.Fatalf("decode = %v, want exactly %v", err, tc.want)
				}
			}
			if got := classify(err); got != tc.bucket {
				t.Fatalf("classify(%v) = %q, want %q", err, got, tc.bucket)
			}
		})
	}

	// Only the rendered Text may exceed the short-string cap.
	long := Result{ID: 1, Cell: CellResult{Text: strings.Repeat("t", maxStringLen+1)}}
	if got, err := DecodeResult(EncodeResult(long)); err != nil || got.Cell.Text != long.Cell.Text {
		t.Fatalf("long Text round-trip: err = %v", err)
	}
}

func TestResultDigestRejectsCorruption(t *testing.T) {
	r := Result{ID: 7, Cell: CellResult{Text: "hello fleet", Total: 99, Aux: []byte{1, 2, 3}}}
	payload := EncodeResult(r)
	if _, err := DecodeResult(payload); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	// Flip one content byte: the frame still parses structurally, but
	// the digest must catch it.
	corrupt := append([]byte{}, payload...)
	corrupt[3] ^= 0x01
	if _, err := DecodeResult(corrupt); !errors.Is(err, ErrBadDigest) && !errors.Is(err, ErrBadRecord) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("corrupt decode = %v, want a typed sentinel", err)
	}
}
