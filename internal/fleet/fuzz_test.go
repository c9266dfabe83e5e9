package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzFleetDecode hammers every vdom-fleet/v1 decoder with arbitrary
// bytes: whatever a faulted transport delivers, decoding must return a
// typed sentinel — never panic, never allocate unboundedly. Whatever
// does decode must survive an encode/decode round trip unchanged, which
// catches a field the encoder drops or writes differently from how the
// decoder reads it.
func FuzzFleetDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHello(Hello{Version: ProtocolVersion, Worker: 1}))
	f.Add(EncodeAssign(Assign{ID: 9, Spec: CellSpec{Grid: "fig5:X86:1024", Index: 3, Seed: 7, Kernel: "dpti", Flags: 5}}))
	f.Add(EncodeResult(Result{ID: 9, Cell: CellResult{Text: "row\n", Total: 42, Metrics: []byte(`{}`), Aux: []byte{1}}}))
	f.Add(EncodeHeartbeat(Heartbeat{Worker: 1, Cell: 9, Beat: 3}))
	var framed bytes.Buffer
	WriteFrame(&framed, FrameAssign, EncodeAssign(Assign{ID: 1, Spec: CellSpec{Grid: "table4"}}))
	WriteFrame(&framed, FrameShutdown, nil)
	f.Add(framed.Bytes())
	f.Add([]byte("VDFL\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))

	typed := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || err == io.EOF {
			return
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
			!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) &&
			!errors.Is(err, ErrBadDigest) {
			t.Fatalf("untyped decode error: %v", err)
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		decode := func(ft FrameType, payload []byte) {
			t.Helper()
			var err error
			switch ft {
			case FrameHello:
				err = fixedPoint(t, payload, DecodeHello, EncodeHello)
			case FrameAssign:
				err = fixedPoint(t, payload, DecodeAssign, EncodeAssign)
			case FrameResult:
				err = fixedPoint(t, payload, DecodeResult, EncodeResult)
			case FrameHeartbeat:
				err = fixedPoint(t, payload, DecodeHeartbeat, EncodeHeartbeat)
			}
			typed(t, err)
		}
		for ft := FrameHello; ft <= FrameHeartbeat; ft++ {
			decode(ft, data)
		}

		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			ft, payload, err := ReadFrame(br)
			if err != nil {
				typed(t, err)
				break
			}
			decode(ft, payload)
		}
	})
}

// fixedPoint decodes data and, when that succeeds, fails the test
// unless re-encoding and decoding again yields an equal value.
func fixedPoint[T any](t *testing.T, data []byte, dec func([]byte) (T, error), enc func(T) []byte) error {
	t.Helper()
	v, err := dec(data)
	if err != nil {
		return err
	}
	if again, err := dec(enc(v)); err != nil || !reflect.DeepEqual(v, again) {
		t.Fatalf("round trip is not a fixed point: %+v -> %+v, %v", v, again, err)
	}
	return nil
}
