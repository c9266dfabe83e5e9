package replay

import (
	"errors"
	"reflect"
	"testing"

	"vdom/internal/core"
	"vdom/internal/tap"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	want := fuzzSeedTrace()
	got, err := Decode(Encode(want))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\n want %+v\n  got %+v", want, got)
	}
}

func TestDecodeRejectsEveryTruncation(t *testing.T) {
	full := Encode(fuzzSeedTrace())
	for i := 0; i < len(full); i++ {
		_, err := Decode(full[:i])
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", i, len(full))
		}
		if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) {
			t.Fatalf("prefix %d: untyped error %v", i, err)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := append(Encode(fuzzSeedTrace()), 0xff)
	if _, err := Decode(data); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("trailing byte: got %v, want ErrBadRecord", err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	data := Encode(fuzzSeedTrace())
	data[0] = 'X'
	if _, err := Decode(data); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestDecodeBadVersion(t *testing.T) {
	tr := fuzzSeedTrace()
	tr.Header.Version = FormatVersion + 1
	if _, err := Decode(Encode(tr)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("got %v, want ErrBadVersion", err)
	}
}

// TestDecodeBadOp checks Decode rejects an event whose op or error code
// is undefined, rather than replaying it as a divergence named "other".
func TestDecodeBadOp(t *testing.T) {
	for _, e := range []Event{
		{Op: tap.OpInvalid},
		{Op: tap.OpDptiExit + 1},
		{Op: tap.OpMmap, Err: tap.CodeDomainCapacity + 1},
		{Op: tap.OpMmap, Err: tap.CodeOther - 1},
	} {
		tr := fuzzSeedTrace()
		tr.Events = append(tr.Events, e)
		if _, err := Decode(Encode(tr)); !errors.Is(err, ErrBadRecord) {
			t.Fatalf("op %d err %d: got %v, want ErrBadRecord", e.Op, e.Err, err)
		}
	}
}

// TestPolicyHeaderRoundTrip checks the one core.Policy <-> header
// translation over every combination of Policy's bools with a
// non-default flush threshold and nas: Header.Policy and SpecFromHeader
// both return exactly the policy SetPolicy wrote, through an encode and
// decode too, and SetPolicy leaves the non-policy flag bits alone.
func TestPolicyHeaderRoundTrip(t *testing.T) {
	for bits := 0; bits < 8; bits++ {
		want := core.Policy{
			SecureGate:               bits&1 != 0,
			NoPMDOpt:                 bits&2 != 0,
			StrictLRU:                bits&4 != 0,
			RangeFlushThresholdPages: 1024,
			DefaultNas:               7,
		}
		h := Header{Version: FormatVersion, Kernel: KernelVDom, Arch: "x86", Cores: 2,
			Flags: HdrVDomKernel | HdrNoASID | hdrPolicy}
		h.SetPolicy(want)
		if got := h.Policy(); got != want {
			t.Errorf("Header.Policy() = %+v, want %+v", got, want)
		}
		if got := SpecFromHeader(h).Policy; got != want {
			t.Errorf("SpecFromHeader(h).Policy = %+v, want %+v", got, want)
		}
		if h.Flags&^hdrPolicy != HdrVDomKernel|HdrNoASID {
			t.Errorf("SetPolicy changed non-policy flags: %#x", h.Flags)
		}
		tr, err := Decode(Encode(&Trace{Header: h}))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got := tr.Header.Policy(); got != want {
			t.Errorf("decoded Header.Policy() = %+v, want %+v", got, want)
		}
	}
}
