package replay

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"vdom/internal/core"
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

func TestDecodeBadOp(t *testing.T) {
	tr := fuzzSeedTrace()
	tr.Events = append(tr.Events, Event{Op: opMax + 1})
	if _, err := Decode(Encode(tr)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("got %v, want ErrBadRecord", err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	for _, want := range []*Trace{
		fuzzSeedTrace(),
		// Partial trace: no end state.
		{Header: Header{Version: FormatVersion, Kernel: KernelEPK, Arch: "arm", Domains: 2, Workload: "p"},
			Events: []Event{{TID: 1, Op: OpEpkSwitch, Dom: 1, Cost: 3}}},
	} {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, want); err != nil {
			t.Fatalf("WriteJSONL: %v", err)
		}
		got, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("ReadJSONL: %v", err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("jsonl round trip mismatch:\n want %+v\n  got %+v", want, got)
		}
	}
}

func TestJSONLRejectsForeignFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, fuzzSeedTrace()); err != nil {
		t.Fatal(err)
	}
	text := strings.Replace(buf.String(), FormatName, "vdom-trace/v9", 1)
	if _, err := ReadJSONL(strings.NewReader(text)); err == nil {
		t.Fatal("accepted a foreign format tag")
	}
}

func TestOpNamesRoundTrip(t *testing.T) {
	for o := OpSpawn; o <= opMax; o++ {
		name := o.String()
		if name == "" || strings.Contains(name, "invalid") {
			t.Fatalf("op %d has no name", o)
		}
		back, ok := opFromName(name)
		if !ok || back != o {
			t.Fatalf("opFromName(%q) = %v, %v; want %v", name, back, ok, o)
		}
	}
	if _, ok := opFromName("no-such-op"); ok {
		t.Fatal("opFromName accepted a bogus name")
	}
}

func TestErrCodeNamesRoundTrip(t *testing.T) {
	codes := []ErrCode{CodeOK, CodeSigsegv, CodeBlocked, CodeNoVDR, CodeDenied, CodeReassign,
		CodeFreedVdom, CodeNoResources, CodeExhausted, CodeDegraded, CodeNoFreeKey,
		CodeUnknownKey, CodeBadRange, CodeNoMapping, CodeUnknownDomain, CodeNoASID,
		CodeDomainCapacity, CodeOther}
	for _, c := range codes {
		if got := errCodeFromName(c.String()); got != c {
			t.Fatalf("errCodeFromName(%q) = %v, want %v", c.String(), got, c)
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
