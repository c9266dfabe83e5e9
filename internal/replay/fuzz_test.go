package replay

import (
	"bytes"
	"errors"
	"testing"

	"vdom/internal/tap"
)

// fuzzSeedTrace is a small but representative trace exercising every
// header field, Extra/End maps, and a spread of ops.
func fuzzSeedTrace() *Trace {
	return &Trace{
		Header: Header{
			Version: FormatVersion, Kernel: KernelVDom, Arch: "x86",
			Cores: 4, TLBCap: 64, Seed: 42, Workload: "fuzz",
			ConfigDigest: 7, Flags: HdrVDomKernel | HdrSecureGate,
			FlushThreshold: 64, Nas: 4, Domains: 3,
			Extra: map[string]uint64{"chaos/seed": 9},
		},
		Events: []Event{
			{Time: 0, TID: 1, Op: tap.OpSpawn, Len: 0},
			{Time: 0, TID: 1, Op: tap.OpMmap, Addr: 0x1000, Len: 4096, Flags: FlagWrite, Cost: 900},
			{Time: 900, TID: 1, Op: tap.OpVdomAlloc, Dom: 2, Flags: FlagFreq, Cost: 50},
			{Time: 950, TID: 1, Op: tap.OpVdrWrite, Dom: 2, Perm: 3, Cost: 120, Err: tap.CodeOK},
			{Time: 1070, TID: 1, Op: tap.OpAccess, Addr: 0x1000, Flags: FlagWrite, Cost: 30, Err: tap.CodeSigsegv},
		},
		End: map[string]uint64{"clock": 1100},
	}
}

// FuzzTraceDecode hammers the binary decoder with arbitrary bytes: it
// must never panic (no allocation blow-ups on forged counts, no index
// overruns on truncated records) and must classify every rejection as
// one of the typed format errors. Accepted inputs must re-encode into
// the canonical form, which must decode back to the identical trace.
func FuzzTraceDecode(f *testing.F) {
	f.Add(Encode(fuzzSeedTrace()))
	f.Add(Encode(&Trace{Header: Header{Version: FormatVersion, Kernel: KernelEPK, Arch: "arm", Domains: 2,
		Workload: "tiny"}, Events: []Event{{TID: 3, Op: tap.OpEpkSwitch, Dom: 1, Cost: 400}}}))
	// A partial trace (no end state), as chaos failure dumps are.
	f.Add(Encode(&Trace{Header: Header{Version: FormatVersion, Kernel: KernelLibmpk, Arch: "x86", Cores: 2,
		Workload: "partial"}, Events: []Event{{TID: 1, Op: tap.OpSpawn}}}))
	// Corrupted prefixes of a valid encoding.
	full := Encode(fuzzSeedTrace())
	f.Add(full[:len(full)/2])
	f.Add(full[:4])
	f.Add([]byte("VDTR"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadRecord) {
				t.Fatalf("Decode returned an untyped error: %v", err)
			}
			return
		}
		// Accepted input: the canonical re-encoding must round-trip.
		enc := Encode(tr)
		tr2, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding did not decode: %v", err)
		}
		if !bytes.Equal(enc, Encode(tr2)) {
			t.Fatal("canonical encoding is not a fixed point")
		}
	})
}
