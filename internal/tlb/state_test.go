package tlb

import (
	"errors"
	"testing"

	"vdom/internal/wire"
)

// readImage restores c from b and returns the reader's verdict.
func readImage(c Cache, b []byte) error {
	r := wire.NewReader(b)
	c.ReadState(r)
	return r.Done()
}

func validSlot(asid ASID, vpn uint64) slot {
	return slot{entry: mk(asid, vpn), valid: true, referenced: true}
}

// tlbImage hand-encodes a fully-associative image of the given slots.
func tlbImage(capacity int, slots ...slot) []byte {
	b := wire.AppendUvarint(nil, uint64(capacity))
	b = wire.AppendUvarint(b, 0) // hand
	b = wire.AppendUvarint(b, uint64(len(slots)))
	for _, s := range slots {
		b = appendSlot(b, s)
	}
	return appendStats(b, Stats{})
}

// setAssocImage hand-encodes a sets×ways image, slots set-major.
func setAssocImage(sets, ways int, slots ...slot) []byte {
	b := wire.AppendUvarint(nil, uint64(sets))
	b = wire.AppendUvarint(b, uint64(ways))
	for range sets {
		b = wire.AppendUvarint(b, 0)
	}
	for _, s := range slots {
		b = appendSlot(b, s)
	}
	return appendStats(b, Stats{})
}

// A TLB image with two valid slots for one (ASID, VPN) would leave a
// stale translation that Lookup cannot reach but Each and the auditor
// see, and that FlushPage cannot remove.
func TestReadStateRejectsDuplicateEntries(t *testing.T) {
	img := tlbImage(8, validSlot(1, 5), slot{}, validSlot(1, 5))
	if err := readImage(New(8), img); !errors.Is(err, wire.ErrBadRecord) {
		t.Fatalf("duplicate entries: err = %v, want ErrBadRecord", err)
	}
	// The same page under two ASIDs is two distinct entries.
	img = tlbImage(8, validSlot(1, 5), validSlot(2, 5))
	if err := readImage(New(8), img); err != nil {
		t.Fatalf("distinct ASIDs: %v", err)
	}
}

func TestSetAssocReadStateRejectsDuplicateEntries(t *testing.T) {
	img := setAssocImage(2, 2, validSlot(1, 4), validSlot(1, 4), slot{}, slot{})
	if err := readImage(NewSetAssoc(2, 2), img); !errors.Is(err, wire.ErrBadRecord) {
		t.Fatalf("duplicate entries: err = %v, want ErrBadRecord", err)
	}
}

func TestSetAssocReadStateRejectsMisplacedEntry(t *testing.T) {
	// vpn 3 belongs to set 1 of 2; an image holding it in set 0 would
	// leave an entry no lookup or page flush can find.
	img := setAssocImage(2, 2, validSlot(1, 3), slot{}, slot{}, slot{})
	if err := readImage(NewSetAssoc(2, 2), img); !errors.Is(err, wire.ErrBadRecord) {
		t.Fatalf("misplaced entry: err = %v, want ErrBadRecord", err)
	}
	img = setAssocImage(2, 2, slot{}, slot{}, validSlot(1, 3), slot{})
	if err := readImage(NewSetAssoc(2, 2), img); err != nil {
		t.Fatalf("entry in its own set: %v", err)
	}
}
