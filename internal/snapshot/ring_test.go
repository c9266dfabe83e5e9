package snapshot_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vdom/internal/replay"
	"vdom/internal/snapshot"
)

// ringSnap builds a small but valid encoded container, parameterized so
// entries are distinguishable.
func ringSnap(tag byte) []byte {
	st := &snapshot.State{Meta: snapshot.Meta{
		Header: replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 1},
		Clock:  uint64(tag),
	}}
	st.AddSection("payload", []byte{tag, tag, tag})
	return snapshot.Encode(st)
}

func TestRingAppendPrunesToCapacity(t *testing.T) {
	dir := t.TempDir()
	r, err := snapshot.NewRing(dir, "shard0", 3)
	if err != nil {
		t.Fatal(err)
	}
	for op := 1; op <= 5; op++ {
		if _, err := r.Append(op*100, ringSnap(byte(op))); err != nil {
			t.Fatalf("Append op %d: %v", op*100, err)
		}
	}
	if r.Len() != 3 || r.Cap() != 3 {
		t.Fatalf("Len/Cap = %d/%d, want 3/3", r.Len(), r.Cap())
	}
	ents := r.Entries()
	if ents[0].Op != 300 || ents[2].Op != 500 {
		t.Errorf("pruned ring holds ops %d..%d, want 300..500", ents[0].Op, ents[2].Op)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "shard0-*.snap"))
	if len(files) != 3 {
		t.Errorf("%d entry files on disk, want 3 (pruned entries must be removed)", len(files))
	}
	// No temp files may survive an append.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("stray temp files left behind: %v", tmps)
	}
}

func TestRingRestartAdoptsPersistedEntries(t *testing.T) {
	dir := t.TempDir()
	r, err := snapshot.NewRing(dir, "shard0", 4)
	if err != nil {
		t.Fatal(err)
	}
	for op := 1; op <= 3; op++ {
		if _, err := r.Append(op*10, ringSnap(byte(op))); err != nil {
			t.Fatal(err)
		}
	}

	// A new process opens the same (dir, name): it must adopt the old
	// entries in sequence order and continue the sequence.
	r2, err := snapshot.NewRing(dir, "shard0", 4)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 3 {
		t.Fatalf("restarted ring adopted %d entries, want 3", r2.Len())
	}
	if _, err := r2.Append(40, ringSnap(4)); err != nil {
		t.Fatal(err)
	}
	ents := r2.Entries()
	if ents[3].Op != 40 || ents[3].Seq <= ents[2].Seq {
		t.Errorf("post-restart append out of sequence: %+v", ents)
	}
	// A sibling shard in the same directory is invisible to this ring.
	if _, err := snapshot.NewRing(dir, "shard1", 4); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 4 {
		t.Errorf("sibling ring disturbed shard0's entries")
	}
}

// TestRingAdoptionSkipsForeignAndTornEntries opens a ring over a
// directory a previous process left in a hostile state: foreign files
// that merely resemble ring entries, a stray temp file, and a torn
// half-written entry (a crash on a filesystem that renamed before the
// data hit disk). Adoption must take only genuine entries, LatestGood
// must skip the torn one without error, and pruning must never delete a
// file the ring does not own.
func TestRingAdoptionSkipsForeignAndTornEntries(t *testing.T) {
	dir := t.TempDir()

	// Foreign occupants of the ring's directory: a sibling shard's entry,
	// a same-prefix file outside the naming scheme, an unrelated file,
	// and a stray temp from an interrupted append.
	foreign := []string{
		"other-00000001-op5.snap",
		"shard0-notes.snap",
		"README.txt",
		"shard0-00000009-op900.snap.tmp",
	}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a ring entry"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r, err := snapshot.NewRing(dir, "shard0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 {
		t.Fatalf("fresh ring adopted %d foreign files as entries: %+v", r.Len(), r.Entries())
	}
	if _, err := r.Append(10, ringSnap(1)); err != nil {
		t.Fatal(err)
	}
	torn, err := r.Append(20, ringSnap(2))
	if err != nil {
		t.Fatal(err)
	}
	// Tear the newest entry: half its bytes reached disk.
	full, err := os.ReadFile(torn.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn.Path, full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// A new process adopts the two genuine entries — and only them.
	r2, err := snapshot.NewRing(dir, "shard0", 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 {
		t.Fatalf("restarted ring adopted %d entries, want 2", r2.Len())
	}

	// The torn newest entry is skipped without error; recovery lands on
	// the older good one.
	data, ent, skipped, err := r2.LatestGood()
	if err != nil {
		t.Fatalf("LatestGood with a torn newest entry: %v", err)
	}
	if skipped != 1 || ent.Op != 10 {
		t.Errorf("LatestGood skipped %d landing on op %d, want 1 and 10", skipped, ent.Op)
	}
	if st, err := snapshot.Decode(data); err != nil || st.Meta.Clock != 1 {
		t.Errorf("recovered entry is not the good checkpoint: %v, %v", st, err)
	}

	// Appending past capacity prunes ring entries only: every foreign
	// file must survive.
	for op := 30; op <= 50; op += 10 {
		if _, err := r2.Append(op, ringSnap(byte(op/10))); err != nil {
			t.Fatal(err)
		}
	}
	if r2.Len() != 2 {
		t.Fatalf("Len = %d, want capacity 2", r2.Len())
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("pruning deleted foreign file %s: %v", name, err)
		}
	}
}

func TestRingLatestGoodFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	r, err := snapshot.NewRing(dir, "shard0", 4)
	if err != nil {
		t.Fatal(err)
	}
	good := ringSnap(1)
	if _, err := r.Append(100, good); err != nil {
		t.Fatal(err)
	}
	bad := ringSnap(2)
	bad[len(bad)-1] ^= 0xFF // corrupt the newest entry's last payload byte
	e2, err := r.Append(200, bad)
	if err != nil {
		t.Fatal(err)
	}

	data, ent, skipped, err := r.LatestGood()
	if err != nil {
		t.Fatalf("LatestGood: %v", err)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the corrupt newest entry)", skipped)
	}
	if ent.Op != 100 {
		t.Errorf("fell back to op %d, want 100", ent.Op)
	}
	if st, err := snapshot.Decode(data); err != nil || st.Meta.Clock != 1 {
		t.Errorf("recovered data is not the good entry: clock %v err %v", st, err)
	}

	// With every entry corrupt, the error is typed: the checksum failure
	// must surface through errors.Is.
	os.WriteFile(ents0Path(t, r), bad, 0o644)
	_, _, skipped, err = r.LatestGood()
	if err == nil {
		t.Fatal("LatestGood succeeded with every entry corrupt")
	}
	if skipped != 2 {
		t.Errorf("skipped = %d, want 2", skipped)
	}
	if !errors.Is(err, snapshot.ErrBadChecksum) {
		t.Errorf("errors.Is(%v, ErrBadChecksum) = false", err)
	}
	_ = e2
}

// ents0Path returns the oldest entry's path.
func ents0Path(t *testing.T, r *snapshot.Ring) string {
	t.Helper()
	ents := r.Entries()
	if len(ents) == 0 {
		t.Fatal("empty ring")
	}
	return ents[0].Path
}

func TestRingEmptyLatestGoodIsTyped(t *testing.T) {
	r, err := snapshot.NewRing(t.TempDir(), "shard0", 2)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, err = r.LatestGood()
	if !errors.Is(err, snapshot.ErrBadRecord) {
		t.Errorf("empty-ring error %v is not ErrBadRecord", err)
	}
}

func TestRingRejectsBadConfig(t *testing.T) {
	if _, err := snapshot.NewRing(t.TempDir(), "shard0", 0); err == nil {
		t.Error("cap 0 accepted")
	}
	if _, err := snapshot.NewRing(t.TempDir(), "a-b", 2); err == nil {
		t.Error("name with '-' accepted (would corrupt the scan format)")
	}
	if _, err := snapshot.NewRing(t.TempDir(), "", 2); err == nil {
		t.Error("empty name accepted")
	}
}
