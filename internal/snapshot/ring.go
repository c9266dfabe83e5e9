package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Ring is a rolling on-disk checkpoint ring: the last Cap vdom-snap/v2
// snapshots of one shard, newest last. The supervised soak service
// (internal/serve) appends a checkpoint every cadence and recovers from
// the newest entry that still decodes — a corrupted or torn entry is
// detected by the container's CRCs and skipped, falling back to the
// previous one (see RECOVERY.md).
//
// Writes are atomic: each entry is written to a temp file in the same
// directory, fsync'd, and renamed into place, so a crash mid-write can
// never leave a half-visible entry under the ring's naming scheme. After
// every append the ring prunes to its capacity (and, when MaxAge is set,
// drops entries older than MaxAge — always keeping the newest), so disk
// use is bounded on an indefinitely running service.
type Ring struct {
	dir    string
	name   string
	cap    int
	maxAge time.Duration

	seq     uint64
	entries []RingEntry // oldest → newest
}

// RingEntry describes one checkpoint in the ring.
type RingEntry struct {
	// Path is the entry's file.
	Path string
	// Op is the workload op the checkpoint was taken after.
	Op int
	// Seq is the ring-wide append sequence number (monotonic, from 1).
	Seq uint64
	// Size is the encoded snapshot's size in bytes.
	Size int64
	// When is the entry's write (or scan) time; age pruning uses it.
	When time.Time
}

// NewRing opens (or creates) a ring in dir. name prefixes every entry
// file, so several shards can share a directory; cap bounds the entry
// count. Entries left by a previous process under the same (dir, name)
// are adopted in sequence order, so a restarted service resumes from its
// persisted checkpoints.
func NewRing(dir, name string, cap int) (*Ring, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("snapshot: ring capacity must be positive, got %d", cap)
	}
	if name == "" || strings.ContainsAny(name, "/-") {
		return nil, fmt.Errorf("snapshot: ring name %q must be non-empty and free of '/' and '-'", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &Ring{dir: dir, name: name, cap: cap}
	if err := r.scan(); err != nil {
		return nil, err
	}
	r.prune(time.Now())
	return r, nil
}

// SetMaxAge enables age-based pruning: entries older than d are removed
// on the next append (the newest entry is always kept). d <= 0 disables.
func (r *Ring) SetMaxAge(d time.Duration) { r.maxAge = d }

// Len returns the current entry count; Cap the configured capacity.
func (r *Ring) Len() int { return len(r.entries) }

// Cap returns the ring's capacity.
func (r *Ring) Cap() int { return r.cap }

// Entries returns a copy of the ring's entries, oldest first.
func (r *Ring) Entries() []RingEntry {
	return append([]RingEntry(nil), r.entries...)
}

// entryFile names an entry; the zero-padded sequence keeps lexical and
// append order identical for the restart scan.
func (r *Ring) entryFile(seq uint64, op int) string {
	return fmt.Sprintf("%s-%08d-op%d.snap", r.name, seq, op)
}

// scan adopts entries persisted by a previous run of the same ring.
func (r *Ring) scan() error {
	names, err := filepath.Glob(filepath.Join(r.dir, r.name+"-*.snap"))
	if err != nil {
		return err
	}
	for _, path := range names {
		var seq uint64
		var op int
		base := strings.TrimPrefix(filepath.Base(path), r.name+"-")
		if n, err := fmt.Sscanf(base, "%d-op%d.snap", &seq, &op); err != nil || n != 2 {
			continue // foreign file; leave it alone
		}
		info, err := os.Stat(path)
		if err != nil {
			continue
		}
		r.entries = append(r.entries, RingEntry{Path: path, Op: op, Seq: seq, Size: info.Size(), When: info.ModTime()})
		if seq > r.seq {
			r.seq = seq
		}
	}
	sort.Slice(r.entries, func(i, j int) bool { return r.entries[i].Seq < r.entries[j].Seq })
	return nil
}

// Append writes one encoded snapshot as the ring's newest entry —
// temp file, fsync, rename — and prunes the ring to capacity.
func (r *Ring) Append(op int, data []byte) (RingEntry, error) {
	r.seq++
	path := filepath.Join(r.dir, r.entryFile(r.seq, op))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return RingEntry{}, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return RingEntry{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return RingEntry{}, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return RingEntry{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return RingEntry{}, err
	}
	syncDir(r.dir)
	e := RingEntry{Path: path, Op: op, Seq: r.seq, Size: int64(len(data)), When: time.Now()}
	r.entries = append(r.entries, e)
	r.prune(e.When)
	return e, nil
}

// prune drops entries beyond capacity and, with MaxAge set, entries
// older than now-MaxAge — always keeping the newest entry so recovery
// never loses its last resort.
func (r *Ring) prune(now time.Time) {
	for len(r.entries) > r.cap {
		os.Remove(r.entries[0].Path)
		r.entries = r.entries[1:]
	}
	if r.maxAge <= 0 {
		return
	}
	cutoff := now.Add(-r.maxAge)
	for len(r.entries) > 1 && r.entries[0].When.Before(cutoff) {
		os.Remove(r.entries[0].Path)
		r.entries = r.entries[1:]
	}
}

// LatestGood returns the newest entry whose container still decodes —
// magic, structure, and every section CRC verified — walking older
// entries when the newest is corrupt. skipped counts the entries passed
// over; the caller surfaces it as ring-fallback telemetry. With no
// decodable entry left, the last decode failure is returned (wrapped),
// typed per the container's sentinel errors.
func (r *Ring) LatestGood() (data []byte, e RingEntry, skipped int, err error) {
	if len(r.entries) == 0 {
		return nil, RingEntry{}, 0, fmt.Errorf("%w: checkpoint ring is empty", ErrBadRecord)
	}
	var lastErr error
	for i := len(r.entries) - 1; i >= 0; i-- {
		ent := r.entries[i]
		b, rerr := os.ReadFile(ent.Path)
		if rerr == nil {
			if _, derr := Decode(b); derr == nil {
				return b, ent, skipped, nil
			} else {
				rerr = derr
			}
		}
		lastErr = fmt.Errorf("ring entry %s: %w", filepath.Base(ent.Path), rerr)
		skipped++
	}
	return nil, RingEntry{}, skipped, fmt.Errorf("snapshot: no recoverable checkpoint in ring: %w", lastErr)
}

// syncDir fsyncs a directory so a rename is durable before the entry is
// trusted; filesystems that refuse directory fsync are tolerated.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
