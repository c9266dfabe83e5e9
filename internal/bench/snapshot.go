package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vdom/internal/chaos"
	"vdom/internal/par"
	"vdom/internal/replay"
)

// snapshotSoakOps returns the per-shard op count for the crash soak.
// Each shard runs twice (uninterrupted reference + crash run), so the
// shards are shorter than the plain chaos soak's.
func (o Options) snapshotSoakOps() int {
	if o.Quick {
		return 600
	}
	return 1500
}

// snapshotShards is the fixed shard count of the crash soak; the crash
// kind cycles through the three CrashKinds across shards.
const snapshotShards = 8

// SnapshotSoak runs the crash-fault soak on the Options.Kernel soak
// driver (vdom or dpti): each shard soaks a machine under the soak fault
// mix, strikes one crash fault (core crash, kernel panic, torn domain
// map — cycling across shards) mid-run, recovers via checkpoint restore
// + trace-tail replay, and verifies the recovered run's trace is
// byte-identical to an uninterrupted run of the same seed. Failing
// shards dump their checkpoint and reference trace into
// Options.TraceDump as a standalone reproducer for `vdom-bench recover`;
// Options.SoakReport captures the per-shard JSON report.
func SnapshotSoak(w io.Writer, o Options, seed uint64) error {
	kern, err := soakKernel(o.Kernel)
	if err != nil {
		return err
	}
	ops := o.snapshotSoakOps()
	type shard struct {
		out       *chaos.CrashOutcome
		ref       *chaos.SoakResult
		err       error
		identical bool
	}
	ctx := o.ctx()
	crashCfg := chaos.CrashConfig{AtOp: 5*ops/8 + 1, CheckpointEvery: ops / 4, Ctx: ctx}
	runShard := func(i int) shard {
		cfg := chaos.SoakConfig{Chaos: soakFaults(kern, seed+uint64(i)), Ops: ops, Kernel: kern, Record: true}
		cc := crashCfg
		cc.Kind = chaos.CrashKind(i % 3)
		// The reference run honors the same -timeout cancellation as the
		// crash run it is compared against.
		r := chaos.StartSoak(cfg)
		if err := stepSoak(ctx, r); err != nil {
			return shard{err: fmt.Errorf("reference soak %w", err)}
		}
		ref := r.Finish()
		out, err := chaos.CrashSoak(cfg, cc)
		s := shard{out: out, ref: ref, err: err}
		if err == nil && out.Result != nil && ref.Trace != nil {
			s.identical = string(replay.Encode(ref.Trace)) == string(replay.Encode(out.Result.Trace))
		}
		return s
	}
	jobs := make([]func() shard, snapshotShards)
	for i := range jobs {
		i := i
		jobs[i] = func() shard { return runShard(i) }
	}
	shards := par.Map(o.workers(), jobs)

	// Dump failing shards' reproducers (checkpoint + reference trace)
	// before reporting, so the artifact paths land in the JSON report.
	// Shard 0's reproducer is dumped even when healthy, giving CI a
	// standing artifact to smoke `vdom-bench recover` against.
	var artifactErr error
	snapPaths := map[int]string{}
	if o.TraceDump != "" {
		if err := os.MkdirAll(o.TraceDump, 0o755); err != nil {
			return err
		}
		for i, s := range shards {
			if s.err == nil && s.identical && i != 0 {
				continue
			}
			if s.out != nil && len(s.out.Snapshot) > 0 {
				path := filepath.Join(o.TraceDump, fmt.Sprintf("crash-shard%d.snap", i))
				if err := os.WriteFile(path, s.out.Snapshot, 0o644); err != nil {
					artifactErr = err
				} else {
					snapPaths[i] = path
				}
			}
			if s.ref != nil && s.ref.Trace != nil {
				path := filepath.Join(o.TraceDump, fmt.Sprintf("crash-shard%d.trace", i))
				if err := os.WriteFile(path, replay.Encode(s.ref.Trace), 0o644); err != nil {
					artifactErr = err
				}
			}
		}
	}

	title := "Crash soak"
	if kern != replay.KernelVDom {
		title += " (" + kern + " kernel)"
	}
	t := &Table{
		Title: fmt.Sprintf("%s: %d shards x %d ops, seed %d (replayable): checkpoint -> crash -> restore + tail replay",
			title, snapshotShards, ops, seed),
		Columns: []string{"shard", "crash", "detected by", "ckpt op", "tail events", "recovered", "bit-identical"},
	}
	failures := 0
	for i, s := range shards {
		kind := chaos.CrashKind(i % 3).String()
		if s.err != nil {
			failures++
			t.Row(fmt.Sprintf("%d", i), kind, "-", "-", "-", fmt.Sprintf("NO: %v", s.err), "no")
			continue
		}
		ok := "yes"
		if !s.identical {
			failures++
			ok = "NO"
		}
		t.Row(fmt.Sprintf("%d", i), kind, s.out.DetectedBy,
			fmt.Sprintf("%d", s.out.CheckpointOp),
			fmt.Sprintf("%d", s.out.TailEvents), "yes", ok)
	}
	o.Render(w, t)
	if failures == 0 {
		fmt.Fprintf(w, "\nverdict: RECOVERED — every shard restored to a bit-identical run\n")
	} else {
		fmt.Fprintf(w, "\nverdict: FAILED — %d of %d shards did not recover bit-identically\n", failures, snapshotShards)
	}

	if o.SoakReport != "" {
		srs := make([]chaos.ShardReport, len(shards))
		for i, s := range shards {
			res := s.ref
			if s.out != nil && s.out.Result != nil {
				res = s.out.Result
			}
			if res == nil {
				res = &chaos.SoakResult{}
			}
			srs[i] = chaos.NewShardReport(i, seed+uint64(i), res)
			cs := &chaos.CrashShard{Kind: chaos.CrashKind(i % 3).String(), Identical: s.identical}
			if s.out != nil {
				cs.CheckpointOp = s.out.CheckpointOp
				cs.CrashOp = s.out.CrashOp
				cs.DetectedBy = s.out.DetectedBy
				cs.TailEvents = s.out.TailEvents
				cs.SnapshotPath = snapPaths[i]
			}
			if s.err != nil {
				srs[i].Unrecovered = append(srs[i].Unrecovered, fmt.Sprintf("crash recovery: %v", s.err))
			} else if !s.identical {
				srs[i].Unrecovered = append(srs[i].Unrecovered, "recovered run diverged from uninterrupted reference")
			}
			srs[i].Crash = cs
		}
		f, err := os.Create(o.SoakReport)
		if err != nil {
			return err
		}
		if err := chaos.NewReport(seed, srs).WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if artifactErr != nil {
		return artifactErr
	}
	if failures > 0 {
		// A -timeout expiry shows up as per-shard cancellation errors;
		// name the real cause instead of a misleading identity verdict.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("crash soak cancelled (%d of %d shards incomplete): %w", failures, snapshotShards, err)
		}
		return fmt.Errorf("%d of %d crash shards failed to recover bit-identically", failures, snapshotShards)
	}
	return nil
}

// Recover re-runs a crash recovery from persisted reproducer artifacts:
// Options.SnapPath (the vdom-snap/v2 checkpoint) and Options.TailPath
// (the recorded trace). It restores the checkpoint, replays the trace
// tail from the checkpoint's event index, audits the recovered System,
// and reports the outcome; a divergence or audit violation is an error.
func Recover(w io.Writer, o Options) error {
	if o.SnapPath == "" || o.TailPath == "" {
		return errors.New("recover needs -snap <checkpoint> and -tail <trace>")
	}
	snap, err := os.ReadFile(o.SnapPath)
	if err != nil {
		return err
	}
	tailBytes, err := os.ReadFile(o.TailPath)
	if err != nil {
		return err
	}
	tail, err := replay.Decode(tailBytes)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", o.TailPath, err)
	}
	rec, err := chaos.RecoverFromArtifacts(snap, tail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "recover: restored %s (%d bytes), replayed %d tail events of %d total\n",
		o.SnapPath, len(snap), rec.TailEvents, len(tail.Events))
	if len(rec.Violations) > 0 {
		for _, v := range rec.Violations {
			fmt.Fprintf(w, "  violation: %s\n", v)
		}
		return fmt.Errorf("recovered system failed audit with %d violation(s)", len(rec.Violations))
	}
	fmt.Fprintf(w, "recover: audit clean — recovered System is coherent\n")
	return nil
}
