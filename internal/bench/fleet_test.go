package bench

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"vdom/internal/fleet"
	"vdom/internal/metrics"
)

// memorySpawn builds in-memory pipe workers running the real fleet
// Worker loop over this package's grid executor: the full protocol —
// framing, heartbeats, digests — without subprocess overhead. Kill
// severs both pipes abruptly, the in-memory analogue of SIGKILL.
func memorySpawn() fleet.Spawn {
	exec := Executor(Options{})
	return func(id int) (*fleet.WorkerProc, error) {
		inR, inW := io.Pipe()
		outR, outW := io.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fleet.Worker(inR, outW, fleet.WorkerConfig{ID: id, HeartbeatEvery: 5 * time.Millisecond}, exec)
			outW.Close()
		}()
		var once sync.Once
		kill := func() {
			once.Do(func() {
				outR.CloseWithError(errors.New("killed"))
				inR.CloseWithError(errors.New("killed"))
			})
		}
		return &fleet.WorkerProc{
			In:   inW,
			Out:  outR,
			Kill: kill,
			Wait: func() error { <-done; return nil },
		}, nil
	}
}

// runExperiment executes one experiment under the given options and
// returns its rendered output, metrics snapshot, and trace bytes.
func runExperiment(t *testing.T, run func(io.Writer, Options), o Options) (table, snap, trace []byte) {
	t.Helper()
	o.Metrics = metrics.New()
	o.Trace = metrics.NewTrace()
	var tb, mb, jb bytes.Buffer
	run(&tb, o)
	if err := o.Metrics.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	if err := o.Trace.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes(), jb.Bytes()
}

// TestFleetByteIdentical is the fleet's core guarantee at the bench
// layer: sharding an experiment's grid across worker subprocesses —
// while a chaos hook kills one worker mid-cell and a seeded injector
// corrupts, duplicates, and delays frames in flight — produces rendered
// tables, metrics snapshots, and trace bytes identical to the
// single-process sequential reference.
func TestFleetByteIdentical(t *testing.T) {
	type experiment struct {
		name string
		run  func(w io.Writer, o Options)
		// wantKill requires the kill-one-worker chaos hook to have fired
		// and recovered; only meaningful on grids large enough that the
		// hook reliably finds a mid-cell worker to kill (a tiny grid can
		// drain before it ever catches one busy).
		wantKill bool
	}
	experiments := []experiment{
		{"tables", Tables, true},
		{"chaos", func(w io.Writer, o Options) {
			if err := ChaosSeed(w, o, 42); err != nil {
				t.Errorf("chaos: %v", err)
			}
		}, true},
		{"fig1", Fig1, false},
		{"unixbench", UnixBench, false},
	}
	for _, exp := range experiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			t.Parallel()
			tRef, mRef, jRef := runExperiment(t, exp.run, Options{Quick: true, Parallel: 1})
			for _, workers := range []int{2, 4} {
				fr := &FleetRun{
					Workers: workers,
					Spawn:   memorySpawn(),
					Faults: fleet.FaultConfig{
						Seed:    77,
						Corrupt: 0.01, Duplicate: 0.01, Delay: 0.02,
					},
					MaxAttempts: 10,
					KillAfter:   2,
					CellTimeout: time.Minute,
				}
				tF, mF, jF := runExperiment(t, exp.run, Options{Quick: true, FleetRun: fr})
				rep := fr.Report()
				if !rep.Healthy() {
					t.Fatalf("%d workers: fleet unhealthy: %+v", workers, rep)
				}
				if rep.Degraded {
					t.Fatalf("%d workers: fleet degraded with a working spawn: %+v", workers, rep)
				}
				if !bytes.Equal(tRef, tF) {
					t.Errorf("%d workers: rendered output differs from sequential reference:\n--- ref\n%s\n--- fleet\n%s", workers, tRef, tF)
				}
				if !bytes.Equal(mRef, mF) {
					t.Errorf("%d workers: metrics snapshot differs from sequential reference:\n--- ref\n%s\n--- fleet\n%s", workers, mRef, mF)
				}
				if !bytes.Equal(jRef, jF) {
					t.Errorf("%d workers: trace differs from sequential reference", workers)
				}
				if exp.wantKill && (rep.WorkerDeaths < 1 || rep.Respawns < 1 || rep.Recoveries < 1) {
					t.Errorf("%d workers: kill-one-worker chaos left no recovery evidence: %+v", workers, rep)
				}
			}
			if len(tRef) == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

// TestFleetWorkerHelper is not a test: it is the worker subprocess body
// for TestFleetRealProcessKillMidCell. When the fleet coordinator
// re-execs this test binary with VDOM_FLEET_WORKER set, this "test"
// serves the worker protocol on stdin/stdout and exits before the
// testing framework can print anything onto the frame stream.
func TestFleetWorkerHelper(t *testing.T) {
	idStr := os.Getenv("VDOM_FLEET_WORKER")
	if idStr == "" {
		t.Skip("not spawned as a fleet worker")
	}
	id, _ := strconv.Atoi(idStr)
	fleet.Worker(os.Stdin, os.Stdout, fleet.WorkerConfig{ID: id}, Executor(Options{}))
	os.Exit(0)
}

// TestFleetRealProcessKillMidCell runs Table 4 across real worker
// subprocesses (this test binary re-exec'd into the helper above) and
// SIGKILLs one of them mid-cell: the run must still complete healthy,
// byte-identical to the sequential reference, with the death, respawn,
// and recovery on the record.
func TestFleetRealProcessKillMidCell(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real subprocesses")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	tRef, mRef, jRef := runExperiment(t, Table4, Options{Quick: true, Parallel: 1})
	fr := &FleetRun{
		Workers:     2,
		Spawn:       fleet.SpawnProcess([]string{exe, "-test.run=^TestFleetWorkerHelper$"}),
		KillAfter:   2,
		CellTimeout: time.Minute,
	}
	tF, mF, jF := runExperiment(t, Table4, Options{Quick: true, FleetRun: fr})
	rep := fr.Report()
	if !rep.Healthy() || rep.Degraded {
		t.Fatalf("real-process fleet unhealthy or degraded: %+v", rep)
	}
	if !bytes.Equal(tRef, tF) || !bytes.Equal(mRef, mF) || !bytes.Equal(jRef, jF) {
		t.Fatalf("real-process fleet output differs from sequential reference:\n--- ref\n%s\n--- fleet\n%s", tRef, tF)
	}
	if rep.WorkerDeaths < 1 || rep.Respawns < 1 || rep.Recoveries < 1 {
		t.Fatalf("SIGKILL mid-cell left no recovery evidence: %+v", rep)
	}
}
