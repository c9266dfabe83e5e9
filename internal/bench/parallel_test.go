package bench

import (
	"bytes"
	"io"
	"testing"

	"vdom/internal/metrics"
)

// TestParallelByteIdentical is the parallel engine's core guarantee:
// for every experiment grid, a worker pool of any width produces output —
// rendered tables, metrics snapshots, and Chrome traces — byte-identical
// to the sequential reference execution (Parallel: 1). Run with -race this
// also shakes out data races between cells.
func TestParallelByteIdentical(t *testing.T) {
	type experiment struct {
		name string
		run  func(w io.Writer, o Options)
	}
	experiments := []experiment{
		{"tables", Tables},
		{"chaos", func(w io.Writer, o Options) { ChaosSeed(w, o, 42) }},
		{"fig1", Fig1},
		{"unixbench", UnixBench},
	}
	if !testing.Short() {
		experiments = append(experiments, experiment{"compare", Compare})
	}
	for _, exp := range experiments {
		exp := exp
		t.Run(exp.name, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) (table, snap, trace []byte) {
				o := Options{Quick: true, Parallel: workers,
					Metrics: metrics.New(), Trace: metrics.NewTrace()}
				var tb, mb, jb bytes.Buffer
				exp.run(&tb, o)
				if err := o.Metrics.WriteJSON(&mb); err != nil {
					t.Fatal(err)
				}
				if err := o.Trace.WriteJSON(&jb); err != nil {
					t.Fatal(err)
				}
				return tb.Bytes(), mb.Bytes(), jb.Bytes()
			}
			t1, m1, j1 := run(1)
			t3, m3, j3 := run(3)
			if !bytes.Equal(t1, t3) {
				t.Errorf("rendered output differs between -parallel 1 and 3:\n--- p1\n%s\n--- p3\n%s", t1, t3)
			}
			if !bytes.Equal(m1, m3) {
				t.Error("metrics snapshots differ between -parallel 1 and 3")
			}
			if !bytes.Equal(j1, j3) {
				t.Error("traces differ between -parallel 1 and 3")
			}
			if len(t1) == 0 {
				t.Error("experiment produced no output")
			}
		})
	}
}

// BenchmarkTablesGrid measures the wall-clock of the full table grid at a
// given pool width; compare Parallel1 vs ParallelN on a multi-core host
// for the engine's speedup (simulated results are width-invariant).
func BenchmarkTablesGrid(b *testing.B) {
	bench := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Tables(io.Discard, Options{Parallel: workers})
			}
		}
	}
	b.Run("parallel1", bench(1))
	b.Run("parallelN", bench(0)) // 0 = GOMAXPROCS
}
