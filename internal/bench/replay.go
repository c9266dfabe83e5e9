package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vdom/internal/chaos"
	"vdom/internal/metrics"
	"vdom/internal/par"
	"vdom/internal/replay"
	"vdom/internal/scenario"
	"vdom/internal/workload"
)

// defaultTraceDir is the checked-in golden corpus.
const defaultTraceDir = "testdata/traces"

func (o Options) traceDir() string {
	if o.TraceDir != "" {
		return o.TraceDir
	}
	return defaultTraceDir
}

// TraceCorpus is the golden-trace corpus: one scaled-down recording per
// paper workload family and kernel kind, the scenario subsystem's
// recorded cell, and a short VDom chaos soak under the soak fault mix,
// whose no-resources outcomes pin the error codes the trace carries.
func TraceCorpus() []workload.TraceSpec {
	specs := append(workload.TraceCorpus(), scenario.TraceCorpus()...)
	return append(specs, workload.TraceSpec{
		Name: "chaos-soak-vdom-x86",
		Record: func() *replay.Trace {
			return chaos.Soak(chaos.SoakConfig{
				Chaos:   soakFaults(replay.KernelVDom, 7),
				Ops:     100,
				Threads: 2,
				Cores:   2,
				Vdoms:   8,
				Record:  true,
			}).Trace
		},
	})
}

// Record re-records the golden trace corpus (TraceCorpus) and writes each
// trace to
// Options.TraceDir in both the binary format (<name>.trace) and the
// diff-friendly JSONL form (<name>.jsonl). Recording fans out across the
// worker pool; files and the rendered table are emitted in corpus order,
// so output is byte-identical for every -parallel value.
func Record(w io.Writer, o Options) error {
	specs := TraceCorpus()
	type rec struct {
		name  string
		trace *replay.Trace
		bin   []byte
	}
	jobs := make([]func() rec, len(specs))
	for i, s := range specs {
		s := s
		jobs[i] = func() rec {
			t := s.Record()
			return rec{name: s.Name, trace: t, bin: replay.Encode(t)}
		}
	}
	cells := par.Map(o.workers(), jobs)

	dir := o.traceDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t := &Table{
		Title:   fmt.Sprintf("Recorded domain-op traces (%s, %d workloads)", replay.FormatName, len(cells)),
		Columns: []string{"trace", "kernel", "events", "cycles", "bytes"},
	}
	for _, c := range cells {
		if err := os.WriteFile(filepath.Join(dir, c.name+".trace"), c.bin, 0o644); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, c.name+".jsonl"))
		if err != nil {
			return err
		}
		if err := replay.WriteJSONL(f, c.trace); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		t.Row(c.name, c.trace.Header.Kernel,
			fmt.Sprintf("%d", len(c.trace.Events)),
			fmt.Sprintf("%d", c.trace.End["clock"]),
			fmt.Sprintf("%d", len(c.bin)))
	}
	o.Render(w, t)
	return nil
}

// divergenceReport is one trace's entry in the JSON divergence report.
type divergenceReport struct {
	Trace      string             `json:"trace"`
	Kernel     string             `json:"kernel"`
	Workload   string             `json:"workload"`
	Error      string             `json:"error,omitempty"`
	Divergence *replay.Divergence `json:"divergence,omitempty"`
	Summary    string             `json:"summary,omitempty"`
}

// Replay re-executes every *.trace under Options.TraceDir against a
// freshly booted system and verifies each run is bit-identical to its
// recording: same per-event costs, ids, and error outcomes, same final
// cycle clock and end state. Every trace goes through chaos.ReplayTrace,
// which rebuilds any fault injector from the trace header. Cells fan out
// across the worker pool with private metrics/trace sinks merged in file
// order, so output is byte-identical for every -parallel value. It
// returns the number of traces that diverged or failed.
func Replay(w io.Writer, o Options) (int, error) {
	dir := o.traceDir()
	paths, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return 0, fmt.Errorf("no *.trace files under %s (run `vdom-bench record` first)", dir)
	}

	type cellR struct {
		name string
		hdr  replay.Header
		res  *replay.Result
		err  error
		reg  *metrics.Registry
		tr   *metrics.Trace
	}
	jobs := make([]func() cellR, len(paths))
	for i, path := range paths {
		path := path
		jobs[i] = func() cellR {
			c := cellR{name: trimTraceExt(path)}
			data, err := os.ReadFile(path)
			if err != nil {
				c.err = err
				return c
			}
			t, err := replay.Decode(data)
			if err != nil {
				c.err = err
				return c
			}
			c.hdr = t.Header
			c.reg, c.tr = o.newCellSinks()
			opt := replay.Options{Metrics: c.reg, Trace: c.tr}
			c.res, c.err = chaos.ReplayTrace(t, opt)
			return c
		}
	}
	cells := par.Map(o.workers(), jobs)

	t := &Table{
		Title:   fmt.Sprintf("Trace replay: %d traces from %s", len(cells), dir),
		Columns: []string{"trace", "kernel", "events", "cycles", "cyc/event", "verdict"},
	}
	var reports []divergenceReport
	bad := 0
	for _, c := range cells {
		rep := divergenceReport{Trace: c.name, Kernel: c.hdr.Kernel, Workload: c.hdr.Workload}
		switch {
		case c.err != nil:
			bad++
			rep.Error = c.err.Error()
			t.Row(c.name, c.hdr.Kernel, "-", "-", "-", "ERROR")
		case c.res.Divergence != nil:
			bad++
			rep.Divergence = c.res.Divergence
			rep.Summary = c.res.Divergence.String()
			t.Row(c.name, c.hdr.Kernel,
				fmt.Sprintf("%d", c.res.Events),
				fmt.Sprintf("%d", c.res.Cycles),
				perEvent(c.res), "DIVERGED")
		default:
			t.Row(c.name, c.hdr.Kernel,
				fmt.Sprintf("%d", c.res.Events),
				fmt.Sprintf("%d", c.res.Cycles),
				perEvent(c.res), "ok")
		}
		if rep.Error != "" || rep.Divergence != nil {
			reports = append(reports, rep)
		}
		if c.res != nil {
			o.Metrics.Add("bench/total-cycles", c.res.Cycles)
		}
		o.Metrics.Merge(c.reg)
		o.Trace.Append(c.tr)
	}
	o.Render(w, t)
	if bad == 0 {
		fmt.Fprintf(w, "\nverdict: BIT-IDENTICAL — every trace replayed to its recorded cycles, events, and end state\n")
	} else {
		fmt.Fprintf(w, "\nverdict: %d of %d traces DIVERGED\n", bad, len(cells))
		for _, r := range reports {
			if r.Summary != "" {
				fmt.Fprintf(w, "  %s: %s\n", r.Trace, r.Summary)
			} else {
				fmt.Fprintf(w, "  %s: %s\n", r.Trace, r.Error)
			}
		}
	}

	if o.DivergenceOut != "" {
		if reports == nil {
			reports = []divergenceReport{}
		}
		f, err := os.Create(o.DivergenceOut)
		if err != nil {
			return bad, err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			f.Close()
			return bad, err
		}
		if err := f.Close(); err != nil {
			return bad, err
		}
	}
	return bad, nil
}

// perEvent renders the replayed cycles-per-event throughput figure.
func perEvent(r *replay.Result) string {
	if r.Events == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(r.Cycles)/float64(r.Events))
}

// trimTraceExt maps "dir/name.trace" to "name".
func trimTraceExt(path string) string {
	base := filepath.Base(path)
	return base[:len(base)-len(".trace")]
}
