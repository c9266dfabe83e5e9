package scenario

import (
	"reflect"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/metrics"
	"vdom/internal/replay"
)

func TestLibraryValidates(t *testing.T) {
	names := map[string]bool{}
	for _, s := range Library() {
		if err := s.Validate(); err != nil {
			t.Errorf("bundled spec %q does not validate: %v", s.Name, err)
		}
		if names[s.Name] {
			t.Errorf("duplicate bundled spec name %q", s.Name)
		}
		names[s.Name] = true
	}
}

func TestCompileDeterministic(t *testing.T) {
	for _, s := range Library() {
		for _, kern := range backend.Names() {
			a, err := Compile(s, kern)
			if err != nil {
				t.Fatalf("compile %s × %s: %v", s.Name, kern, err)
			}
			b, err := Compile(s, kern)
			if err != nil {
				t.Fatalf("recompile %s × %s: %v", s.Name, kern, err)
			}
			if !reflect.DeepEqual(a.Cells, b.Cells) {
				t.Fatalf("compile %s × %s is not deterministic", s.Name, kern)
			}
			if len(a.Cells) == 0 {
				t.Fatalf("compile %s × %s produced no cells", s.Name, kern)
			}
		}
	}
}

func TestCompileUnknownKernel(t *testing.T) {
	if _, err := Compile(Library()[0], "xen"); err == nil {
		t.Fatal("compile accepted an unregistered kernel")
	}
	if _, err := Kernels(Library()[0], "xen"); err == nil {
		t.Fatal("kernel resolution accepted an unregistered override")
	}
}

// TestRunCellAllKernels drives the first cell of every bundled scenario
// on every registered kernel twice and requires identical results — the
// in-package core of the determinism guarantee (the bench-level
// regression covers full plans across parallel widths).
func TestRunCellAllKernels(t *testing.T) {
	for _, s := range Library() {
		for _, kern := range backend.Names() {
			plan, err := Compile(s, kern)
			if err != nil {
				t.Fatalf("compile %s × %s: %v", s.Name, kern, err)
			}
			plan.Quick()
			c := plan.Cells[0]
			t.Run(s.Name+"/"+kern, func(t *testing.T) {
				a, err := RunCell(c, CellOptions{})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				b, err := RunCell(c, CellOptions{})
				if err != nil {
					t.Fatalf("rerun: %v", err)
				}
				if a.EndDigest != b.EndDigest || a.Cycles != b.Cycles || a.Ops != b.Ops ||
					a.Activations != b.Activations || a.Churns != b.Churns ||
					a.Faulted != b.Faulted || a.Injected != b.Injected {
					t.Fatalf("rerun diverged: %+v vs %+v", a, b)
				}
				if a.Ops == 0 || a.Cycles == 0 {
					t.Fatalf("cell did no work: %+v", a)
				}
			})
		}
	}
}

// TestCellRecordReplay records one cell per bundled scenario on the VDom
// kernel and replays it bit-identically, including faulted cells (the
// injector configuration rides the trace header).
func TestCellRecordReplay(t *testing.T) {
	for _, s := range Library() {
		plan, err := Compile(s, replay.KernelVDom)
		if err != nil {
			t.Fatalf("compile %s: %v", s.Name, err)
		}
		plan.Quick()
		// The last cell: for mesh-churn that is the faulted "storm" phase.
		c := plan.Cells[len(plan.Cells)-1]
		t.Run(s.Name, func(t *testing.T) {
			res, err := RunCell(c, CellOptions{Record: true})
			if err != nil {
				t.Fatalf("record: %v", err)
			}
			if res.Trace == nil || len(res.Trace.Events) == 0 {
				t.Fatal("recording captured no events")
			}
			rr, err := ReplayTrace(res.Trace, replay.Options{})
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if rr.Divergence != nil {
				t.Fatalf("replay diverged: %s", rr.Divergence)
			}
			// Recording twice must give byte-identical traces.
			res2, err := RunCell(c, CellOptions{Record: true})
			if err != nil {
				t.Fatalf("re-record: %v", err)
			}
			a := replay.Encode(res.Trace)
			b := replay.Encode(res2.Trace)
			if string(a) != string(b) {
				t.Fatal("recording the same cell twice produced different trace bytes")
			}
		})
	}
}

// TestReplayTraceRejectsForeign checks ReplayTrace refuses traces that
// are not scenario recordings.
func TestReplayTraceRejectsForeign(t *testing.T) {
	tr := &replay.Trace{Header: replay.Header{Workload: "httpd-vdom-x86"}}
	if _, err := ReplayTrace(tr, replay.Options{}); err == nil {
		t.Fatal("ReplayTrace accepted a non-scenario trace")
	}
}

// TestRunCellAttributionExact is the scenario side of the metrics
// invariant: for every cell of every bundled scenario on every kernel,
// the registry's per-(layer, op) cycle attribution sums to exactly the
// cell's independently summed Cycles — every kernel's domain layer
// charges its own operations, so nothing is dropped.
func TestRunCellAttributionExact(t *testing.T) {
	for _, s := range Library() {
		for _, kern := range backend.Names() {
			plan, err := Compile(s, kern)
			if err != nil {
				t.Fatalf("compile %s × %s: %v", s.Name, kern, err)
			}
			plan.Quick()
			for _, c := range plan.Cells {
				reg := metrics.New()
				res, err := RunCell(c, CellOptions{Metrics: reg})
				if err != nil {
					t.Fatalf("%s × %s cell %s/%d: %v", s.Name, kern, c.Phase, c.Step, err)
				}
				if reg.TotalCycles() != res.Cycles {
					t.Errorf("%s × %s cell %s/%d: registry attributes %d cycles, cell measured %d",
						s.Name, kern, c.Phase, c.Step, reg.TotalCycles(), res.Cycles)
				}
				if err := reg.Snapshot().CheckConsistency(); err != nil {
					t.Errorf("%s × %s cell %s/%d: %v", s.Name, kern, c.Phase, c.Step, err)
				}
			}
		}
	}
}
