package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// testSeed is a seed other than the default one, so the tests exercise
// the second-execution reference path.
const testSeed = 42

func loadReference(t *testing.T) *reference {
	t.Helper()
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatalf("reference.json: %v", err)
	}
	return &ref
}

func layerValue(t *testing.T, r *report, name string) float64 {
	t.Helper()
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	t.Fatalf("report has no metric %q", name)
	return 0
}

func TestSameSeedSameInputsAndDigests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := setup(w, testSeed, &obs{}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := setup(w, testSeed, &obs{}, digestBytes(a.inputs), a.want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.inputs, b.inputs) {
				t.Fatal("same seed generated different input bytes")
			}
			for i := range a.want {
				if a.want[i] != b.want[i] || b.bad[i] != "" || a.bad[i] != "" {
					t.Fatalf("unit %d: digests %s/%s, problems %q/%q", i, hex64(a.want[i]), hex64(b.want[i]), a.bad[i], b.bad[i])
				}
			}
			c, err := setup(w, testSeed+1, &obs{}, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(a.inputs, c.inputs) {
				t.Fatal("another seed generated the same inputs")
			}
		})
	}
}

func TestStoredReferenceMatches(t *testing.T) {
	ref := loadReference(t)
	if ref.Seed != defaultSeed {
		t.Fatalf("reference seed %d, default seed %d", ref.Seed, defaultSeed)
	}
	for _, w := range workloads {
		inputs, want, err := ref.stored(w.name, defaultSeed)
		if err != nil || want == nil {
			t.Fatalf("%s: no stored reference (%v); regenerate with -write-reference", w.name, err)
		}
		p, err := setup(w, defaultSeed, &obs{}, inputs, want)
		if err != nil {
			t.Fatal(err)
		}
		for i, why := range p.bad {
			if why != "" {
				t.Errorf("%s unit %d: %s", w.name, i, why)
			}
		}
	}
}

func TestPercentileTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	if _, err := percentile(samples(999), 99, 100); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it; want an error")
	}
	v, err := percentile(samples(1000), 99, 100)
	if err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 (10 samples beyond)", v, err)
	}
	if _, err := percentile(samples(19), 50, 100); err == nil {
		t.Error("p50 of 19 samples leaves 9 beyond it; want an error")
	}
	if v, err := percentile(samples(20), 50, 100); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestCorruptedReferenceFails is the negative control: a reference
// digest with one flipped bit makes every execution of that unit fail,
// and only that unit.
func TestCorruptedReferenceFails(t *testing.T) {
	w, _ := workloadByName("table4-sweep")
	ref := loadReference(t)
	inputs, want, err := ref.stored(w.name, defaultSeed)
	if err != nil || want == nil {
		t.Fatalf("no stored reference: %v", err)
	}
	const corrupt = 3
	want = append([]uint64(nil), want...)
	want[corrupt] ^= 1
	p, err := setup(w, defaultSeed, &obs{}, inputs, want)
	if err != nil {
		t.Fatal(err)
	}
	for i, why := range p.bad {
		if (why != "") != (i == corrupt) {
			t.Fatalf("unit %d: problem %q", i, why)
		}
	}
	p.units = p.units[:10]
	l := measure(p, &obs{}, 100*time.Millisecond, io.Discard)
	n := len(p.units)
	runs := l.units / n
	if l.units%n > corrupt {
		runs++
	}
	if runs == 0 || l.failed != runs {
		t.Fatalf("%d of %d units failed, want exactly the %d runs of unit %d", l.failed, l.units, runs, corrupt)
	}
}

func TestSpanBusyWithinWall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: testSeed, duration: 800 * time.Millisecond}
			r, tr, _, err := runTraced(w, opt, loadReference(t), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 {
				t.Fatalf("%d of %d units failed", r.failed, r.attempted)
			}
			for id, name := range tr.tracks {
				busy, wall := tr.layerBusy[id], tr.trackWall[id]
				if busy > wall {
					t.Errorf("track %s: layer spans busy %v > wall %v", name, busy, wall)
				}
			}
			var host float64
			for _, m := range hostModules {
				host += layerValue(t, r, "host."+m+".ms")
			}
			if host <= 0 {
				t.Error("CPU profile attributed no host time")
			}
			if v := layerValue(t, r, "trace.overhead_ratio"); v <= 0 {
				t.Errorf("trace.overhead_ratio = %v", v)
			}
		})
	}
}

// TestObserverBlamesPlantedDelay plants a known host delay in one codec
// call and checks that the per-layer report puts it on that layer on the
// workload that calls it, and reports nothing for it on one that does
// not.
func TestObserverBlamesPlantedDelay(t *testing.T) {
	const delay = 5 * time.Millisecond
	want := float64(delay.Nanoseconds()) / 1e6
	slow := map[string]time.Duration{"replay.decode": delay}
	traced := func(name string, slow map[string]time.Duration) (*report, *tracer) {
		w, _ := workloadByName(name)
		opt := options{seed: testSeed, duration: time.Second, slow: slow}
		r, tr, _, err := runTraced(w, opt, loadReference(t), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		return r, tr
	}
	perCall := func(tr *tracer, name string) float64 {
		st := tr.stats[name]
		if st == nil || st.count == 0 {
			return 0
		}
		return float64(st.busy.Nanoseconds()) / 1e6 / float64(st.count)
	}

	base, baseTr := traced("crash-recover", nil)
	hit, hitTr := traced("crash-recover", slow)
	// Every crash-recover unit decodes its trace once.
	if d := layerValue(t, hit, "replay.decode.ms") - layerValue(t, base, "replay.decode.ms"); d < 0.9*want {
		t.Fatalf("replay.decode.ms rose by %.3f ms per unit, want about %.3f", d, want)
	}
	if d := perCall(hitTr, "replay.decode") - perCall(baseTr, "replay.decode"); d < 0.9*want {
		t.Fatalf("replay.decode per call rose by %.3f ms, want about %.3f", d, want)
	}
	for name := range baseTr.stats {
		if name == "replay.decode" || name == unitSpan {
			continue
		}
		if d := perCall(hitTr, name) - perCall(baseTr, name); d > want/2 {
			t.Errorf("%s per call rose by %.3f ms; the planted delay was in replay.decode", name, d)
		}
	}

	quiet, _ := traced("table4-sweep", slow)
	for _, name := range []string{"replay.decode.ms", "replay.encode.ms", "replay.run_tail.ms"} {
		if v := layerValue(t, quiet, name); v != 0 {
			t.Errorf("table4-sweep reports %s = %v; it never calls the replay codec", name, v)
		}
	}
	if layerValue(t, quiet, "workload.run_pattern.count") == 0 {
		t.Error("table4-sweep traced no RunPattern calls")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's metric and
// workload lists equal to what the runner prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, runner %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, runner prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if spec.PerLayer[i].Name != d.name || spec.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer %d: BENCHMARK.json %v, runner %s %s", i, spec.PerLayer[i], d.name, d.unit)
		}
	}
	wantE2E := []struct{ Name, Unit string }{
		{"setup_s", "s"}, {"ops_per_s", "ops/s"}, {"unit_ms_p50", "ms"},
		{"unit_ms_p99", "ms"}, {"sim_cycles_per_op", "cycles/op"},
	}
	if len(spec.EndToEnd) != len(wantE2E) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, runner prints %d", len(spec.EndToEnd), len(wantE2E))
	}
	for i, m := range wantE2E {
		if spec.EndToEnd[i] != m {
			t.Errorf("end_to_end %d: BENCHMARK.json %v, runner %v", i, spec.EndToEnd[i], m)
		}
	}
}
