package bench

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"vdom/internal/chaos"
)

// chaosSoakOps returns the soak length for the chaos report.
func (o Options) chaosSoakOps() int {
	if o.Quick {
		return 2000
	}
	return 10000
}

// chaosShards is the fixed number of independent soak shards the chaos
// experiment runs. It is a property of the experiment, not of the worker
// pool: shard seeds and lengths are derived from (seed, shard index)
// alone, so the aggregated report is byte-identical for every -parallel
// value.
const chaosShards = 8

// Chaos runs the deterministic fault-injection soak and reports the
// injected faults, the recovery paths that absorbed them, and the
// cross-layer audit verdict. The run replays exactly from its seed.
func Chaos(w io.Writer, o Options) error {
	return ChaosSeed(w, o, 42)
}

// ChaosSeed is Chaos with a caller-chosen seed, for replaying a specific
// fault sequence. The soak is split into chaosShards independent shards,
// each a fully isolated machine soaked under its own derived seed; shard
// results are aggregated in shard order.
//
// With Options.TraceDump set, every shard records its domain-op stream
// and any failing shard dumps a minimal replayable trace there; with
// Options.SoakReport set, a machine-readable JSON report of all shards
// is written too. The returned error covers artifact writing only — the
// soak verdict is in the rendered output (and the report).
func ChaosSeed(w io.Writer, o Options, seed uint64) error {
	kern := o.Kernel
	if kern == "" {
		kern = "vdom"
	}
	if kern != "vdom" && kern != "dpti" {
		return fmt.Errorf("chaos: no soak driver for kernel %q (have vdom, dpti)", kern)
	}
	cells := o.mapGrid("chaos:"+kern, seed)
	wires := make([]chaosWire, len(cells))
	for i, c := range cells {
		if c.fail != "" {
			return errors.New(c.fail)
		}
		wi, err := decodeChaosWire(c.aux)
		if err != nil {
			return fmt.Errorf("chaos shard %d: %w", i, err)
		}
		wires[i] = wi
	}

	// Dump failing shards' minimal reproducer traces before aggregating,
	// so each shard's TracePath lands in the report. The wire carries the
	// fail trace pre-encoded, so a shard soaked in a fleet worker dumps
	// the identical bytes a local shard would.
	tracePaths := make([]string, len(wires))
	if o.TraceDump != "" {
		if err := os.MkdirAll(o.TraceDump, 0o755); err != nil {
			return err
		}
		for i, wi := range wires {
			if len(wi.FailTrace) == 0 {
				continue
			}
			stem := "chaos-soak-shard%d.trace"
			if kern != "vdom" {
				stem = "chaos-soak-" + kern + "-shard%d.trace"
			}
			path := filepath.Join(o.TraceDump, fmt.Sprintf(stem, i))
			if err := os.WriteFile(path, wi.FailTrace, 0o644); err != nil {
				return err
			}
			tracePaths[i] = path
		}
	}

	// Aggregate in shard order: sums are order-insensitive, but the
	// violation/unrecovered listings below keep shard order for stable
	// replayable output.
	var agg chaosAgg
	for i, wi := range wires {
		agg.merge(wi)
		o.collect(cells[i])
	}

	title := fmt.Sprintf("Chaos soak: %d ops over %d shards, seed %d (replayable), all fault classes enabled",
		agg.Ops, chaosShards, seed)
	if kern != "vdom" {
		title = fmt.Sprintf("Chaos soak (%s kernel): %d ops over %d shards, seed %d (replayable), machine/kernel fault classes enabled",
			kern, agg.Ops, chaosShards, seed)
	}
	t := &Table{
		Title:   title,
		Columns: []string{"event", "count"},
	}
	for _, k := range sortedKeys(agg.Injected) {
		t.Row(k, fmt.Sprintf("%d", agg.Injected[k]))
	}
	for _, k := range sortedKeys(agg.Recovered) {
		t.Row(k, fmt.Sprintf("%d", agg.Recovered[k]))
	}
	t.Row("asid generation rollovers", fmt.Sprintf("%d", agg.ASIDRollovers))
	t.Row("audit passes", fmt.Sprintf("%d", agg.Audits))
	t.Row("audit violations", fmt.Sprintf("%d", len(agg.Violations)))
	t.Row("unrecovered faults", fmt.Sprintf("%d", len(agg.Unrecovered)))
	t.Row("total cycles", fmt.Sprintf("%d", agg.Cycles))
	o.Render(w, t)

	if len(agg.Violations) == 0 && len(agg.Unrecovered) == 0 {
		fmt.Fprintf(w, "\nverdict: COHERENT — every injected fault was absorbed by a degradation path\n")
	} else {
		fmt.Fprintf(w, "\nverdict: INCOHERENT\n")
		for _, v := range agg.Violations {
			fmt.Fprintf(w, "  violation: %s\n", v)
		}
		for _, u := range agg.Unrecovered {
			fmt.Fprintf(w, "  unrecovered: %s\n", u)
		}
	}

	if o.SoakReport != "" {
		srs := make([]chaos.ShardReport, len(wires))
		for i, wi := range wires {
			srs[i] = chaos.ShardReport{
				Shard:       i,
				Seed:        seed + uint64(i),
				Ops:         wi.Ops,
				Cycles:      wi.Cycles,
				Injected:    wi.Injected,
				Recovered:   wi.Recovered,
				Violations:  wi.Violations,
				Unrecovered: wi.Unrecovered,
				TraceEvents: wi.TraceEvents,
				TracePath:   tracePaths[i],
			}
		}
		f, err := os.Create(o.SoakReport)
		if err != nil {
			return err
		}
		if err := chaos.NewReport(seed, srs).WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// chaosAgg aggregates shard wires in shard order: sums are
// order-insensitive, listings keep shard order. It works on the wire
// representation, so the fleet and in-process paths aggregate
// identically.
type chaosAgg struct {
	Ops           int
	Cycles        uint64
	Injected      map[string]uint64
	Recovered     map[string]uint64
	Violations    []string
	Unrecovered   []string
	Audits        int
	ASIDRollovers uint64
}

func (a *chaosAgg) merge(wi chaosWire) {
	a.Ops += wi.Ops
	a.Cycles += wi.Cycles
	a.Audits += wi.Audits
	a.ASIDRollovers += wi.ASIDRollovers
	if a.Injected == nil {
		a.Injected = map[string]uint64{}
	}
	for k, v := range wi.Injected {
		a.Injected[k] += v
	}
	if a.Recovered == nil {
		a.Recovered = map[string]uint64{}
	}
	for k, v := range wi.Recovered {
		a.Recovered[k] += v
	}
	a.Violations = append(a.Violations, wi.Violations...)
	a.Unrecovered = append(a.Unrecovered, wi.Unrecovered...)
}

// sortedKeys returns the map's keys in lexical order for stable output.
func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
