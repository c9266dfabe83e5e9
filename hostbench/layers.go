package main

import (
	"runtime"

	"vdom/internal/metrics"
)

// replayBootFn is the function whose profile time stands in for
// replay.boot.ms on workloads that boot inside a layer call
// (scenario.RunCell boots each cell itself).
const replayBootFn = "vdom/internal/replay.Boot"

// layerInputs is everything a traced run measured.
type layerInputs struct {
	tr *tracer
	// reg is the simulator's own registry, attached to every traced unit.
	reg *metrics.Snapshot
	// split is the traced half's CPU profile split by module.
	split hostSplit
	// plain and traced are the untraced and traced halves.
	plain, traced loop
	// mem0 and mem1 bracket the untraced half.
	mem0, mem1 *runtime.MemStats
}

func (in layerInputs) counter(names ...string) float64 {
	var n uint64
	for _, name := range names {
		n += in.reg.Counters[name]
	}
	return float64(n)
}

func (in layerInputs) spanMS(name string) float64 {
	if st := in.tr.stats[name]; st != nil {
		return float64(st.busy.Nanoseconds()) / 1e6
	}
	return 0
}

// perUnit spreads a traced-half total over the traced units, so the
// value does not grow with how many units a faster build fits in.
func (in layerInputs) perUnit(v float64) float64 {
	return ratio(v, float64(in.traced.units))
}

// perOp spreads a traced-half total over the traced simulated ops.
func (in layerInputs) perOp(v float64) float64 {
	return ratio(v, float64(in.traced.ops))
}

func (in layerInputs) spanCount(name string) float64 {
	if st := in.tr.stats[name]; st != nil {
		return float64(st.count)
	}
	return 0
}

func (in layerInputs) layerCyclesPerOp(layer string) float64 {
	var c uint64
	for _, e := range in.reg.Cycles {
		if e.Layer == layer {
			c += e.Cycles
		}
	}
	return in.perOp(float64(c))
}

func (in layerInputs) hist(name string) float64 {
	return float64(in.reg.Histograms[name].Count)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name  string
	unit  string
	value func(layerInputs) float64
}

// hostModules are the simulator modules whose host CPU time the traced
// run reports; "gc" is garbage collection and "other" everything else
// (runtime, runner, modules not listed).
var hostModules = []string{
	"pagetable", "tlb", "hw", "mm", "kernel", "core",
	"libmpk", "epk", "dpti", "backend",
	"workload", "scenario", "replay", "snapshot", "chaos", "sim", "metrics",
	"gc", "other",
}

// perLayer is the traced run's metric catalogue, in output order.
// BENCHMARK.json's per_layer list names exactly these.
var perLayer = func() []layerDef {
	var defs []layerDef
	listed := map[string]bool{}
	for _, m := range hostModules {
		listed[m] = true
	}
	for _, m := range hostModules {
		defs = append(defs, layerDef{"host." + m + ".ms", "ms/unit", func(in layerInputs) float64 {
			if m != "other" {
				return in.perUnit(in.split.ms[m])
			}
			var v float64
			for mod, ms := range in.split.ms {
				if !listed[mod] || mod == "other" {
					v += ms
				}
			}
			return in.perUnit(v)
		}})
	}
	span := func(name string) layerDef {
		return layerDef{name + ".ms", "ms/unit", func(in layerInputs) float64 { return in.perUnit(in.spanMS(name)) }}
	}
	spanCount := func(name string) layerDef {
		return layerDef{name + ".count", "count", func(in layerInputs) float64 { return in.spanCount(name) }}
	}
	runnerCount := func(name, unit string) layerDef {
		return layerDef{name, unit, func(in layerInputs) float64 { return in.perUnit(float64(in.tr.counters[name])) }}
	}
	counter := func(name string, counters ...string) layerDef {
		return layerDef{name, "1/op", func(in layerInputs) float64 { return in.perOp(in.counter(counters...)) }}
	}
	defs = append(defs,
		layerDef{"tlb.hit_ratio", "ratio", func(in layerInputs) float64 {
			return ratio(in.counter("tlb/hits"), in.counter("tlb/hits", "tlb/misses"))
		}},
		layerDef{"hw.walk_cache_hit_ratio", "ratio", func(in layerInputs) float64 {
			return ratio(in.counter("hw/walk-cache-hits"), in.counter("hw/walk-cache-hits", "hw/walk-cache-misses"))
		}},
		counter("tlb.flushes", "tlb/flush-page", "tlb/flush-asid", "tlb/flush-full", "tlb/flush-range"),
		counter("hw.ipis", "core/shootdowns", "libmpk/shootdowns"),
		counter("pagetable.pte_writes", "pagetable/pte-writes"),
		counter("pagetable.pmd_writes", "pagetable/pmd-writes"),
	)
	for _, kind := range []string{"map", "evict", "switch", "migrate"} {
		defs = append(defs, layerDef{"core." + kind, "1/op", func(in layerInputs) float64 {
			return in.perOp(in.hist("core/activation/" + kind))
		}})
	}
	defs = append(defs,
		span("workload.run_pattern"), spanCount("workload.run_pattern"),
		// Compilation happens once, in setup: its total, not a per-unit share.
		layerDef{"scenario.compile.ms", "ms", func(in layerInputs) float64 { return in.spanMS("scenario.compile") }},
		span("scenario.run_cell"), spanCount("scenario.run_cell"),
		layerDef{"scenario.faulted_ratio", "ratio", func(in layerInputs) float64 {
			return ratio(float64(in.tr.counters["scenario.faulted"]), float64(in.tr.counters["scenario.ops"]))
		}},
		span("replay.encode"), span("replay.decode"),
		layerDef{"replay.boot.ms", "ms/unit", func(in layerInputs) float64 {
			if in.spanCount("replay.boot") == 0 {
				return in.perUnit(in.split.inclusiveMS)
			}
			return in.perUnit(in.spanMS("replay.boot"))
		}},
		span("replay.run_tail"),
		runnerCount("replay.events", "1/unit"), runnerCount("replay.bytes", "B/unit"),
		span("snapshot.checkpoint"), span("snapshot.decode"), span("snapshot.restore"),
		runnerCount("snapshot.bytes", "B/unit"),
		span("chaos.step"), span("chaos.recover"), span("chaos.audit"),
		runnerCount("chaos.injected", "1/unit"), runnerCount("chaos.recovered", "1/unit"),
	)
	for _, layer := range []string{"hw", "tlb", "pagetable", "kernel", "core", "libmpk", "epk", "dpti"} {
		defs = append(defs, layerDef{"cycles." + layer, "cycles/op", func(in layerInputs) float64 {
			return in.layerCyclesPerOp(layer)
		}})
	}
	defs = append(defs,
		layerDef{"alloc.bytes_per_op", "B/op", func(in layerInputs) float64 {
			return ratio(float64(in.mem1.TotalAlloc-in.mem0.TotalAlloc), float64(in.plain.ops))
		}},
		layerDef{"alloc.objects_per_op", "objects/op", func(in layerInputs) float64 {
			return ratio(float64(in.mem1.Mallocs-in.mem0.Mallocs), float64(in.plain.ops))
		}},
		layerDef{"gc.cycles", "1/unit", func(in layerInputs) float64 {
			return ratio(float64(in.mem1.NumGC-in.mem0.NumGC), float64(in.plain.units))
		}},
		// Peak memory swings by a third between seeds with the GC's pacing,
		// too much for a bounded end-to-end metric, so it is reported here.
		layerDef{"peak_rss_mib", "MiB", func(layerInputs) float64 { return peakRSSMiB() }},
		layerDef{"trace.overhead_ratio", "ratio", func(in layerInputs) float64 {
			return ratio(in.traced.opsPerCPUSecond(), in.plain.opsPerCPUSecond())
		}},
	)
	return defs
}()
