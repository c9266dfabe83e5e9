package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"vdom/internal/chaos"
	"vdom/internal/replay"
	"vdom/internal/scenario"
	"vdom/internal/serve"
)

// ServeOptions parameterizes the supervised soak service (the serve
// subcommand); see internal/serve for the semantics of each knob.
type ServeOptions struct {
	// Duration bounds the run in wall-clock time (0: run to the op
	// budget).
	Duration time.Duration
	// Shards is the fleet width (0: serve default).
	Shards int
	// OpsPerShard bounds each shard (0: unbounded — Duration or a
	// -timeout then ends the run).
	OpsPerShard int
	// CheckpointEvery, Ring, RingDir, and MaxRetries configure the
	// rolling checkpoint ring and the retry/quarantine ladder.
	CheckpointEvery int
	Ring            int
	RingDir         string
	MaxRetries      int
	// CrashEvery is the mean ops between injected crash faults (0:
	// none); CrashKind selects "core-crash", "kernel-panic",
	// "torn-domain-map", or "all".
	CrashEvery int
	CrashKind  string
	// SnapWriteFail and SnapCorrupt are the harness-pressure
	// probabilities (checkpoint-write failure / on-disk corruption).
	SnapWriteFail float64
	SnapCorrupt   float64
	// HealthOut, when set, receives the health report as JSON —
	// rewritten on every HealthEvery tick and finalized (with the
	// serve-layer metrics snapshot) when the run ends.
	HealthOut   string
	HealthEvery time.Duration
	// RequireRecoveries, when positive, fails the run unless at least
	// that many recoveries completed — CI's self-healing assertion.
	RequireRecoveries int
}

// serveCrashKinds resolves the -crash-kind flag.
func serveCrashKinds(name string) ([]chaos.CrashKind, error) {
	switch name {
	case "", "all":
		return nil, nil // serve's default: all three kinds
	case chaos.CrashCore.String():
		return []chaos.CrashKind{chaos.CrashCore}, nil
	case chaos.CrashKernelPanic.String():
		return []chaos.CrashKind{chaos.CrashKernelPanic}, nil
	case chaos.CrashTornDomainMap.String():
		return []chaos.CrashKind{chaos.CrashTornDomainMap}, nil
	default:
		return nil, fmt.Errorf("unknown crash kind %q (want core-crash, kernel-panic, torn-domain-map, or all)", name)
	}
}

// scenarioServeConfig lowers a spec's crash stanza and fault schedule
// onto the serve fleet configuration. Explicit -flags win: a stanza
// value applies only where the corresponding ServeOptions field is still
// zero. The fault mix comes from the spec's first faulted phase (the
// crash-soak default otherwise), and a nonzero spec seed replaces the
// -seed default so the fleet is reproducible from the spec alone.
func scenarioServeConfig(w io.Writer, spec *scenario.Spec, kinds []chaos.CrashKind, seed uint64, so ServeOptions) (chaos.Config, []chaos.CrashKind, uint64, ServeOptions) {
	if spec.Seed != 0 {
		seed = spec.Seed
	}
	mix := soakFaults(replay.KernelVDom, 0)
	faultPhase := ""
	for i := range spec.Phases {
		if f := spec.Phases[i].Faults; f.Any() {
			mix = f.Config(0)
			faultPhase = spec.Phases[i].Name
			break
		}
	}
	if c := spec.Crash; c != nil {
		applyIfZero := func(dst *int, v int) {
			if *dst == 0 {
				*dst = v
			}
		}
		applyIfZero(&so.Shards, c.Shards)
		applyIfZero(&so.OpsPerShard, c.OpsPerShard)
		applyIfZero(&so.CheckpointEvery, c.CheckpointEvery)
		applyIfZero(&so.Ring, c.Ring)
		applyIfZero(&so.CrashEvery, c.CrashEvery)
		applyIfZero(&so.MaxRetries, c.MaxRetries)
		if so.SnapWriteFail == 0 {
			so.SnapWriteFail = c.SnapWriteFail
		}
		if so.SnapCorrupt == 0 {
			so.SnapCorrupt = c.SnapCorrupt
		}
		if (so.CrashKind == "" || so.CrashKind == "all") && len(c.Kinds) > 0 {
			// Stanza kinds are validated at decode time; the error path is
			// unreachable for a decoded spec.
			if ks, err := c.CrashKinds(); err == nil {
				kinds = ks
			}
		}
	}
	if faultPhase != "" {
		fmt.Fprintf(w, "scenario %q: fault mix from phase %q, fleet config from crash stanza\n", spec.Name, faultPhase)
	} else {
		fmt.Fprintf(w, "scenario %q: crash-soak default fault mix, fleet config from crash stanza\n", spec.Name)
	}
	return mix, kinds, seed, so
}

// writeHealth writes one health report to path (best-effort on the
// periodic ticks; the final report returns its error).
func writeHealth(path string, h *serve.Health) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := h.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Serve runs the supervised soak service: a fleet of crash-soaking
// shards under continuous supervision — rolling checkpoints, watchdog
// and audit detection, retry/backoff recovery, quarantine escalation —
// with periodic health reports. The fault mix is the crash soak's; the
// run is bounded by ServeOptions.Duration, OpsPerShard, or Options.Ctx
// (the SIGTERM/-timeout path), whichever ends it first. It fails if any
// shard ends quarantined, or if fewer than RequireRecoveries recoveries
// completed.
func Serve(w io.Writer, o Options, seed uint64) error {
	so := o.Serve
	kinds, err := serveCrashKinds(so.CrashKind)
	if err != nil {
		return err
	}
	soak := chaos.SoakConfig{Chaos: soakFaults(replay.KernelVDom, 0)}
	if o.Scenario != "" {
		spec, err := loadScenario(o.Scenario)
		if err != nil {
			return err
		}
		soak.Chaos, kinds, seed, so = scenarioServeConfig(w, spec, kinds, seed, so)
	}
	cfg := serve.Config{
		Shards:          so.Shards,
		Seed:            seed,
		Soak:            soak,
		Pressure:        chaos.PressureConfig{SnapWriteFail: so.SnapWriteFail, SnapCorrupt: so.SnapCorrupt},
		OpsPerShard:     so.OpsPerShard,
		Duration:        so.Duration,
		CheckpointEvery: so.CheckpointEvery,
		Ring:            so.Ring,
		RingDir:         so.RingDir,
		MaxRetries:      so.MaxRetries,
		CrashEvery:      so.CrashEvery,
		CrashKinds:      kinds,
		HealthEvery:     so.HealthEvery,
	}
	if o.Metrics.Enabled() {
		cfg.Metrics = o.Metrics
	}
	if so.HealthEvery > 0 {
		cfg.HealthSink = func(h *serve.Health) {
			if so.HealthOut != "" {
				writeHealth(so.HealthOut, h)
			}
			fmt.Fprintf(w, "health: %d running, %d recovering, %d quarantined, %d drained | %d ops, %d crashes, %d recoveries, %d ring fallbacks\n",
				h.Running, h.Recovering, h.Quarantined, h.Drained, h.Ops, h.Crashes, h.Recoveries, h.RingFallbacks)
		}
	}

	rep, err := serve.Run(o.Ctx, cfg)
	if err != nil {
		return err
	}
	for _, sh := range rep.Shards {
		o.Metrics.Merge(sh.Metrics)
	}

	t := &Table{
		Title: fmt.Sprintf("Supervised soak: %d shards, seed %d: rolling checkpoints (ring %d) + self-healing recovery",
			len(rep.Shards), seed, rep.Shards[0].Health.RingCap),
		Columns: []string{"shard", "state", "ops", "crashes", "recoveries", "retries", "fallbacks", "ring", "max rec ms"},
	}
	for _, sh := range rep.Shards {
		h := sh.Health
		t.Row(fmt.Sprint(h.Shard), h.State.String(), fmt.Sprint(h.Ops),
			fmt.Sprint(h.Crashes), fmt.Sprint(h.Recoveries), fmt.Sprint(h.Retries),
			fmt.Sprint(h.RingFallbacks), fmt.Sprintf("%d/%d", h.RingLen, h.RingCap),
			fmt.Sprintf("%.2f", float64(h.MaxRecoveryNs)/1e6))
	}
	o.Render(w, t)

	h := rep.Health
	if so.HealthOut != "" {
		if err := writeHealth(so.HealthOut, h); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nhealth report: %s\n", so.HealthOut)
	}
	if h.Quarantined > 0 {
		for _, sh := range rep.Shards {
			if sh.Health.State == serve.Quarantined {
				fmt.Fprintf(w, "quarantined shard %d: %s\n", sh.Shard, sh.Health.LastError)
			}
		}
		return fmt.Errorf("serve: %d of %d shards quarantined", h.Quarantined, len(rep.Shards))
	}
	fmt.Fprintf(w, "\nverdict: HEALTHY — %d crashes and %d harness faults absorbed, %d recoveries, 0 quarantined\n",
		h.Crashes, h.CheckpointWriteFails+h.CorruptedCheckpoints, h.Recoveries)
	if so.RequireRecoveries > 0 && h.Recoveries < so.RequireRecoveries {
		return fmt.Errorf("serve: %d recoveries, required at least %d", h.Recoveries, so.RequireRecoveries)
	}
	return nil
}
