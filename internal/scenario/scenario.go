// Package scenario implements the vdom-scenario/v1 declarative workload
// format: a versioned JSON spec describing phased, production-shaped
// domain workloads — client ramps, vdom-lifetime distributions, op mixes,
// per-phase kernel/arch selection, fault schedules (compiled onto the
// internal/chaos injector), and crash/checkpoint schedules (compiled onto
// the serve fleet's crash model and snapshot ring).
//
// A Spec decodes with the same discipline as vdom-trace/v1 and
// vdom-snap/v2 (magic/version check, typed sentinels, anti-panic caps,
// fuzzable decoder) and encodes canonically, so decode → re-encode is a
// fixed point. Compile lowers a validated spec to a deterministic seeded
// Plan of independent cells — one isolated System per (phase, ramp step)
// — which RunCell drives through the backend registry's generic
// DomainOps adapter, so every scenario runs unchanged on every
// registered kernel (vdom, libmpk, epk, dpti), is byte-identical at any
// -parallel width, and records/replays via vdom-trace/v1. See
// SCENARIOS.md for the spec schema and the bundled library under
// testdata/scenarios/.
package scenario

import (
	"errors"
	"fmt"

	"vdom/internal/chaos"
	"vdom/internal/replay"
	"vdom/internal/tlb"
)

// FormatVersion is the spec format version this package reads and writes.
const FormatVersion = 1

// FormatName is the magic the Format field must carry.
const FormatName = "vdom-scenario/v1"

// formatPrefix is the magic family; a matching prefix with a different
// version suffix is ErrBadVersion rather than ErrBadMagic.
const formatPrefix = "vdom-scenario/v"

// Typed decode errors. The decoder never panics on malformed input; it
// returns one of these (possibly wrapped with positional context).
var (
	// ErrBadMagic reports input whose format field is not a
	// vdom-scenario magic.
	ErrBadMagic = errors.New("scenario: bad spec magic")
	// ErrBadVersion reports a spec written by an unknown format version.
	ErrBadVersion = errors.New("scenario: unsupported spec version")
	// ErrTruncated reports input that ends mid-document.
	ErrTruncated = errors.New("scenario: truncated spec")
	// ErrBadRecord reports a structurally invalid spec (unknown field,
	// missing phase, out-of-range ramp, bad distribution, ...).
	ErrBadRecord = errors.New("scenario: malformed spec")
)

// Anti-panic caps: a hostile spec cannot make the compiler or runner
// allocate unboundedly. Validate enforces them.
const (
	// MaxPhases bounds Spec.Phases.
	MaxPhases = 32
	// MaxSteps bounds one phase's ramp steps.
	MaxSteps = 16
	// MaxCells bounds the compiled plan (sum of every phase's steps).
	MaxCells = 256
	// MaxClients bounds one cell's client count.
	MaxClients = 512
	// MaxOps bounds one cell's op budget.
	MaxOps = 1 << 16
	// MaxDomains bounds one client's domain working set.
	MaxDomains = 64
	// maxSpecBytes bounds the raw input the decoder accepts.
	maxSpecBytes = 1 << 20
	// maxNameLen bounds the scenario and phase names.
	maxNameLen = 100
	// maxNotesLen bounds the free-text notes field.
	maxNotesLen = 4096
)

// Lifetime distribution kinds.
const (
	// LifeInfinite ("") never expires a domain; only the churn mix
	// weight recycles it.
	LifeInfinite = ""
	// LifeFixed expires a domain after exactly MeanOps activations.
	LifeFixed = "fixed"
	// LifeUniform draws a lifetime uniformly from [1, 2*MeanOps-1].
	LifeUniform = "uniform"
	// LifeGeometric draws a geometric lifetime with mean MeanOps
	// (integer sampling, so cross-platform deterministic).
	LifeGeometric = "geometric"
)

// Spec is one vdom-scenario/v1 document.
type Spec struct {
	// Format is the magic: FormatName.
	Format string `json:"format"`
	// Name identifies the scenario; the bundled library uses it as the
	// file stem under testdata/scenarios/.
	Name string `json:"name"`
	// Notes is free-form documentation.
	Notes string `json:"notes,omitempty"`
	// Seed is the scenario's root PRNG seed; every cell derives its own
	// stream from it.
	Seed uint64 `json:"seed"`
	// Kernels is the default kernel set a runner sweeps (empty: every
	// registered backend). An explicit -kernel selection overrides it.
	Kernels []string `json:"kernels,omitempty"`
	// Arch is the default cost architecture (empty: x86); phases may
	// override it.
	Arch string `json:"arch,omitempty"`
	// Cores is the default machine width (0: 2); phases may override it.
	Cores int `json:"cores,omitempty"`
	// Phases is the scenario's timeline, compiled in order.
	Phases []Phase `json:"phases"`
	// Crash, when present, schedules the scenario as a supervised fleet
	// (vdom-bench serve -scenario): checkpoint ring + crash injection.
	Crash *CrashSpec `json:"crash,omitempty"`
}

// Phase is one scenario stage: a client ramp driven for Ops operations
// per step against a per-client domain working set.
type Phase struct {
	// Name identifies the phase (unique within the spec).
	Name string `json:"name"`
	// Clients is the phase's client ramp; each step is one plan cell.
	Clients Ramp `json:"clients"`
	// Ops is the op budget of each cell.
	Ops int `json:"ops"`
	// DomainsPerClient sizes each client's domain working set.
	DomainsPerClient int `json:"domains_per_client"`
	// Lifetime draws how many activations a domain survives before it
	// is freed and reallocated (the churn regime).
	Lifetime Lifetime `json:"lifetime,omitempty"`
	// Arch overrides the spec's cost architecture for this phase.
	Arch string `json:"arch,omitempty"`
	// Cores overrides the spec's machine width for this phase.
	Cores int `json:"cores,omitempty"`
	// Mix weights the op kinds (nil: 8 activate / 1 churn / 1 plain).
	Mix *Mix `json:"mix,omitempty"`
	// Faults, when present, attaches a chaos injector with these
	// probabilities to every cell of the phase.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// Ramp interpolates a client count linearly across Steps cells.
type Ramp struct {
	// Start is the first step's client count.
	Start int `json:"start"`
	// End is the last step's client count (0: flat at Start).
	End int `json:"end,omitempty"`
	// Steps is the number of cells the ramp compiles to (0: 1).
	Steps int `json:"steps,omitempty"`
}

// Lifetime is a vdom-lifetime distribution.
type Lifetime struct {
	// Dist is the distribution kind (Life* constants).
	Dist string `json:"dist,omitempty"`
	// MeanOps is the distribution's mean, in activations.
	MeanOps int `json:"mean_ops,omitempty"`
}

// Mix weights the three op kinds of the cell driver: a protected-domain
// activation round (activate, access, deactivate), a forced domain churn
// (free, realloc, reprotect), and a plain access to an unprotected
// scratch region.
type Mix struct {
	Activate int `json:"activate"`
	Churn    int `json:"churn"`
	Plain    int `json:"plain"`
}

// FaultSpec mirrors chaos.Config: per-op fault probabilities the phase's
// cells run under. See internal/chaos for the semantics of each knob.
type FaultSpec struct {
	DropIPI        float64 `json:"drop_ipi,omitempty"`
	DelayIPI       float64 `json:"delay_ipi,omitempty"`
	StaleTLB       float64 `json:"stale_tlb,omitempty"`
	ASIDExhaustion float64 `json:"asid_exhaustion,omitempty"`
	ASIDLimit      int     `json:"asid_limit,omitempty"`
	VDSAllocFail   float64 `json:"vds_alloc_fail,omitempty"`
	PdomExhaustion float64 `json:"pdom_exhaustion,omitempty"`
	SpuriousFault  float64 `json:"spurious_fault,omitempty"`
}

// Any reports whether the spec injects at all.
func (f *FaultSpec) Any() bool {
	return f != nil && (f.DropIPI > 0 || f.DelayIPI > 0 || f.StaleTLB > 0 ||
		f.ASIDExhaustion > 0 || f.VDSAllocFail > 0 || f.PdomExhaustion > 0 ||
		f.SpuriousFault > 0)
}

// Config lowers the fault schedule onto a chaos injector configuration
// seeded for one cell.
func (f *FaultSpec) Config(seed uint64) chaos.Config {
	if f == nil {
		return chaos.Config{Seed: seed}
	}
	return chaos.Config{
		Seed:           seed,
		DropIPI:        f.DropIPI,
		DelayIPI:       f.DelayIPI,
		StaleTLB:       f.StaleTLB,
		ASIDExhaustion: f.ASIDExhaustion,
		ASIDLimit:      tlb.ASID(f.ASIDLimit),
		VDSAllocFail:   f.VDSAllocFail,
		PdomExhaustion: f.PdomExhaustion,
		SpuriousFault:  f.SpuriousFault,
	}
}

// CrashSpec schedules a scenario as a supervised fleet: it compiles onto
// serve.Config (checkpoint ring + crash model + harness pressure). Zero
// fields keep the serve defaults or the corresponding -flag values.
type CrashSpec struct {
	// Shards is the fleet width.
	Shards int `json:"shards,omitempty"`
	// OpsPerShard bounds each shard's soak.
	OpsPerShard int `json:"ops_per_shard,omitempty"`
	// CheckpointEvery is the rolling-checkpoint cadence in ops.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Ring is the checkpoint-ring capacity per shard.
	Ring int `json:"ring,omitempty"`
	// CrashEvery is the mean ops between injected crash faults.
	CrashEvery int `json:"crash_every,omitempty"`
	// Kinds lists the injected crash kinds ("core-crash",
	// "kernel-panic", "torn-domain-map"; empty: all three).
	Kinds []string `json:"kinds,omitempty"`
	// MaxRetries quarantines a shard after this many consecutive
	// recovery failures.
	MaxRetries int `json:"max_retries,omitempty"`
	// SnapWriteFail and SnapCorrupt are the harness-pressure
	// probabilities.
	SnapWriteFail float64 `json:"snap_write_fail,omitempty"`
	SnapCorrupt   float64 `json:"snap_corrupt,omitempty"`
}

// crashKindNames are the CrashSpec.Kinds vocabulary.
var crashKindNames = map[string]chaos.CrashKind{
	chaos.CrashCore.String():          chaos.CrashCore,
	chaos.CrashKernelPanic.String():   chaos.CrashKernelPanic,
	chaos.CrashTornDomainMap.String(): chaos.CrashTornDomainMap,
}

// CrashKinds resolves CrashSpec.Kinds (nil for "all").
func (c *CrashSpec) CrashKinds() ([]chaos.CrashKind, error) {
	if c == nil || len(c.Kinds) == 0 {
		return nil, nil
	}
	kinds := make([]chaos.CrashKind, 0, len(c.Kinds))
	for _, name := range c.Kinds {
		k, ok := crashKindNames[name]
		if !ok {
			return nil, fmt.Errorf("%w: unknown crash kind %q", ErrBadRecord, name)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// prob validates one probability field.
func prob(name string, p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("%w: %s probability %v outside [0, 1]", ErrBadRecord, name, p)
	}
	return nil
}

// Validate checks a spec against the format's structural rules and
// anti-panic caps. Decode calls it; Compile re-checks so hand-built
// specs get the same guarantees.
func (s *Spec) Validate() error {
	switch {
	case s.Format != FormatName:
		return fmt.Errorf("%w: format %q", ErrBadMagic, s.Format)
	case s.Name == "" || len(s.Name) > maxNameLen:
		return fmt.Errorf("%w: scenario name must be 1..%d bytes", ErrBadRecord, maxNameLen)
	case len(s.Notes) > maxNotesLen:
		return fmt.Errorf("%w: notes exceed %d bytes", ErrBadRecord, maxNotesLen)
	case len(s.Phases) == 0:
		return fmt.Errorf("%w: a scenario needs at least one phase", ErrBadRecord)
	case len(s.Phases) > MaxPhases:
		return fmt.Errorf("%w: %d phases exceed the cap of %d", ErrBadRecord, len(s.Phases), MaxPhases)
	case s.Cores < 0 || s.Cores > 64:
		return fmt.Errorf("%w: cores %d outside [0, 64]", ErrBadRecord, s.Cores)
	}
	if s.Arch != "" {
		if _, err := replay.ArchFromName(s.Arch); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
	}
	if len(s.Kernels) > 8 {
		return fmt.Errorf("%w: %d kernels exceed the cap of 8", ErrBadRecord, len(s.Kernels))
	}
	seenKernel := map[string]bool{}
	for _, k := range s.Kernels {
		if k == "" || seenKernel[k] {
			return fmt.Errorf("%w: empty or duplicate kernel %q", ErrBadRecord, k)
		}
		seenKernel[k] = true
	}
	cells := 0
	seenPhase := map[string]bool{}
	for i := range s.Phases {
		p := &s.Phases[i]
		if err := p.validate(); err != nil {
			return fmt.Errorf("phase %d (%q): %w", i, p.Name, err)
		}
		if seenPhase[p.Name] {
			return fmt.Errorf("%w: duplicate phase name %q", ErrBadRecord, p.Name)
		}
		seenPhase[p.Name] = true
		cells += p.Clients.steps()
	}
	if cells > MaxCells {
		return fmt.Errorf("%w: plan would have %d cells, cap is %d", ErrBadRecord, cells, MaxCells)
	}
	if s.Crash != nil {
		if err := s.Crash.validate(); err != nil {
			return err
		}
	}
	return nil
}

// validate checks one phase.
func (p *Phase) validate() error {
	switch {
	case p.Name == "" || len(p.Name) > maxNameLen:
		return fmt.Errorf("%w: phase name must be 1..%d bytes", ErrBadRecord, maxNameLen)
	case p.Ops < 1 || p.Ops > MaxOps:
		return fmt.Errorf("%w: ops %d outside [1, %d]", ErrBadRecord, p.Ops, MaxOps)
	case p.DomainsPerClient < 1 || p.DomainsPerClient > MaxDomains:
		return fmt.Errorf("%w: domains_per_client %d outside [1, %d]", ErrBadRecord, p.DomainsPerClient, MaxDomains)
	case p.Cores < 0 || p.Cores > 64:
		return fmt.Errorf("%w: cores %d outside [0, 64]", ErrBadRecord, p.Cores)
	}
	if err := p.Clients.validate(); err != nil {
		return err
	}
	if err := p.Lifetime.validate(); err != nil {
		return err
	}
	if p.Arch != "" {
		if _, err := replay.ArchFromName(p.Arch); err != nil {
			return fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
	}
	if m := p.Mix; m != nil {
		if m.Activate < 0 || m.Churn < 0 || m.Plain < 0 ||
			m.Activate > 100 || m.Churn > 100 || m.Plain > 100 {
			return fmt.Errorf("%w: mix weights outside [0, 100]", ErrBadRecord)
		}
		if m.Activate+m.Churn+m.Plain == 0 {
			return fmt.Errorf("%w: mix weights sum to zero", ErrBadRecord)
		}
	}
	if f := p.Faults; f != nil {
		for _, pr := range []struct {
			name string
			p    float64
		}{
			{"drop_ipi", f.DropIPI}, {"delay_ipi", f.DelayIPI},
			{"stale_tlb", f.StaleTLB}, {"asid_exhaustion", f.ASIDExhaustion},
			{"vds_alloc_fail", f.VDSAllocFail}, {"pdom_exhaustion", f.PdomExhaustion},
			{"spurious_fault", f.SpuriousFault},
		} {
			if err := prob(pr.name, pr.p); err != nil {
				return err
			}
		}
		if f.ASIDLimit < 0 || f.ASIDLimit > 4096 {
			return fmt.Errorf("%w: asid_limit %d outside [0, 4096]", ErrBadRecord, f.ASIDLimit)
		}
	}
	return nil
}

// validate checks one ramp; Steps beyond MaxSteps is the "overlong ramp"
// rejection.
func (r Ramp) validate() error {
	switch {
	case r.Start < 1 || r.Start > MaxClients:
		return fmt.Errorf("%w: ramp start %d outside [1, %d]", ErrBadRecord, r.Start, MaxClients)
	case r.End < 0 || r.End > MaxClients:
		return fmt.Errorf("%w: ramp end %d outside [0, %d]", ErrBadRecord, r.End, MaxClients)
	case r.Steps < 0 || r.Steps > MaxSteps:
		return fmt.Errorf("%w: ramp steps %d outside [0, %d]", ErrBadRecord, r.Steps, MaxSteps)
	}
	return nil
}

// steps resolves the ramp's cell count.
func (r Ramp) steps() int {
	if r.Steps < 1 {
		return 1
	}
	return r.Steps
}

// at interpolates the client count of step k (0-based) linearly between
// Start and End.
func (r Ramp) at(k int) int {
	end := r.End
	if end == 0 {
		end = r.Start
	}
	n := r.steps()
	if n == 1 {
		return r.Start
	}
	return r.Start + (end-r.Start)*k/(n-1)
}

// validate checks one lifetime distribution.
func (l Lifetime) validate() error {
	switch l.Dist {
	case LifeInfinite:
		if l.MeanOps != 0 {
			return fmt.Errorf("%w: lifetime mean_ops %d without a dist", ErrBadRecord, l.MeanOps)
		}
	case LifeFixed, LifeUniform, LifeGeometric:
		if l.MeanOps < 1 || l.MeanOps > MaxOps {
			return fmt.Errorf("%w: lifetime mean_ops %d outside [1, %d]", ErrBadRecord, l.MeanOps, MaxOps)
		}
	default:
		return fmt.Errorf("%w: unknown lifetime dist %q", ErrBadRecord, l.Dist)
	}
	return nil
}

// validate checks the crash stanza.
func (c *CrashSpec) validate() error {
	for _, n := range []struct {
		name     string
		v, upper int
	}{
		{"shards", c.Shards, 64}, {"ops_per_shard", c.OpsPerShard, 1 << 20},
		{"checkpoint_every", c.CheckpointEvery, 1 << 20}, {"ring", c.Ring, 64},
		{"crash_every", c.CrashEvery, 1 << 20}, {"max_retries", c.MaxRetries, 64},
	} {
		if n.v < 0 || n.v > n.upper {
			return fmt.Errorf("%w: crash %s %d outside [0, %d]", ErrBadRecord, n.name, n.v, n.upper)
		}
	}
	if err := prob("snap_write_fail", c.SnapWriteFail); err != nil {
		return err
	}
	if err := prob("snap_corrupt", c.SnapCorrupt); err != nil {
		return err
	}
	_, err := c.CrashKinds()
	return err
}
