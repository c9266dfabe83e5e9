package scenario

import (
	"fmt"
	"strings"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/core"
	"vdom/internal/replay"
)

// WorkloadPrefix marks scenario cells in a trace's Header.Workload.
const WorkloadPrefix = "scenario/"

// defaultMix is the op mix of a phase that does not declare one.
var defaultMix = Mix{Activate: 8, Churn: 1, Plain: 1}

// capacityHeadroom over-provisions a cell's total domain-slot capacity
// relative to its initial working set, so lifetime churn on
// fixed-capacity kernels (EPK's monotonic slot allocator) can mint fresh
// ids for a while before the driver falls back to slot reuse.
const capacityHeadroom = 4

// Cell is one compiled execution unit: an isolated System driven for Ops
// operations at a fixed client count. Cells are independent — each
// carries its own derived seed — so a plan can run at any parallel
// width with byte-identical results.
type Cell struct {
	// Scenario and Kernel name the run; Phase/PhaseIndex/Step locate
	// the cell in the plan.
	Scenario   string
	Kernel     string
	Phase      string
	PhaseIndex int
	Step       int
	// Clients is the interpolated ramp value; Ops the op budget;
	// Domains the per-client working set.
	Clients int
	Ops     int
	Domains int
	// Arch and Cores describe the platform.
	Arch  string
	Cores int
	// Seed is the cell's private PRNG stream root.
	Seed uint64
	// Capacity is the total domain-slot budget (EPK's epk.New size).
	Capacity int
	// Lifetime, Mix, and Faults are the resolved phase behavior.
	Lifetime Lifetime
	Mix      Mix
	Faults   *FaultSpec
}

// Plan is a compiled scenario for one kernel.
type Plan struct {
	Spec   *Spec
	Kernel string
	Cells  []Cell
}

// Quick quarters every cell's op budget (minimum 1), the scenario
// counterpart of bench's -quick smoke mode.
func (p *Plan) Quick() {
	for i := range p.Cells {
		if ops := (p.Cells[i].Ops + 3) / 4; ops < p.Cells[i].Ops {
			p.Cells[i].Ops = ops
		}
	}
}

// Kernels resolves the kernel axis of a spec: the explicit override if
// given, the spec's declared set otherwise, every registered backend as
// the final default. The override must name a registered backend.
func Kernels(s *Spec, override string) ([]string, error) {
	if override != "" {
		if _, ok := backend.Get(override); !ok {
			return nil, fmt.Errorf("%w: unknown kernel %q (registered: %s)",
				ErrBadRecord, override, strings.Join(backend.Names(), ", "))
		}
		return []string{override}, nil
	}
	if len(s.Kernels) > 0 {
		return s.Kernels, nil
	}
	return backend.Names(), nil
}

// Compile lowers a validated spec to the deterministic plan for one
// kernel: one cell per (phase, ramp step), each with an interpolated
// client count and a seed derived from the spec seed and the cell's
// coordinates. Compiling the same spec twice yields identical plans.
func Compile(s *Spec, kern string) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if _, ok := backend.Get(kern); !ok {
		return nil, fmt.Errorf("%w: unknown kernel %q (registered: %s)",
			ErrBadRecord, kern, strings.Join(backend.Names(), ", "))
	}
	p := &Plan{Spec: s, Kernel: kern}
	for pi := range s.Phases {
		ph := &s.Phases[pi]
		arch := ph.Arch
		if arch == "" {
			arch = s.Arch
		}
		if arch == "" {
			arch = "x86"
		}
		cores := ph.Cores
		if cores == 0 {
			cores = s.Cores
		}
		if cores == 0 {
			cores = 2
		}
		mix := defaultMix
		if ph.Mix != nil {
			mix = *ph.Mix
		}
		for st := 0; st < ph.Clients.steps(); st++ {
			clients := ph.Clients.at(st)
			p.Cells = append(p.Cells, Cell{
				Scenario: s.Name, Kernel: kern,
				Phase: ph.Name, PhaseIndex: pi, Step: st,
				Clients: clients, Ops: ph.Ops, Domains: ph.DomainsPerClient,
				Arch: arch, Cores: cores,
				Seed:     deriveSeed(s.Seed, s.Name, kern, pi, st),
				Capacity: clients * ph.DomainsPerClient * capacityHeadroom,
				Lifetime: ph.Lifetime, Mix: mix, Faults: ph.Faults,
			})
		}
	}
	return p, nil
}

// deriveSeed mixes the spec seed with a cell's coordinates through
// splitmix64, so sibling cells get decorrelated PRNG streams and the
// derivation is stable across runs and platforms.
func deriveSeed(root uint64, name, kern string, phase, step int) uint64 {
	x := root ^ replay.DigestString(fmt.Sprintf("%s|%s|%d|%d", name, kern, phase, step))
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// distCode gives each lifetime distribution a stable numeric id for the
// trace-header Extra map.
func distCode(dist string) uint64 {
	switch dist {
	case LifeFixed:
		return 1
	case LifeUniform:
		return 2
	case LifeGeometric:
		return 3
	default:
		return 0
	}
}

// Header forges the vdom-trace/v1 header describing the cell's
// platform: replay.Boot inverts it to the identical System, and the
// Extra map carries the cell geometry plus (for faulted cells) the
// chaos injector configuration chaos.ReplayTrace re-arms.
func (c *Cell) Header() replay.Header {
	h := replay.Header{
		Version:  replay.FormatVersion,
		Kernel:   c.Kernel,
		Arch:     c.Arch,
		Cores:    c.Cores,
		Seed:     c.Seed,
		Workload: fmt.Sprintf("%s%s/%s/%d", WorkloadPrefix, c.Scenario, c.Phase, c.Step),
		ConfigDigest: replay.DigestString(fmt.Sprintf(
			"scenario|%s|kernel=%s|phase=%s|step=%d|clients=%d|ops=%d|domains=%d|arch=%s|cores=%d|mix=%d/%d/%d|life=%s/%d|faults=%+v|seed=%#x",
			c.Scenario, c.Kernel, c.Phase, c.Step, c.Clients, c.Ops, c.Domains,
			c.Arch, c.Cores, c.Mix.Activate, c.Mix.Churn, c.Mix.Plain,
			c.Lifetime.Dist, c.Lifetime.MeanOps, c.Faults, c.Seed)),
		Extra: map[string]uint64{
			"scenario/clients":      uint64(c.Clients),
			"scenario/ops":          uint64(c.Ops),
			"scenario/domains":      uint64(c.Domains),
			"scenario/capacity":     uint64(c.Capacity),
			"scenario/mix-activate": uint64(c.Mix.Activate),
			"scenario/mix-churn":    uint64(c.Mix.Churn),
			"scenario/mix-plain":    uint64(c.Mix.Plain),
			"scenario/life-dist":    distCode(c.Lifetime.Dist),
			"scenario/life-mean":    uint64(c.Lifetime.MeanOps),
		},
	}
	switch c.Kernel {
	case replay.KernelVDom:
		h.Flags |= replay.HdrVDomKernel
		h.SetPolicy(core.DefaultPolicy())
	case replay.KernelEPK:
		h.Domains = c.Capacity
	}
	if c.Faults.Any() {
		for k, v := range chaos.ExtraConfig(c.Faults.Config(c.Seed)) {
			h.Extra[k] = v
		}
	}
	return h
}
