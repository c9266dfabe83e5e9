package workload

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/metrics"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/sim"
)

// HttpdConfig describes one httpd+OpenSSL run (Figures 1 and 5): an Apache
// event-model worker with a pool of threads serving HTTPS requests, where
// every request performs an ECDHE-RSA handshake whose private-key
// structures live in per-key 4 KiB protection domains.
type HttpdConfig struct {
	Arch    cycles.Arch
	System  System
	Clients int
	// RequestsPerClient defaults to 50 (the paper uses 10,000; the
	// simulated run is scaled down, which does not change steady-state
	// per-request behaviour).
	RequestsPerClient int
	// FileBytes is the response size (1 KiB, 16 KiB, 64 KiB, 128 KiB).
	FileBytes uint64
	// Workers is the server thread-pool size (paper: 40; Figure 1: 25).
	Workers int
	// Cores defaults to the platform's hardware-thread count.
	Cores int
	// KeysPerRequest is how many private-key structures each request
	// allocates and protects (the paper observes ≈2).
	KeysPerRequest int
	// LibmpkMode selects the baseline's page backing.
	LibmpkMode libmpk.PageMode
	// KeepAlive reuses one connection per client (ab -k): the TLS
	// handshake and its key domains amortize over RequestsPerClient
	// transfers. An extension beyond the paper's per-request
	// connections.
	KeepAlive bool
	Seed      uint64

	// Trace, when non-nil, receives the discrete-event simulator's
	// timeline — one Chrome-trace span per scheduled burst of every sim
	// process (workers, clients), timestamped on virtual time — for
	// inspection in Perfetto (see OBSERVABILITY.md).
	Trace *metrics.Trace
	// Record, when non-nil, captures the run's domain-op stream
	// (internal/replay).
	Record *replay.Recorder
}

func (c *HttpdConfig) defaults() {
	if c.RequestsPerClient == 0 {
		c.RequestsPerClient = 50
	}
	if c.Workers == 0 {
		c.Workers = 40
	}
	if c.Cores == 0 {
		c.Cores = DefaultCores(c.Arch)
	}
	if c.KeysPerRequest == 0 {
		c.KeysPerRequest = 2
	}
	if c.FileBytes == 0 {
		c.FileBytes = 1024
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
}

// HttpdResult is one run's outcome.
type HttpdResult struct {
	Config    HttpdConfig
	Requests  int
	Makespan  sim.Time
	ReqPerSec float64
	// LibmpkStats is populated when System == Libmpk (Figure 1).
	LibmpkStats libmpk.Stats
	// VDomStats is populated when System == VDom.
	VDomStats core.Stats
	// WorkerBusyCycles is the sum of on-core cycles across workers.
	WorkerBusyCycles uint64
}

// httpdCosts is the per-architecture request cost model, calibrated to the
// paper's absolute throughputs (≈1.3×10⁴ req/s on the Xeon, ≈250 on the
// Pi, for 1 KiB responses at saturation).
type httpdCosts struct {
	// signUser is the RSA private-key operation, executed with the
	// certificate key's domain open.
	signUser cycles.Cost
	// handshakeUser is the rest of the user-space handshake work.
	handshakeUser cycles.Cost
	// kernBase is per-request kernel work (accept, TCP/TLS records,
	// close) independent of the body size.
	kernBase cycles.Cost
	// userPerByte / kernPerByte scale with the response body.
	userPerByte float64
	kernPerByte float64
}

func httpdCostsFor(arch cycles.Arch) httpdCosts {
	if arch == cycles.ARM {
		return httpdCosts{
			signUser:      7_000_000,
			handshakeUser: 6_000_000,
			kernBase:      4_000_000,
			userPerByte:   8,
			kernPerByte:   6,
		}
	}
	return httpdCosts{
		signUser:      4_300_000,
		handshakeUser: 200_000,
		kernBase:      1_200_000,
		userPerByte:   1.2,
		kernPerByte:   3.0,
	}
}

// RunHttpd executes one httpd configuration and reports throughput.
func RunHttpd(cfg HttpdConfig) HttpdResult {
	cfg.defaults()
	pl := newPlatform(cfg.Arch, cfg.Cores, cfg.System == VDom || cfg.System == VDomLowerbound, cfg.Seed)
	if cfg.Trace != nil {
		pl.env.SetTracer(cfg.Trace)
	}
	costs := httpdCostsFor(cfg.Arch)

	active := cfg.Workers
	if cfg.Clients < active {
		active = cfg.Clients
	}
	totalRequests := cfg.Clients * cfg.RequestsPerClient

	var (
		mgr     *core.Manager
		lbm     *libmpk.Manager
		lbmLock *sim.Resource
		esys    *epk.System
		edoms   *epkDomains
		lowDom  core.VdomID
		lowBase pagetable.VAddr
	)
	switch cfg.System {
	case VDom, VDomLowerbound:
		mgr = core.Attach(pl.proc, core.DefaultPolicy())
	case Libmpk:
		lbm = libmpk.Attach(pl.proc, nil)
		lbm.SetPageMode(cfg.LibmpkMode)
		lbmLock = pl.env.NewResource(1)
	case EPK:
		esys = epk.New(epk.KeysPerEPT*5, epk.DefaultVMTax())
		edoms = newEPKDomains(esys)
	}
	if rec := cfg.Record; rec != nil {
		rec.AttachSystem(&replay.System{Kernel: pl.kernel, Proc: pl.proc, Manager: mgr, Libmpk: lbm, EPK: esys})
	}

	// Spawn workers, round-robin over cores.
	type worker struct {
		task *kernel.Task
		id   int
	}
	workers := make([]*worker, active)
	for i := range workers {
		workers[i] = &worker{task: pl.proc.NewTask(i % cfg.Cores), id: i}
		if cfg.Record != nil {
			cfg.Record.Spawn(workers[i].task)
		}
	}
	if cfg.System == VDom || cfg.System == VDomLowerbound {
		for _, w := range workers {
			if _, err := mgr.VdrAlloc(w.task, 0); err != nil {
				panic(fmt.Sprintf("httpd: vdr_alloc: %v", err))
			}
		}
		if cfg.System == VDomLowerbound {
			lowDom, _ = mgr.AllocVdom(true)
			// One shared region stands in for all key structures.
			lowBase = pl.mustAlloc(workers[0].task, pagetable.PageSize*64)
			if _, err := mgr.Mprotect(workers[0].task, lowBase, pagetable.PageSize*64, lowDom); err != nil {
				panic(err)
			}
		}
	}

	var busy uint64
	remaining := totalRequests
	// Per-request split of body-independent work between the two main
	// bursts.
	userBytes := cycles.Cost(float64(cfg.FileBytes) * costs.userPerByte)
	kernBytes := cycles.Cost(float64(cfg.FileBytes) * costs.kernPerByte)

	for _, w := range workers {
		w := w
		share := remaining / (active - w.id)
		remaining -= share
		pl.env.Go(fmt.Sprintf("httpd-worker-%d", w.id), func(p *sim.Proc) {
			if cfg.KeepAlive {
				// One connection, `share` transfers on it.
				busy += uint64(serveConnection(pl, cfg, costs, w.task, w.id, p,
					mgr, lbm, lbmLock, esys, edoms, lowDom, lowBase, userBytes, kernBytes, share))
				return
			}
			for r := 0; r < share; r++ {
				busy += uint64(serveConnection(pl, cfg, costs, w.task, w.id, p,
					mgr, lbm, lbmLock, esys, edoms, lowDom, lowBase, userBytes, kernBytes, 1))
			}
		})
	}
	makespan := pl.env.Run()

	res := HttpdResult{
		Config:           cfg,
		Requests:         totalRequests,
		Makespan:         makespan,
		WorkerBusyCycles: busy,
	}
	if makespan > 0 {
		res.ReqPerSec = float64(totalRequests) / (float64(makespan) / ClockHz(cfg.Arch))
	}
	if lbm != nil {
		res.LibmpkStats = lbm.Stats
		res.LibmpkStats.BusyWaitCycles += lbmLock.WaitedCycles
	}
	if mgr != nil {
		res.VDomStats = mgr.Stats
	}
	return res
}

// serveConnection models one HTTPS connection carrying `transfers`
// requests:
//
//	accept + handshake (kern/user) → RSA sign with the certificate key's
//	domain open → `transfers` response transfers with the session key's
//	domain open around each → teardown, freeing both per-connection key
//	domains. transfers == 1 is the paper's ab configuration; larger values
//	model keep-alive.
func serveConnection(pl *platform, cfg HttpdConfig, costs httpdCosts, task *kernel.Task, tid int, p *sim.Proc,
	mgr *core.Manager, lbm *libmpk.Manager, lbmLock *sim.Resource, esys *epk.System, edoms *epkDomains,
	lowDom core.VdomID, lowBase pagetable.VAddr, userBytes, kernBytes cycles.Cost, transfers int) cycles.Cost {

	var total cycles.Cost
	run := func(body func() cycles.Cost) {
		total += pl.sched.Run(p, task, body)
	}
	inVM := cfg.System == EPK
	work := func(user, kern cycles.Cost) cycles.Cost {
		if inVM {
			return esys.WorkInVM(user, kern)
		}
		return user + kern
	}

	type key struct {
		vdom  core.VdomID
		vkey  libmpk.Vkey
		edom  int
		addr  pagetable.VAddr
		bytes uint64
	}
	newKey := func() *key {
		k := &key{bytes: pagetable.PageSize}
		switch cfg.System {
		case VDom:
			run(func() cycles.Cost {
				addr, err := pl.alloc(task, k.bytes)
				if err != nil {
					panic(err)
				}
				k.addr = addr
				d, c := mgr.AllocVdom(false)
				k.vdom = d
				c2, err := mgr.Mprotect(task, addr, k.bytes, d)
				if err != nil {
					panic(err)
				}
				return c + c2
			})
		case VDomLowerbound:
			k.vdom = lowDom
			k.addr = lowBase + pagetable.VAddr((tid%64)*pagetable.PageSize)
		case Libmpk:
			run(func() cycles.Cost {
				addr, err := pl.alloc(task, k.bytes)
				if err != nil {
					panic(err)
				}
				k.addr = addr
				v, c := lbm.PkeyAlloc()
				k.vkey = v
				c2, err := lbm.PkeyMprotect(nil, task, addr, k.bytes, v)
				if err != nil {
					panic(err)
				}
				return c + c2
			})
		case EPK:
			k.edom = edoms.alloc()
		}
		return k
	}
	open := func(k *key) {
		switch cfg.System {
		case VDom, VDomLowerbound:
			run(func() cycles.Cost {
				c, err := mgr.WrVdr(task, k.vdom, core.VPermReadWrite)
				if err != nil {
					panic(err)
				}
				// Touch the key structure.
				c2, err := task.Access(k.addr, true)
				if err != nil {
					panic(err)
				}
				return c + c2
			})
		case Libmpk:
			total += libmpkAcquire(pl.sched, p, lbmLock, lbm, task, k.vkey, hw.PermReadWrite)
			run(func() cycles.Cost {
				c, err := task.Access(k.addr, true)
				if err != nil {
					panic(err)
				}
				return c
			})
		case EPK:
			run(func() cycles.Cost { return esys.Switch(tid, k.edom) })
		}
	}
	closeKey := func(k *key) {
		switch cfg.System {
		case VDom, VDomLowerbound:
			run(func() cycles.Cost {
				c, err := mgr.WrVdr(task, k.vdom, core.VPermNone)
				if err != nil {
					panic(err)
				}
				return c
			})
		case Libmpk:
			run(func() cycles.Cost {
				c, err := lbm.PkeySet(nil, task, k.vkey, hw.PermNone)
				if err != nil {
					panic(err)
				}
				return c
			})
		case EPK:
			run(func() cycles.Cost { return cycles.Cost(epk.MPKSwitchCycles) })
		}
	}
	freeKey := func(k *key) {
		switch cfg.System {
		case VDom:
			run(func() cycles.Cost {
				c, err := mgr.FreeVdom(k.vdom)
				if err != nil {
					panic(err)
				}
				c2, err := task.Munmap(k.addr, k.bytes)
				if err != nil {
					panic(err)
				}
				return c + c2
			})
		case Libmpk:
			run(func() cycles.Cost {
				c, err := lbm.PkeyFree(task, k.vkey)
				if err != nil {
					panic(err)
				}
				c2, err := task.Munmap(k.addr, k.bytes)
				if err != nil {
					panic(err)
				}
				return c + c2
			})
		case EPK:
			edoms.release(k.edom)
		}
	}

	// Burst 1: accept + handshake prologue.
	run(func() cycles.Cost { return work(costs.handshakeUser, costs.kernBase/2) })

	// Certificate key: open across the RSA sign.
	certKeys := make([]*key, 0, cfg.KeysPerRequest-1)
	for i := 0; i < cfg.KeysPerRequest-1; i++ {
		certKeys = append(certKeys, newKey())
	}
	for _, k := range certKeys {
		open(k)
	}
	run(func() cycles.Cost { return work(costs.signUser, 0) })
	for _, k := range certKeys {
		closeKey(k)
		freeKey(k)
	}

	// Session key: opened around each response transfer.
	sess := newKey()
	for r := 0; r < transfers; r++ {
		open(sess)
		run(func() cycles.Cost { return work(userBytes, costs.kernBase/2+kernBytes) })
		closeKey(sess)
	}
	freeKey(sess)
	return total
}
