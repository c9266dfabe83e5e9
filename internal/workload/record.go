package workload

import (
	"fmt"

	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/epk"
	"vdom/internal/libmpk"
	"vdom/internal/replay"
)

// This file binds the paper workloads to the trace recorder: for each
// workload family it derives a replay.Header that describes exactly the
// platform the run boots (so replay.Run can reconstruct it), and exposes
// the golden-trace corpus the regression tests and `vdom-bench record`
// re-record.

// patternHeader describes a Table 4 cell's platform, and is the only
// description of it: RunPattern boots every cell from this header.
// Pattern cells are single-threaded and seedless; VDom, libmpk and DPTI
// cells run on the fixed 2-core measurement machine, EPK cells are a
// standalone cost model (Cores == 0 tells replay.Boot to skip the
// machine). libmpk ignores NoASID.
func patternHeader(cfg PatternConfig, name string) replay.Header {
	cfg.defaults()
	h := replay.Header{
		Arch:     replay.ArchName(cfg.Arch),
		Workload: name,
		ConfigDigest: replay.DigestString(fmt.Sprintf(
			"pattern|arch=%s|sys=%s|pat=%s|n=%d|rounds=%d|noasid=%v|strict=%v|nopmd=%v|flush=%d",
			replay.ArchName(cfg.Arch), cfg.System, cfg.Pattern, cfg.NumVdoms,
			cfg.Rounds, cfg.NoASID, cfg.StrictLRU, cfg.NoPMDOpt, cfg.FlushThresholdPages)),
	}
	switch cfg.System {
	case PatternEPK:
		h.Kernel = replay.KernelEPK
		h.Domains = cfg.NumVdoms
	case PatternLibmpk:
		h.Kernel = replay.KernelLibmpk
		h.Cores = 2
	case PatternDPTI:
		h.Kernel = replay.KernelDPTI
		h.Cores = 2
		if cfg.NoASID {
			h.Flags |= replay.HdrNoASID
		}
	default:
		h.Kernel = replay.KernelVDom
		h.Cores = 2
		pol := core.DefaultPolicy()
		h.Flags |= replay.HdrVDomKernel
		if cfg.System == PatternVDomSecure {
			h.Flags |= replay.HdrSecureGate
		}
		if cfg.NoASID {
			h.Flags |= replay.HdrNoASID
		}
		if cfg.StrictLRU {
			h.Flags |= replay.HdrStrictLRU
		}
		if cfg.NoPMDOpt {
			h.Flags |= replay.HdrNoPMDOpt
		}
		h.FlushThreshold = pol.RangeFlushThresholdPages
		if cfg.FlushThresholdPages != 0 {
			h.FlushThreshold = cfg.FlushThresholdPages
		}
		h.Nas = pol.DefaultNas
	}
	return h
}

// appHeader fills the fields every application workload (httpd, pmo,
// mysql) shares: the newPlatform machine geometry and, for VDom runs,
// the DefaultPolicy knobs.
func appHeader(sys System, arch cycles.Arch, cores int, seed uint64, name, digest string) replay.Header {
	h := replay.Header{
		Arch:         replay.ArchName(arch),
		Cores:        cores,
		Seed:         seed,
		Workload:     name,
		ConfigDigest: replay.DigestString(digest),
	}
	switch sys {
	case Libmpk:
		h.Kernel = replay.KernelLibmpk
	case EPK:
		h.Kernel = replay.KernelEPK
	default:
		h.Kernel = replay.KernelVDom
		pol := core.DefaultPolicy()
		h.Flags |= replay.HdrVDomKernel
		if pol.SecureGate {
			h.Flags |= replay.HdrSecureGate
		}
		h.FlushThreshold = pol.RangeFlushThresholdPages
		h.Nas = pol.DefaultNas
	}
	return h
}

// httpdHeader describes one httpd run's platform.
func httpdHeader(cfg HttpdConfig, name string) replay.Header {
	cfg.defaults()
	h := appHeader(cfg.System, cfg.Arch, cfg.Cores, cfg.Seed, name, fmt.Sprintf(
		"httpd|arch=%s|sys=%d|clients=%d|reqs=%d|file=%d|workers=%d|cores=%d|keys=%d|mode=%d|keepalive=%v|seed=%#x",
		replay.ArchName(cfg.Arch), cfg.System, cfg.Clients, cfg.RequestsPerClient,
		cfg.FileBytes, cfg.Workers, cfg.Cores, cfg.KeysPerRequest, cfg.LibmpkMode, cfg.KeepAlive, cfg.Seed))
	if cfg.System == EPK {
		h.Domains = epk.KeysPerEPT * 5
	}
	if cfg.System == Libmpk && cfg.LibmpkMode == libmpk.Huge2M {
		h.Flags |= replay.HdrHugePages
	}
	return h
}

// pmoHeader describes one String Replace run's platform.
func pmoHeader(cfg PMOConfig, name string) replay.Header {
	cfg.defaults()
	h := appHeader(cfg.System, cfg.Arch, cfg.Cores, cfg.Seed, name, fmt.Sprintf(
		"pmo|arch=%s|sys=%d|threads=%d|ops=%d|pmos=%d|mode=%d|lbmode=%d|cores=%d|seed=%#x",
		replay.ArchName(cfg.Arch), cfg.System, cfg.Threads, cfg.OpsPerThread,
		cfg.NumPMOs, cfg.Mode, cfg.LibmpkMode, cfg.Cores, cfg.Seed))
	if cfg.System == EPK {
		h.Domains = cfg.NumPMOs
	}
	if cfg.System == Libmpk && cfg.LibmpkMode == libmpk.Huge2M {
		h.Flags |= replay.HdrHugePages
	}
	return h
}

// mysqlHeader describes one MySQL run's platform.
func mysqlHeader(cfg MySQLConfig, name string) replay.Header {
	cfg.defaults()
	h := appHeader(cfg.System, cfg.Arch, cfg.Cores, cfg.Seed, name, fmt.Sprintf(
		"mysql|arch=%s|sys=%d|clients=%d|queries=%d|stmts=%d|churn=%d|cores=%d|seed=%#x",
		replay.ArchName(cfg.Arch), cfg.System, cfg.Clients, cfg.QueriesPerClient,
		cfg.StatementsPerQuery, cfg.ChurnEvery, cfg.Cores, cfg.Seed))
	if cfg.System == EPK {
		h.Domains = cfg.Clients + 1
	}
	return h
}

// TraceSpec is one golden-corpus entry: a name (the trace's file stem
// under testdata/traces/) and a recorder that re-runs the workload and
// returns the sealed trace.
type TraceSpec struct {
	Name   string
	Record func() *replay.Trace
}

// TraceCorpus returns the golden-trace corpus: one scaled-down recording
// per paper workload family and kernel kind. Every spec is deterministic
// — recording twice yields byte-identical traces — which is what the
// golden regression test and `vdom-bench record` rely on.
func TraceCorpus() []TraceSpec {
	pattern := func(name string, cfg PatternConfig) TraceSpec {
		return TraceSpec{Name: name, Record: func() *replay.Trace {
			rec := replay.NewRecorder(patternHeader(cfg, name))
			cfg.Record = rec
			RunPattern(cfg)
			return rec.Finish()
		}}
	}
	httpd := func(name string, cfg HttpdConfig) TraceSpec {
		return TraceSpec{Name: name, Record: func() *replay.Trace {
			rec := replay.NewRecorder(httpdHeader(cfg, name))
			cfg.Record = rec
			RunHttpd(cfg)
			return rec.Finish()
		}}
	}
	pmo := func(name string, cfg PMOConfig) TraceSpec {
		return TraceSpec{Name: name, Record: func() *replay.Trace {
			rec := replay.NewRecorder(pmoHeader(cfg, name))
			cfg.Record = rec
			RunPMO(cfg)
			return rec.Finish()
		}}
	}
	mysql := func(name string, cfg MySQLConfig) TraceSpec {
		return TraceSpec{Name: name, Record: func() *replay.Trace {
			rec := replay.NewRecorder(mysqlHeader(cfg, name))
			cfg.Record = rec
			RunMySQL(cfg)
			return rec.Finish()
		}}
	}
	return []TraceSpec{
		pattern("table4-vdom-x86", PatternConfig{
			Arch: cycles.X86, System: PatternVDomSecure, Pattern: SwitchTriggering,
			NumVdoms: 16, Rounds: 2,
		}),
		pattern("table4-vdom-arm", PatternConfig{
			Arch: cycles.ARM, System: PatternVDomSecure, Pattern: Sequential,
			NumVdoms: 8, Rounds: 2,
		}),
		pattern("table4-libmpk-x86", PatternConfig{
			Arch: cycles.X86, System: PatternLibmpk, Pattern: SwitchTriggering,
			NumVdoms: 8, Rounds: 2,
		}),
		pattern("table4-epk-x86", PatternConfig{
			Arch: cycles.X86, System: PatternEPK, Pattern: SwitchTriggering,
			NumVdoms: 32, Rounds: 2,
		}),
		pattern("table4-dpti-x86", PatternConfig{
			Arch: cycles.X86, System: PatternDPTI, Pattern: SwitchTriggering,
			NumVdoms: 8, Rounds: 2,
		}),
		pattern("table4-vdom-riscv", PatternConfig{
			Arch: cycles.RISCV, System: PatternVDomSecure, Pattern: Sequential,
			NumVdoms: 8, Rounds: 2,
		}),
		pattern("table4-dpti-riscv", PatternConfig{
			Arch: cycles.RISCV, System: PatternDPTI, Pattern: Sequential,
			NumVdoms: 8, Rounds: 2,
		}),
		httpd("httpd-vdom-x86", HttpdConfig{
			Arch: cycles.X86, System: VDom,
			Clients: 4, RequestsPerClient: 2, Workers: 4, Cores: 4,
		}),
		httpd("httpd-libmpk-x86", HttpdConfig{
			Arch: cycles.X86, System: Libmpk,
			Clients: 4, RequestsPerClient: 2, Workers: 4, Cores: 4,
		}),
		httpd("httpd-epk-x86", HttpdConfig{
			Arch: cycles.X86, System: EPK,
			Clients: 4, RequestsPerClient: 2, Workers: 4, Cores: 4,
		}),
		pmo("pmo-vdom-x86", PMOConfig{
			Arch: cycles.X86, System: VDom,
			Threads: 2, OpsPerThread: 40, NumPMOs: 8, Cores: 4,
		}),
		pmo("pmo-libmpk-x86", PMOConfig{
			Arch: cycles.X86, System: Libmpk,
			Threads: 2, OpsPerThread: 40, NumPMOs: 8, Cores: 4,
		}),
		mysql("mysql-vdom-x86", MySQLConfig{
			Arch: cycles.X86, System: VDom,
			Clients: 2, QueriesPerClient: 4, StatementsPerQuery: 6, Cores: 2,
		}),
	}
}
