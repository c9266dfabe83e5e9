package replay_test

// Conformance sweep for the typed error sentinels: every failure a layer
// reports must stay errors.Is-matchable against its sentinel through all
// the fmt.Errorf wrapping between the fault site and the caller, and
// CodeOf must keep classifying the wrapped chains stably — golden traces
// compare codes, so a reclassification here is a regression.

import (
	"errors"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/hw"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/mm"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/scenario"
	"vdom/internal/sim"
	"vdom/internal/snapshot"
	"vdom/internal/tap"
	"vdom/internal/tlb"
	"vdom/internal/wire"
)

const cpg = pagetable.PageSize

// bootConformance boots a 1-core system of the given kernel kind via the
// same path the replayer and the snapshot restorer use.
func bootConformance(t *testing.T, kind string) *replay.System {
	t.Helper()
	h := replay.Header{
		Version: replay.FormatVersion, Kernel: kind, Arch: "x86",
		Cores: 1, TLBCap: 256, Workload: "conformance",
	}
	h.SetPolicy(core.DefaultPolicy())
	if kind == replay.KernelVDom {
		h.Flags |= replay.HdrVDomKernel
	}
	sys, err := replay.Boot(h)
	if err != nil {
		t.Fatalf("boot %s: %v", kind, err)
	}
	return sys
}

// failingChaos makes every VDS allocation fail transiently.
type failingChaos struct{}

func (failingChaos) InjectVDSAllocFailure() bool   { return true }
func (failingChaos) InjectPdomExhaustion() bool    { return false }
func (failingChaos) NoteDegradedFallback(s string) {}

// TestSentinelConformance triggers each typed failure through the public
// API of its layer and checks the returned error chain: sentinel
// matchable with errors.Is, and CodeOf classification stable.
func TestSentinelConformance(t *testing.T) {
	filterErr := errors.New("conformance: filter policy")
	cases := []struct {
		name string
		run  func(t *testing.T) error
		want []error
		code tap.Code
	}{
		{
			name: "mm/bad-range-unaligned-mmap",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := sys.Proc.NewTask(0).Mmap(0x1001, cpg, true)
				return err
			},
			want: []error{mm.ErrBadRange},
			code: tap.CodeBadRange,
		},
		{
			name: "mm/bad-range-empty-tag",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := sys.Proc.AS().SetTag(0x1000, 0, mm.Tag(1))
				return err
			},
			want: []error{mm.ErrBadRange},
			code: tap.CodeBadRange,
		},
		{
			name: "mm/no-mapping-mprotect",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := sys.Proc.NewTask(0).Mprotect(0x9990_0000, 4*cpg, false)
				return err
			},
			want: []error{mm.ErrNoMapping},
			code: tap.CodeNoMapping,
		},
		{
			name: "kernel/sigsegv-keeps-mm-cause",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := sys.Proc.NewTask(0).Access(0xdead_0000, false)
				return err
			},
			// The kernel's SIGSEGV wrapper must not hide the mm-layer
			// cause of the fault.
			want: []error{kernel.ErrSigsegv, mm.ErrSegfault},
			code: tap.CodeSigsegv,
		},
		{
			name: "kernel/blocked-keeps-filter-cause",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				sys.Kernel.RegisterSyscallFilter(func(*kernel.Task, kernel.Syscall, kernel.SyscallArgs) error {
					return filterErr
				})
				_, err := sys.Proc.NewTask(0).Mmap(0x1000, cpg, true)
				return err
			},
			want: []error{kernel.ErrBlocked, filterErr},
			code: tap.CodeBlocked,
		},
		{
			name: "core/no-vdr",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := sys.Manager.WrVdr(sys.Proc.NewTask(0), 1, core.VPermReadWrite)
				return err
			},
			want: []error{core.ErrNoVDR},
			code: tap.CodeNoVDR,
		},
		{
			name: "core/freed-vdom",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				tk := sys.Proc.NewTask(0)
				if _, err := tk.Mmap(0x1000, 4*cpg, true); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Manager.VdrAlloc(tk, 2); err != nil {
					t.Fatal(err)
				}
				_, err := sys.Manager.Mprotect(tk, 0x1000, 4*cpg, core.VdomID(77))
				return err
			},
			want: []error{core.ErrFreedVdom},
			code: tap.CodeFreedVdom,
		},
		{
			name: "core/no-resources",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				tk := sys.Proc.NewTask(0)
				if _, err := sys.Manager.VdrAlloc(tk, 2); err != nil {
					t.Fatal(err)
				}
				sys.Manager.SetChaos(failingChaos{})
				_, err := sys.Manager.PlaceInNewVDS(tk)
				return err
			},
			want: []error{core.ErrNoResources},
			code: tap.CodeNoResources,
		},
		{
			name: "core/degraded-keeps-transient-cause",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				sys.Manager.SetChaos(failingChaos{})
				// No VDSes exist yet, so vdr_alloc needs one; the injected
				// failure survives the retry and degrades the call.
				_, err := sys.Manager.VdrAlloc(sys.Proc.NewTask(0), 2)
				return err
			},
			want: []error{core.ErrDegraded, core.ErrNoResources},
			code: tap.CodeDegraded,
		},
		{
			name: "core/exhausted-asid-space",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				tk := sys.Proc.NewTask(0)
				if _, err := sys.Manager.VdrAlloc(tk, 2); err != nil {
					t.Fatal(err)
				}
				// Every ASID is now held by a live holder: the next VDS
				// allocation fails terminally even after a rollover.
				sys.Kernel.SetASIDLimit(tlb.ASID(sys.Kernel.LiveASIDCount()))
				_, err := sys.Manager.PlaceInNewVDS(tk)
				return err
			},
			want: []error{core.ErrExhausted},
			code: tap.CodeExhausted,
		},
		{
			name: "libmpk/no-free-key",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelLibmpk)
				tk := sys.Proc.NewTask(0)
				// Hold every usable hardware key accessible, so there is
				// no victim to evict and (without a sim proc) no waiting.
				for i := 0; i < libmpk.UsableKeys; i++ {
					addr := pagetable.VAddr(0x10_0000 + uint64(i)*0x1_0000)
					if _, err := tk.Mmap(addr, cpg, true); err != nil {
						t.Fatal(err)
					}
					v, _ := sys.Libmpk.PkeyAlloc()
					if _, err := sys.Libmpk.PkeyMprotect(nil, tk, addr, cpg, v); err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Libmpk.PkeySet(nil, tk, v, hw.PermReadWrite); err != nil {
						t.Fatal(err)
					}
				}
				v, _ := sys.Libmpk.PkeyAlloc()
				_, err := sys.Libmpk.PkeySet(nil, tk, v, hw.PermReadWrite)
				return err
			},
			want: []error{libmpk.ErrNoFreeKey},
			code: tap.CodeNoFreeKey,
		},
		{
			name: "libmpk/unknown-key",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelLibmpk)
				_, err := sys.Libmpk.PkeyFree(sys.Proc.NewTask(0), libmpk.Vkey(9999))
				return err
			},
			want: []error{libmpk.ErrUnknownKey},
			code: tap.CodeUnknownKey,
		},
		{
			name: "backend/domain-capacity",
			run: func(t *testing.T) error {
				// EPK's monotonic group allocator is the one backend with a
				// fixed domain capacity; exhausting it must surface the
				// registry-level sentinel through the DomainOps adapter.
				h := replay.Header{
					Version: replay.FormatVersion, Kernel: replay.KernelEPK,
					Arch: "x86", Cores: 1, Workload: "conformance", Domains: 1,
				}
				sys, err := replay.Boot(h)
				if err != nil {
					t.Fatal(err)
				}
				b, ok := backend.Get(replay.KernelEPK)
				if !ok {
					t.Fatal("epk backend not registered")
				}
				ops := b.Ops(sys)
				tk := sys.Proc.NewTask(0)
				if _, _, err := ops.Alloc(tk); err != nil {
					t.Fatal(err)
				}
				_, _, aerr := ops.Alloc(tk)
				return aerr
			},
			want: []error{backend.ErrDomainCapacity},
			code: tap.CodeDomainCapacity,
		},
		{
			name: "scenario/bad-magic",
			run: func(t *testing.T) error {
				_, err := scenario.Decode([]byte(`{"format":"vdom-trace/v1"}`))
				return err
			},
			want: []error{scenario.ErrBadMagic},
			code: tap.CodeOther,
		},
		{
			name: "scenario/bad-version",
			run: func(t *testing.T) error {
				_, err := scenario.Decode([]byte(`{"format":"vdom-scenario/v2"}`))
				return err
			},
			want: []error{scenario.ErrBadVersion},
			code: tap.CodeOther,
		},
		{
			name: "scenario/truncated",
			run: func(t *testing.T) error {
				_, err := scenario.Decode([]byte(`{"format":"vdom-scenario/v1","name":"tr`))
				return err
			},
			want: []error{scenario.ErrTruncated},
			code: tap.CodeOther,
		},
		{
			name: "scenario/bad-record",
			run: func(t *testing.T) error {
				_, err := scenario.Decode([]byte(`{"format":"vdom-scenario/v1","name":"x","phases":[]}`))
				return err
			},
			want: []error{scenario.ErrBadRecord},
			code: tap.CodeOther,
		},
		{
			name: "snapshot/truncated-section",
			run: func(t *testing.T) error {
				// A section that truncates mid-payload while its CRC still
				// verifies (the CRC covers the truncated payload) is
				// Restore's to reject — naming the section and offset,
				// and wrapping the wire error underneath.
				sys := bootConformance(t, replay.KernelVDom)
				h := replay.Header{Version: replay.FormatVersion, Kernel: replay.KernelVDom, Arch: "x86", Cores: 1}
				st, err := snapshot.Capture(sys, h, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				for i := range st.Sections {
					if st.Sections[i].Name == "kernel" {
						d := st.Sections[i].Data
						st.Sections[i].Data = d[:len(d)-1]
					}
				}
				cut, err := snapshot.Decode(snapshot.Encode(st))
				if err != nil {
					t.Fatalf("truncated container must still pass CRC: %v", err)
				}
				_, _, rerr := snapshot.Restore(cut)
				return rerr
			},
			want: []error{snapshot.ErrBadRecord, wire.ErrTruncated},
			code: tap.CodeOther,
		},
		{
			name: "replay/bad-record-tail-start",
			run: func(t *testing.T) error {
				sys := bootConformance(t, replay.KernelVDom)
				_, err := replay.RunTail(&replay.Trace{}, sys, nil, 0, 5, replay.Options{})
				return err
			},
			want: []error{replay.ErrBadRecord},
			code: tap.CodeOther,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run(t)
			if err == nil {
				t.Fatal("operation unexpectedly succeeded")
			}
			for _, sentinel := range tc.want {
				if !errors.Is(err, sentinel) {
					t.Errorf("errors.Is(%v, %v) = false", err, sentinel)
				}
			}
			if got := tap.CodeOf(err); got != tc.code {
				t.Errorf("CodeOf(%v) = %v, want %v", err, got, tc.code)
			}
		})
	}
}

// TestSentinelConformanceDeadlock checks the simulator's deadlock panic
// stays errors.Is-matchable against sim.ErrDeadlock.
func TestSentinelConformanceDeadlock(t *testing.T) {
	env := sim.NewEnv()
	sig := env.NewSignal()
	env.Go("stuck", func(p *sim.Proc) { sig.Wait(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlocked Run did not panic")
		}
		err, ok := r.(error)
		if !ok {
			t.Fatalf("deadlock panic value %v is not an error", r)
		}
		if !errors.Is(err, sim.ErrDeadlock) {
			t.Errorf("errors.Is(%v, sim.ErrDeadlock) = false", err)
		}
	}()
	env.Run()
}
