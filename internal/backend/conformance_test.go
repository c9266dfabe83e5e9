package backend_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/core"
	"vdom/internal/cycles"
	"vdom/internal/dpti"
	"vdom/internal/kernel"
	"vdom/internal/libmpk"
	"vdom/internal/pagetable"
	"vdom/internal/replay"
	"vdom/internal/snapshot"
	"vdom/internal/wire"
)

// The backend-conformance suite: every registered kernel backend, on
// every cost architecture, must survive the full battery — a recorded
// run replays bit-identically, a mid-run snapshot round-trips to the
// same bytes, the cross-layer audit is clean after the drive, and the
// backend's failure sentinels match with errors.Is and carry a typed
// replay fault code. A newly registered backend gets all of this with
// no test changes.

// confArches is the architecture axis: every cost table, including the
// projected POWER and sealable-PKS RISC-V parameters.
var confArches = []cycles.Arch{cycles.X86, cycles.ARM, cycles.Power, cycles.RISCV}

const (
	confDomains     = 4
	confRegionPages = 4
	confRounds      = 3
)

// confRegion is the base address of domain d's private region.
func confRegion(d int) pagetable.VAddr {
	return pagetable.VAddr(0x4000_0000 + uint64(d)*0x10_0000)
}

// confSpec is the boot configuration the suite drives each backend
// with. EPK runs in its standalone cost-model form (Cores 0), the form
// its recorded corpus uses; everything else rides a 2-core substrate.
func confSpec(name string, arch cycles.Arch) backend.Spec {
	spec := backend.Spec{Arch: arch, Cores: 2, FlushThreshold: 64, Nas: 4}
	switch name {
	case "vdom":
		spec.VDomKernel = true
		spec.SecureGate = true
	case "epk":
		spec.Cores = 0
		spec.Domains = 32
	}
	return spec
}

// confHeader forges the trace header describing a confSpec boot, the
// same translation replay.SpecFromHeader inverts.
func confHeader(name string, spec backend.Spec) replay.Header {
	h := replay.Header{
		Version:        replay.FormatVersion,
		Kernel:         name,
		Arch:           replay.ArchName(spec.Arch),
		Cores:          spec.Cores,
		TLBCap:         spec.TLBCap,
		Workload:       "backend-conformance",
		FlushThreshold: spec.FlushThreshold,
		Nas:            spec.Nas,
		Domains:        spec.Domains,
	}
	if spec.VDomKernel {
		h.Flags |= replay.HdrVDomKernel
	}
	if spec.SecureGate {
		h.Flags |= replay.HdrSecureGate
	}
	if spec.NoASID {
		h.Flags |= replay.HdrNoASID
	}
	return h
}

// confBoot boots a backend exactly the way replay would: through the
// registry, from the forged header.
func confBoot(tb testing.TB, name string, spec backend.Spec) *replay.System {
	tb.Helper()
	sys, err := replay.Boot(confHeader(name, spec))
	if err != nil {
		tb.Fatalf("boot %s: %v", name, err)
	}
	return sys
}

// confDrive runs the deterministic conformance workload through the
// backend's DomainOps adapter: per-thread setup, domain allocation,
// region assignment, activate/access/deactivate rounds across two
// threads, and a free/realloc churn step. Standalone backends (no
// process) run the same schedule with nil tasks and no memory traffic.
func confDrive(tb testing.TB, sys *replay.System, b backend.Backend, rec *replay.Recorder) {
	tb.Helper()
	ops := b.Ops(sys)
	fatal := func(step string, err error) {
		if err != nil {
			tb.Fatalf("%s conformance drive: %s: %v", b.Name(), step, err)
		}
	}

	var tasks []*kernel.Task
	if sys.Proc != nil {
		for i := 0; i < 2; i++ {
			tk := sys.Proc.NewTask(i)
			if rec != nil {
				rec.Spawn(tk)
			}
			tasks = append(tasks, tk)
		}
		for d := 0; d < confDomains; d++ {
			_, err := tasks[0].Mmap(confRegion(d), confRegionPages*pagetable.PageSize, true)
			fatal("mmap", err)
		}
		for _, tk := range tasks {
			_, err := ops.PrepareThread(tk, confDomains)
			fatal("prepare-thread", err)
		}
	}
	var task0 *kernel.Task
	if len(tasks) > 0 {
		task0 = tasks[0]
	}

	ids := make([]uint64, confDomains)
	for d := range ids {
		id, _, err := ops.Alloc(task0)
		fatal("alloc", err)
		ids[d] = id
		_, err = ops.Protect(task0, confRegion(d), confRegionPages*pagetable.PageSize, id)
		fatal("protect", err)
	}

	for round := 0; round < confRounds; round++ {
		for d, id := range ids {
			tk := task0
			if len(tasks) > 0 {
				tk = tasks[(round+d)%len(tasks)]
			}
			_, err := ops.Activate(tk, id)
			fatal("activate", err)
			if tk != nil {
				addr := confRegion(d) + pagetable.VAddr(uint64(round%confRegionPages)*pagetable.PageSize)
				_, err := tk.Access(addr, round%2 == 1)
				fatal("access", err)
			}
			_, err = ops.Deactivate(tk, id)
			fatal("deactivate", err)
		}
	}

	// Churn: release a domain and reallocate into the hole.
	_, err := ops.Free(task0, ids[0])
	fatal("free", err)
	id, _, err := ops.Alloc(task0)
	fatal("realloc", err)
	_, err = ops.Protect(task0, confRegion(0), confRegionPages*pagetable.PageSize, id)
	fatal("reprotect", err)
}

// confRecord boots, taps, and drives one backend, returning the sealed
// trace.
func confRecord(tb testing.TB, b backend.Backend, spec backend.Spec) *replay.Trace {
	tb.Helper()
	sys := confBoot(tb, b.Name(), spec)
	rec := replay.NewRecorder(confHeader(b.Name(), spec))
	rec.AttachSystem(sys)
	confDrive(tb, sys, b, rec)
	return rec.Finish()
}

// TestConformanceRecordReplay checks record→replay bit-identity for
// every backend on every arch: the replayed run must reproduce every
// event, cost, and end-state counter, and recording twice must yield
// byte-identical traces.
func TestConformanceRecordReplay(t *testing.T) {
	for _, b := range backend.All() {
		for _, arch := range confArches {
			t.Run(fmt.Sprintf("%s/%s", b.Name(), replay.ArchName(arch)), func(t *testing.T) {
				spec := confSpec(b.Name(), arch)
				tr := confRecord(t, b, spec)
				if len(tr.Events) == 0 {
					t.Fatal("conformance drive recorded no events")
				}
				res, err := replay.Run(tr, replay.Options{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if res.Divergence != nil {
					t.Fatalf("replay diverged: %v", res.Divergence)
				}
				again := confRecord(t, b, spec)
				if !bytes.Equal(replay.Encode(tr), replay.Encode(again)) {
					t.Fatal("recording the same drive twice produced different traces")
				}
			})
		}
	}
}

// TestConformanceSnapshotRoundTrip checks the checkpoint surface: after
// the drive, Capture → Encode → Decode → Restore → Capture must
// reproduce the snapshot byte-for-byte through the backend's own
// section codec.
func TestConformanceSnapshotRoundTrip(t *testing.T) {
	for _, b := range backend.All() {
		for _, arch := range confArches {
			t.Run(fmt.Sprintf("%s/%s", b.Name(), replay.ArchName(arch)), func(t *testing.T) {
				spec := confSpec(b.Name(), arch)
				hdr := confHeader(b.Name(), spec)
				sys := confBoot(t, b.Name(), spec)
				confDrive(t, sys, b, nil)

				st, err := snapshot.Capture(sys, hdr, 0, 0)
				if err != nil {
					t.Fatalf("capture: %v", err)
				}
				first := snapshot.Encode(st)
				decoded, err := snapshot.Decode(first)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				restored, _, err := snapshot.Restore(decoded)
				if err != nil {
					t.Fatalf("restore: %v", err)
				}
				st2, err := snapshot.Capture(restored, hdr, 0, 0)
				if err != nil {
					t.Fatalf("recapture: %v", err)
				}
				if !bytes.Equal(first, snapshot.Encode(st2)) {
					t.Fatal("snapshot changed across a restore round-trip")
				}
			})
		}
	}
}

// confSnapshot boots and drives one backend and returns its encoded
// checkpoint.
func confSnapshot(tb testing.TB, b backend.Backend, arch cycles.Arch) []byte {
	tb.Helper()
	spec := confSpec(b.Name(), arch)
	sys := confBoot(tb, b.Name(), spec)
	confDrive(tb, sys, b, nil)
	st, err := snapshot.Capture(sys, confHeader(b.Name(), spec), 0, 0)
	if err != nil {
		tb.Fatalf("capture: %v", err)
	}
	return snapshot.Encode(st)
}

// TestConformanceSnapshotTruncation checks the restore-error contract on
// every section of every backend's checkpoint: cut to any proper prefix
// (the CRC recomputed over the cut payload), a section must fail
// Restore with an ErrBadRecord that wraps a wire error and names the
// section and its container offset — never a panic.
func TestConformanceSnapshotTruncation(t *testing.T) {
	for _, b := range backend.All() {
		t.Run(b.Name(), func(t *testing.T) {
			snap := confSnapshot(t, b, cycles.X86)
			st, err := snapshot.Decode(snap)
			if err != nil {
				t.Fatal(err)
			}
			for i, sec := range st.Sections {
				for n := 0; n < len(sec.Data); n++ {
					st.Sections[i].Data = sec.Data[:n]
					cut, err := snapshot.Decode(snapshot.Encode(st))
					if err != nil {
						t.Fatalf("%s prefix %d: cut container must still decode, got %v", sec.Name, n, err)
					}
					_, _, rerr := snapshot.Restore(cut)
					want := fmt.Sprintf("section %q at offset %d", sec.Name, cut.Sections[i].Offset)
					if rerr == nil || !errors.Is(rerr, snapshot.ErrBadRecord) ||
						!errors.Is(rerr, wire.ErrTruncated) && !errors.Is(rerr, wire.ErrBadRecord) ||
						!strings.Contains(rerr.Error(), want) {
						t.Fatalf("%s prefix %d/%d: got %v, want ErrBadRecord over a wire error naming %s",
							sec.Name, n, len(sec.Data), rerr, want)
					}
				}
				st.Sections[i].Data = sec.Data
			}
		})
	}
}

// FuzzSnapshotRestore replaces one section payload of a real checkpoint
// — a mid-soak VDom checkpoint and one conformance-drive checkpoint per
// registered kernel — with arbitrary bytes, recomputes the CRC, and
// requires Restore (and the crash harness's injector decode) to return
// an error or a System, never to panic.
func FuzzSnapshotRestore(f *testing.F) {
	s := chaos.StartSoak(chaos.SoakConfig{
		Chaos: chaos.Config{Seed: 3, DropIPI: 0.05, StaleTLB: 0.03, VDSAllocFail: 0.1, ASIDLimit: 24},
		Ops:   300, Record: true,
	})
	for i := 0; i < 150; i++ {
		s.Step()
	}
	soakSnap, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{soakSnap}
	for _, b := range backend.All() {
		seeds = append(seeds, confSnapshot(f, b, cycles.X86))
	}
	for i, snap := range seeds {
		st, err := snapshot.Decode(snap)
		if err != nil {
			f.Fatal(err)
		}
		for j, sec := range st.Sections {
			f.Add(uint8(i), uint8(j), sec.Data)
		}
	}
	f.Fuzz(func(t *testing.T, seed, section uint8, payload []byte) {
		st, err := snapshot.Decode(seeds[int(seed)%len(seeds)])
		if err != nil {
			t.Fatal(err)
		}
		st.Sections[int(section)%len(st.Sections)].Data = payload
		mutated, err := snapshot.Decode(snapshot.Encode(st))
		if err != nil {
			t.Fatalf("re-encoded container must decode: %v", err)
		}
		if sys, _, err := snapshot.Restore(mutated); err == nil && sys == nil {
			t.Fatal("nil System with nil error")
		}
		var in chaos.InjectorSnap
		_ = mutated.ReadSection(chaos.InjectorSection, in.Read)
	})
}

// TestConformanceAuditClean checks cross-layer coherence: after the
// drive, every TLB entry under a live ASID must agree with the page
// table that ASID tags, for every backend that boots a machine.
func TestConformanceAuditClean(t *testing.T) {
	for _, b := range backend.All() {
		for _, arch := range confArches {
			t.Run(fmt.Sprintf("%s/%s", b.Name(), replay.ArchName(arch)), func(t *testing.T) {
				spec := confSpec(b.Name(), arch)
				sys := confBoot(t, b.Name(), spec)
				confDrive(t, sys, b, nil)
				if sys.Machine == nil {
					t.Skip("standalone cost model: no machine to audit")
				}

				if v := chaos.Audit(sys); len(v) != 0 {
					t.Fatalf("audit found %d violations, first: %v", len(v), v[0])
				}
			})
		}
	}
}

// TestConformanceSentinels checks failure-path conformance: each
// backend's characteristic failure must match its exported sentinel via
// errors.Is and map to a typed, non-OK replay fault code, so replayed
// failure traces stay comparable across kernels.
func TestConformanceSentinels(t *testing.T) {
	for _, b := range backend.All() {
		t.Run(b.Name(), func(t *testing.T) {
			spec := confSpec(b.Name(), cycles.X86)
			sys := confBoot(t, b.Name(), spec)
			ops := b.Ops(sys)
			var task0 *kernel.Task
			if sys.Proc != nil {
				task0 = sys.Proc.NewTask(0)
				if _, err := ops.PrepareThread(task0, confDomains); err != nil {
					t.Fatalf("prepare-thread: %v", err)
				}
			}

			var err error
			var sentinel error
			switch b.Name() {
			case "vdom":
				_, err = ops.Free(task0, 9999)
				sentinel = core.ErrFreedVdom
			case "libmpk":
				_, err = ops.Free(task0, 9999)
				sentinel = libmpk.ErrUnknownKey
			case "dpti":
				_, err = ops.Activate(task0, 9999)
				sentinel = dpti.ErrUnknownDomain
			case "epk":
				for i := 0; err == nil && i <= spec.Domains; i++ {
					_, _, err = ops.Alloc(task0)
				}
				sentinel = backend.ErrDomainCapacity
			default:
				t.Fatalf("backend %q has no sentinel case — add one to the conformance suite", b.Name())
			}
			if err == nil {
				t.Fatalf("%s failure path returned nil error", b.Name())
			}
			if !errors.Is(err, sentinel) {
				t.Fatalf("error %v does not match sentinel %v", err, sentinel)
			}
			if code := replay.CodeOf(err); code == replay.CodeOK {
				t.Fatalf("sentinel %v maps to CodeOK — replayed failure traces cannot classify it", sentinel)
			}
		})
	}
}
