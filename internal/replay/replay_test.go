package replay

import (
	"errors"
	"fmt"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/core"
	"vdom/internal/kernel"
	"vdom/internal/tap"
)

// testHeader describes a small system of the given kernel kind: two x86
// cores, except EPK, which is its machine-less cost model.
func testHeader(kind string) Header {
	h := Header{Version: FormatVersion, Kernel: kind, Arch: "x86", Cores: 2}
	switch kind {
	case KernelVDom:
		h.Flags |= HdrVDomKernel
		h.SetPolicy(core.DefaultPolicy())
	case KernelEPK:
		h.Cores, h.Domains = 0, 4
	}
	return h
}

// TestReplayRejectsMalformed feeds the replayer records it cannot execute
// at all. Each must come back from both Run and RunTail as an error
// wrapping ErrBadRecord, never as a panic or a divergence.
func TestReplayRejectsMalformed(t *testing.T) {
	spawn := Event{TID: 1, Op: tap.OpSpawn}
	// foreign is an op of another kernel's layer, per kernel kind.
	foreign := map[string]tap.Op{
		KernelVDom:   tap.OpPkeySet,
		KernelLibmpk: tap.OpVdrWrite,
		KernelEPK:    tap.OpVdomAlloc,
		KernelDPTI:   tap.OpEpkSwitch,
	}
	type tc struct {
		name   string
		kind   string
		events []Event
	}
	var cases []tc
	for _, kind := range backend.Names() {
		op, ok := foreign[kind]
		if !ok {
			t.Fatalf("no foreign op listed for kernel kind %q", kind)
		}
		cases = append(cases, tc{fmt.Sprintf("%s on %s", op, kind), kind, []Event{{Op: op}}})
	}
	cases = append(cases,
		tc{"wrvdr with tid 0", KernelVDom, []Event{spawn, {Op: tap.OpVdrWrite, Dom: 1, Perm: 3}}},
		tc{"dpti-enter with tid 0", KernelDPTI, []Event{spawn, {Op: tap.OpDptiEnter, Dom: 1}}},
		tc{"wrvdr with an unknown tid", KernelVDom, []Event{spawn, {TID: 7, Op: tap.OpVdrWrite, Dom: 1}}},
		tc{"pkey-set with an unknown tid", KernelLibmpk, []Event{spawn, {TID: 7, Op: tap.OpPkeySet, Dom: 1}}},
		tc{"dpti-free with an unknown tid", KernelDPTI, []Event{spawn, {TID: 7, Op: tap.OpDptiFree, Dom: 1}}},
		tc{"epk-switch with an unknown tid", KernelEPK, []Event{{TID: 3, Op: tap.OpEpkSwitch, Dom: 1}}},
		tc{"access with an unknown tid", KernelVDom, []Event{spawn, {TID: 7, Op: tap.OpAccess, Addr: 0x1000}}},
		tc{"mmap with tid 0", KernelLibmpk, []Event{{Op: tap.OpMmap, Addr: 0x1000, Len: 4096}}},
		tc{"spawn on machine-less epk", KernelEPK, []Event{spawn}},
		tc{"spawn on a core the machine lacks", KernelVDom, []Event{{TID: 1, Op: tap.OpSpawn, Len: 99}}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &Trace{Header: testHeader(c.kind), Events: c.events}
			if _, err := Run(tr, Options{}); !errors.Is(err, ErrBadRecord) {
				t.Errorf("Run: got %v, want ErrBadRecord", err)
			}
			sys, err := Boot(tr.Header)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunTail(tr, sys, map[uint64]*kernel.Task{}, 0, 0, Options{}); !errors.Is(err, ErrBadRecord) {
				t.Errorf("RunTail: got %v, want ErrBadRecord", err)
			}
		})
	}
}

// TestReplayOpOwners checks the op vocabulary is partitioned: every op
// 1..27 (the vdom-trace/v1 numbering) is replayed by exactly one owner —
// the substrate or one registered backend — and every op has its own
// non-empty JSONL name.
func TestReplayOpOwners(t *testing.T) {
	if tap.OpSpawn != 1 || tap.OpDptiExit != 27 || (tap.OpDptiExit + 1).Valid() || tap.OpInvalid.Valid() {
		t.Fatal("the op numbering no longer matches vdom-trace/v1 (spawn=1 … dpti-exit=27)")
	}
	systems := map[string]*System{}
	for _, kind := range backend.Names() {
		h := testHeader(kind)
		h.Cores = 2 // every backend here rides the substrate
		sys, err := Boot(h)
		if err != nil {
			t.Fatalf("boot %s: %v", kind, err)
		}
		systems[kind] = sys
	}
	bare := systems[KernelVDom]
	names := map[string]tap.Op{}
	for op := tap.OpSpawn; op.Valid(); op++ {
		name := op.String()
		if name == "" || name == "invalid" {
			t.Errorf("op %d has no name", op)
		}
		if prev, dup := names[name]; dup {
			t.Errorf("ops %d and %d share the name %q", prev, op, name)
		}
		names[name] = op

		var owners []string
		substrate := &engine{sys: bare, tasks: map[uint64]*kernel.Task{}}
		if _, err := substrate.step(Event{Op: op}); !errors.Is(err, errNoDomainLayer) {
			owners = append(owners, "substrate")
		}
		for _, kind := range backend.Names() {
			b, _ := backend.Get(kind)
			if ok, _ := b.Replay(systems[kind], &tap.Event{Op: op}, nil); ok {
				owners = append(owners, kind)
			}
		}
		if len(owners) != 1 {
			t.Errorf("op %s is replayed by %v, want exactly one owner", op, owners)
		}
	}
}
