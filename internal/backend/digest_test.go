package backend_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"vdom/internal/backend"
	"vdom/internal/chaos"
	"vdom/internal/cycles"
	"vdom/internal/snapshot"
)

// sectionDigests pins the SHA-256 of every vdom-snap/v2 section a known
// build wrote: each registered kernel's x86 conformance checkpoint
// (confSnapshot), keyed "kernel/section", plus every section of a
// mid-soak checkpoint (soakCheckpoint), chaos/injector included, keyed
// "soak/section". The round-trip test only compares a build against
// itself; these values catch a codec edit that changes the bytes in both
// directions.
var sectionDigests = map[string]string{
	"dpti/dpti":           "e1b2f1fe435e5b766195fad86cd77f3942d38805994d903345c87a8c56ff9abe",
	"dpti/hw/machine":     "b35afcf195b763c579e3cce524aaf6017d261e99c616b64f90cb00ef8a6c2b84",
	"dpti/kernel":         "20256aece7adaa1032016d0e8abc9b96de8e2b43a00b3b6ad10f723d17c3a89f",
	"dpti/mm/as":          "ca44299b0a6bf30ae4c1ed00cbd2be031817ebf1352ceda4e870344062de3fd4",
	"epk/epk":             "97a50957effa302653a15bd09b4723e2975492ed5b26ab79acb7cfb3c08f86f5",
	"libmpk/hw/machine":   "3aa6e680481e8fc092e4da40feb4d56e9c8d475c10fd1e19c703a5f414cccf80",
	"libmpk/kernel":       "8c617fd23def4019338f67761d7e0f69d6e12a4eedf735f05888e9ff81bc403f",
	"libmpk/libmpk":       "940d52faf1f8ba294129364785aa0844b3ef21e83ef17f9abd8d2d2d3d2d2824",
	"libmpk/mm/as":        "8b35d910d8ff7eb7ea35e1250043930e3e4ab2b7c68c5edeabe515e9d5be9c4a",
	"soak/chaos/injector": "9b1eea9656e41f5cf1b324d0daedee99934522e5f0a4347a2432a928f6cffba4",
	"soak/core/manager":   "a97ae09ced9d7bea3e032524719bac0f5b7e831c3ce44eb0e8711d2083732b82",
	"soak/hw/machine":     "db70f6cc0c6f74d6ff5b000f75bbcb07d4c5369fd93a5b1d882a0a300ec75837",
	"soak/kernel":         "4e55c94e2b2380033a42a9bf412d1f5a8d540acc336df4350c6888ce00467c3d",
	"soak/mm/as":          "c9ddd93f391bd58e73db12ad0f0fe39210ec4cae6f407f784a5ccf279630993d",
	"vdom/core/manager":   "e5db58b5c7745bce7d62d93433bcfcfce129454a8e94ad1ae56d5be076f4d610",
	"vdom/hw/machine":     "e80daa68b9b91be75a3fbae6b8a1403206271c19971046a40ef1c291c6a783b8",
	"vdom/kernel":         "901c909be1ef04933f0205eec53933ee1994f9ff8165f0fa422448816f2f6e36",
	"vdom/mm/as":          "6db028c1555ae44ebc3ec99234999c34ce53ad673d5bd6077cc2d57262ef543d",
}

// soakCheckpoint returns the mid-soak VDom checkpoint FuzzSnapshotRestore
// also seeds from.
func soakCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	s := chaos.StartSoak(chaos.SoakConfig{
		Chaos: chaos.Config{Seed: 3, DropIPI: 0.05, StaleTLB: 0.03, VDSAllocFail: 0.1, ASIDLimit: 24},
		Ops:   300, Record: true,
	})
	for i := 0; i < 150; i++ {
		s.Step()
	}
	snap, err := s.Checkpoint()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// TestSnapshotSectionDigests checks that every section's bytes match the
// pinned digests, so the vdom-snap/v2 layout stays fixed across builds.
// A failure prints each current value.
func TestSnapshotSectionDigests(t *testing.T) {
	got := map[string]string{}
	add := func(prefix string, snap []byte) {
		st, err := snapshot.Decode(snap)
		if err != nil {
			t.Fatalf("%s: decode: %v", prefix, err)
		}
		for _, sec := range st.Sections {
			sum := sha256.Sum256(sec.Data)
			got[prefix+"/"+sec.Name] = hex.EncodeToString(sum[:])
		}
	}
	for _, b := range backend.All() {
		add(b.Name(), confSnapshot(t, b, cycles.X86))
	}
	add("soak", soakCheckpoint(t))

	for k, want := range sectionDigests {
		if got[k] != want {
			t.Errorf("section %s: sha256 %s, pinned %s", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := sectionDigests[k]; !ok {
			t.Errorf("section %s has no pinned digest (sha256 %s)", k, got[k])
		}
	}
}
