package tlb

import (
	"bytes"
	"math/rand"
	"testing"

	"vdom/internal/pagetable"
	"vdom/internal/wire"
)

// refKey keys the reference model's index.
type refKey struct {
	asid ASID
	vpn  uint64
}

// refCache is the reference model FuzzTLBOps checks both organizations
// against: the map-indexed semantics, kept as simple as possible. Slots
// are stored set-major with one clock hand per set, and a map finds a
// resident (ASID, VPN). A fully-associative TLB of capacity c behaves as
// the one-set model with c ways.
type refCache struct {
	slots      []slot
	sets, ways int
	hands      []int
	index      map[refKey]int
	stats      Stats
	fullyAssoc bool
}

func newRef(sets, ways int, fullyAssoc bool) *refCache {
	return &refCache{
		slots:      make([]slot, sets*ways),
		sets:       sets,
		ways:       ways,
		hands:      make([]int, sets),
		index:      map[refKey]int{},
		fullyAssoc: fullyAssoc,
	}
}

func (m *refCache) Lookup(asid ASID, vpn uint64) (Entry, bool) {
	if i, ok := m.index[refKey{asid, vpn}]; ok {
		m.slots[i].referenced = true
		m.stats.Hits++
		return m.slots[i].entry, true
	}
	m.stats.Misses++
	return Entry{}, false
}

func (m *refCache) Insert(e Entry) {
	m.stats.Inserts++
	k := refKey{e.ASID, e.VPN}
	if i, ok := m.index[k]; ok {
		m.slots[i].entry = e
		m.slots[i].referenced = true
		return
	}
	s := int(e.VPN) & (m.sets - 1)
	var i int
	for {
		i = s*m.ways + m.hands[s]
		m.hands[s] = (m.hands[s] + 1) % m.ways
		if !m.slots[i].valid || !m.slots[i].referenced {
			break
		}
		m.slots[i].referenced = false
	}
	if old := m.slots[i]; old.valid {
		delete(m.index, refKey{old.entry.ASID, old.entry.VPN})
	}
	m.slots[i] = slot{entry: e, valid: true, referenced: true}
	m.index[k] = i
}

func (m *refCache) drop(k refKey) {
	if i, ok := m.index[k]; ok {
		m.slots[i] = slot{}
		delete(m.index, k)
		m.stats.Invalidated++
	}
}

func (m *refCache) FlushPage(asid ASID, vpn uint64) {
	m.stats.PageFlushes++
	m.drop(refKey{asid, vpn})
}

func (m *refCache) FlushRange(asid ASID, startVPN, pages uint64) {
	m.stats.RangeFlushes++
	for vpn := startVPN; vpn < startVPN+pages; vpn++ {
		m.drop(refKey{asid, vpn})
	}
}

func (m *refCache) FlushASID(asid ASID) {
	m.stats.ASIDFlushes++
	for k := range m.index {
		if k.asid == asid {
			m.drop(k)
		}
	}
}

func (m *refCache) FlushAll() {
	m.stats.FullFlushes++
	m.stats.Invalidated += uint64(len(m.index))
	clear(m.slots)
	clear(m.hands)
	clear(m.index)
}

func (m *refCache) each() []Entry {
	var out []Entry
	for _, s := range m.slots {
		if s.valid {
			out = append(out, s.entry)
		}
	}
	return out
}

// appendState encodes the model in the organization's snapshot format.
func (m *refCache) appendState(b []byte) []byte {
	if m.fullyAssoc {
		n := len(m.slots)
		for n > 0 && m.slots[n-1] == (slot{}) {
			n--
		}
		b = wire.AppendUvarint(b, uint64(len(m.slots)))
		b = wire.AppendUvarint(b, uint64(m.hands[0]))
		b = wire.AppendUvarint(b, uint64(n))
		for _, s := range m.slots[:n] {
			b = appendSlot(b, s)
		}
		return appendStats(b, m.stats)
	}
	b = wire.AppendUvarint(b, uint64(m.sets))
	b = wire.AppendUvarint(b, uint64(m.ways))
	for _, h := range m.hands {
		b = wire.AppendUvarint(b, uint64(h))
	}
	for _, s := range m.slots {
		b = appendSlot(b, s)
	}
	return appendStats(b, m.stats)
}

// eachOf lists a cache's entries in Each order.
func eachOf(c Cache) []Entry {
	var out []Entry
	c.Each(func(e Entry) { out = append(out, e) })
	return out
}

// countEach counts asid's entries through Each, independently of the
// cache's own CountASID bookkeeping.
func countEach(c Cache, asid ASID) int {
	n := 0
	c.Each(func(e Entry) {
		if e.ASID == asid {
			n++
		}
	})
	return n
}

// fuzzASID spreads tape bytes over a few busy ASIDs and, rarely, ASIDs up
// to 300, which grow the per-ASID arrays.
func fuzzASID(b byte) ASID {
	if b >= 248 {
		return ASID(b) + 45
	}
	return ASID(b % 6)
}

// fuzzVPN maps most tape bytes to a small page range, so keys collide,
// and the rest to far-apart pages that exercise the hash's high bits.
func fuzzVPN(b byte) uint64 {
	if b >= 240 {
		return uint64(b) << 44
	}
	return uint64(b % 48)
}

// FuzzTLBOps drives both TLB organizations and the reference model with
// the same operation tape and requires identical observable state after
// every operation: lookup results, stats, Len, Each order, per-ASID
// counts and the snapshot image. The first two tape bytes choose the
// organization and a geometry of 1 to 64 entries (the parity of the
// first picks the organization); then each operation takes three bytes
// (opcode, ASID, VPN).
func FuzzTLBOps(f *testing.F) {
	f.Add([]byte{0, 3, 0, 1, 1, 0, 1, 2, 2, 1, 1, 5, 1, 0, 7, 1, 1, 255, 2})
	f.Add([]byte{1, 6, 9, 0, 0, 0, 0, 4, 8, 0, 8, 5, 2, 0, 4, 0, 0, 15, 0, 0})
	f.Add([]byte{0, 63, 0, 255, 250, 0, 255, 251, 5, 255, 0, 7, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for _, geom := range [][2]byte{{0, 63}, {0, 7}, {15, 3}, {41, 0}} {
		tape := append([]byte{}, geom[:]...)
		for range 600 {
			tape = append(tape, byte(rng.Intn(256)))
		}
		f.Add(tape)
	}
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) < 2 {
			return
		}
		var newCache func() Cache
		var m *refCache
		if tape[0]%2 == 0 {
			capacity := 1 + int(tape[1])%64
			newCache = func() Cache { return New(capacity) }
			m = newRef(1, capacity, true)
		} else {
			sets := 1 << (tape[1] % 5)
			ways := 1 + int(tape[0]/2)%(64/sets)
			newCache = func() Cache { return NewSetAssoc(sets, ways) }
			m = newRef(sets, ways, false)
		}
		c := newCache()
		for step := 0; len(tape) >= 5; step++ {
			op, asid, vpn := tape[2], fuzzASID(tape[3]), fuzzVPN(tape[4])
			tape = tape[3:]
			kind := op % 8
			// Keep whole-ASID and full flushes rare enough that the
			// caches fill up, and evictions and probe collisions happen.
			if kind == 5 && op>>3 >= 8 || kind == 6 && op>>3 >= 2 {
				kind = 0
			}
			switch kind {
			case 0, 1:
				e := Entry{ASID: asid, VPN: vpn, Frame: pagetable.Frame(op), Pdom: pagetable.Pdom(op % 16), Writable: op&8 != 0}
				c.Insert(e)
				m.Insert(e)
			case 2:
				got, gotOK := c.Lookup(asid, vpn)
				want, wantOK := m.Lookup(asid, vpn)
				if got != want || gotOK != wantOK {
					t.Fatalf("step %d: Lookup(%d, %#x) = %+v, %v; model %+v, %v", step, asid, vpn, got, gotOK, want, wantOK)
				}
			case 3:
				c.FlushPage(asid, vpn)
				m.FlushPage(asid, vpn)
			case 4:
				c.FlushRange(asid, vpn, uint64(op>>3))
				m.FlushRange(asid, vpn, uint64(op>>3))
			case 5:
				c.FlushASID(asid)
				m.FlushASID(asid)
			case 6:
				c.FlushAll()
				m.FlushAll()
			case 7:
				img := c.AppendState(nil)
				if op&8 != 0 {
					c = newCache()
				}
				r := wire.NewReader(img)
				c.ReadState(r)
				if err := r.Done(); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
			}
			if got, want := c.Stats(), m.stats; got != want {
				t.Fatalf("step %d (op %d): stats %+v, model %+v", step, kind, got, want)
			}
			if got, want := c.Len(), len(m.index); got != want {
				t.Fatalf("step %d (op %d): Len %d, model %d", step, kind, got, want)
			}
			got, want := eachOf(c), m.each()
			if len(got) != len(want) {
				t.Fatalf("step %d (op %d): Each %v, model %v", step, kind, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d (op %d): Each %v, model %v", step, kind, got, want)
				}
			}
			each := map[ASID]int{asid: 0}
			for _, e := range got {
				each[e.ASID]++
			}
			for a, n := range each {
				if c.CountASID(a) != n {
					t.Fatalf("step %d (op %d): CountASID(%d) = %d, Each counts %d", step, kind, a, c.CountASID(a), n)
				}
			}
			if got, want := c.AppendState(nil), m.appendState(nil); !bytes.Equal(got, want) {
				t.Fatalf("step %d (op %d): AppendState\n%x\nmodel\n%x", step, kind, got, want)
			}
		}
	})
}
