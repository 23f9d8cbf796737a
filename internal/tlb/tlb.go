// Package tlb models the translation lookaside buffers of the paper's test
// machine: a per-core L1 instruction TLB and a unified L2 (s)TLB. The paper
// combines Controlled Preemption with a performance-degradation technique
// that evicts the victim instruction page's translation from both TLBs
// (§4.3, using eviction sets built with the technique of Gras et al.), which
// stretches the victim's first post-preemption instruction and turns most
// preemptions into single steps (Figure 4.3b).
package tlb

import (
	"fmt"

	"repro/internal/metrics"
)

// PageSize is the (4 KiB) page size used for translations.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// VPN returns the virtual page number of addr.
func VPN(addr uint64) uint64 { return addr >> PageShift }

// PageAddr returns the page-aligned address containing addr.
func PageAddr(addr uint64) uint64 { return addr &^ uint64(PageSize-1) }

// Config describes one TLB structure.
type Config struct {
	Name    string
	Entries int
	Ways    int
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// entry packs the page number with vpnValid, so 0 is an invalid entry. As in
// cache.Cache, an invalid entry has lru 0 and a valid one a stamp >= 1: a
// set's first strict minimum of lru is its first free entry, else its LRU.
type entry struct {
	vpn uint64
	lru uint64
}

const vpnValid = 1 << 63 // page numbers (addr >> PageShift) never reach bit 63

// TLB is a set-associative, LRU translation buffer indexed by the low bits
// of the virtual page number (the linear indexing Gras et al. reverse
// engineered for the L1 iTLB; it is what makes eviction sets constructible).
// Like cache.Cache, set storage is carved lazily on first fill — a nil set
// misses — so machines with many idle cores pay nothing for their TLBs.
type TLB struct {
	cfg     Config
	sets    [][]entry
	setMask uint64
	tick    uint64
	// arena is spare backing storage sets are carved from, in chunks.
	arena []entry
	// chunks retains every arena slab and chunkPos counts the slabs in use,
	// so Reset rewinds carving over retained storage (see cache.Cache).
	chunks   [][]entry
	chunkPos int
	// carved lists carved set indices so Reset only visits touched sets.
	carved []int
}

// setChunk is how many sets' worth of entries one arena growth provisions.
const setChunk = 16

// New returns an empty TLB. It reports an error if the set count is not a
// positive power of two.
func New(cfg Config) (*TLB, error) {
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("tlb %s: set count %d not a positive power of two", cfg.Name, n)
	}
	return &TLB{cfg: cfg, sets: make([][]entry, n), setMask: uint64(n - 1)}, nil
}

// carve provisions the entries of set si on its first fill.
func (t *TLB) carve(si int) []entry {
	if len(t.arena) < t.cfg.Ways {
		if t.chunkPos == len(t.chunks) {
			t.chunks = append(t.chunks, make([]entry, setChunk*t.cfg.Ways))
		}
		t.arena = t.chunks[t.chunkPos]
		t.chunkPos++
	}
	s := t.arena[:t.cfg.Ways:t.cfg.Ways]
	t.arena = t.arena[t.cfg.Ways:]
	t.sets[si] = s
	t.carved = append(t.carved, si)
	return s
}

// Reset returns the TLB to its freshly constructed emptiness (nil sets,
// rewound LRU tick) while retaining arena slabs for allocation-free
// re-warming. Unlike Flush it is not a simulated event: no counters move.
func (t *TLB) Reset() {
	for _, si := range t.carved {
		t.sets[si] = nil
	}
	t.carved = t.carved[:0]
	for _, slab := range t.chunks[:t.chunkPos] {
		clear(slab)
	}
	t.arena = nil
	t.chunkPos = 0
	t.tick = 0
}

// MustNew is New for statically known-good configurations; it panics on
// error (use only with compile-time-constant geometries).
func MustNew(cfg Config) *TLB {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the TLB's configuration.
func (t *TLB) Config() Config { return t.cfg }

// SetIndex returns the set a virtual page number maps to.
func (t *TLB) SetIndex(vpn uint64) int { return int(vpn & t.setMask) }

// Contains reports whether vpn is cached, without touching LRU state.
func (t *TLB) Contains(vpn uint64) bool {
	key := vpn | vpnValid
	for _, e := range t.sets[t.SetIndex(vpn)] {
		if e.vpn == key {
			return true
		}
	}
	return false
}

// Touch looks up vpn; on hit it refreshes LRU and returns true.
func (t *TLB) Touch(vpn uint64) bool {
	set := t.sets[t.SetIndex(vpn)]
	key := vpn | vpnValid
	for i := range set {
		if set[i].vpn == key {
			t.tick++
			set[i].lru = t.tick
			return true
		}
	}
	return false
}

// Insert fills vpn, evicting the LRU entry of its set if needed.
func (t *TLB) Insert(vpn uint64) { t.fill(vpn) }

// fill is Insert reporting whether vpn was present. A hit refreshes it as
// Touch does, so a Touch and, on a miss, an Insert are one call. One scan
// finds vpn or the entry to fill (see entry).
func (t *TLB) fill(vpn uint64) bool {
	si := t.SetIndex(vpn)
	set := t.sets[si]
	if set == nil {
		set = t.carve(si)
	}
	key := vpn | vpnValid
	t.tick++
	victim, oldest := 0, set[0].lru
	for i, e := range set {
		if e.vpn == key {
			set[i].lru = t.tick
			return true
		}
		if e.lru < oldest {
			victim = i
		}
		oldest = min(oldest, e.lru)
	}
	set[victim] = entry{vpn: key, lru: t.tick}
	return false
}

// Invalidate drops vpn if present, reporting whether it was.
func (t *TLB) Invalidate(vpn uint64) bool {
	set := t.sets[t.SetIndex(vpn)]
	key := vpn | vpnValid
	for i := range set {
		if set[i].vpn == key {
			set[i] = entry{}
			return true
		}
	}
	return false
}

// Flush empties the TLB (CR3 write without PCID, or SGX AEX for enclave
// pages). Only carved sets can hold entries.
func (t *TLB) Flush() {
	for _, si := range t.carved {
		clear(t.sets[si])
	}
}

// Latencies holds translation costs in CPU cycles.
type Latencies struct {
	// L1Hit is an L1 (i/d)TLB hit: effectively free, folded into the
	// pipeline.
	L1Hit int64
	// L2Hit is an sTLB hit after an L1 miss.
	L2Hit int64
	// Walk is a full page-table walk after missing both levels.
	Walk int64
}

// DefaultLatencies approximates the i9-9900K (cycles). Walks are expensive
// because walker loads typically miss the polluted cache hierarchy right
// after a context switch.
var DefaultLatencies = Latencies{L1Hit: 0, L2Hit: 9, Walk: 1400}

// CoreTLBs bundles the per-core translation state on the instruction side
// plus the shared second level, as exercised by this reproduction.
type CoreTLBs struct {
	ITLB *TLB
	STLB *TLB
	DTLB *TLB
	Lat  Latencies

	// tel holds translation metric handles; nil handles (the default) make
	// every increment a no-op.
	tel struct {
		itlbHits *metrics.Counter
		dtlbHits *metrics.Counter
		stlbHits *metrics.Counter
		walks    *metrics.Counter
		flushes  *metrics.Counter
	}
}

// The TLBs' metric names, interned once: every core instruments its TLBs
// at each machine construction and pool fork.
var (
	hitNames    = metrics.FamilyNames("tlb_hits_total", "level", "itlb", "dtlb", "stlb")
	nameWalks   = metrics.Intern("tlb_walks_total")
	nameFlushes = metrics.Intern("tlb_flush_total")
)

// InstrumentMetrics wires translation telemetry into a registry: first- and
// second-level hits, full page-table walks, and whole-TLB flushes. Every
// core shares the same metric names, so the counters aggregate machine-wide.
func (c *CoreTLBs) InstrumentMetrics(r *metrics.Registry) {
	var fam [3]*metrics.Counter
	r.CounterFamily(fam[:], hitNames)
	c.tel.itlbHits, c.tel.dtlbHits, c.tel.stlbHits = fam[0], fam[1], fam[2]
	c.tel.walks = r.CounterOf(nameWalks)
	c.tel.flushes = r.CounterOf(nameFlushes)
}

// ShareMetrics gives c the handles peer's InstrumentMetrics resolved: the
// same wiring as instrumenting c into peer's registry, without a lookup.
func (c *CoreTLBs) ShareMetrics(peer *CoreTLBs) { c.tel = peer.tel }

// I9900KTLBs returns TLB geometry approximating the test machine: 8-way
// 128-entry L1 iTLB, 4-way 64-entry L1 dTLB, 12-way 1536-entry unified sTLB.
func I9900KTLBs() *CoreTLBs {
	return &CoreTLBs{
		ITLB: MustNew(Config{Name: "iTLB", Entries: 128, Ways: 8}),
		DTLB: MustNew(Config{Name: "dTLB", Entries: 64, Ways: 4}),
		STLB: MustNew(Config{Name: "sTLB", Entries: 1536, Ways: 12}),
		Lat:  DefaultLatencies,
	}
}

// TranslateFetch charges the instruction-side translation of pc and returns
// its latency in cycles, filling TLBs on the way.
func (c *CoreTLBs) TranslateFetch(pc uint64) int64 {
	return c.translate(c.ITLB, c.tel.itlbHits, VPN(pc))
}

// TranslateData charges the data-side translation of addr and returns its
// latency in cycles.
func (c *CoreTLBs) TranslateData(addr uint64) int64 {
	return c.translate(c.DTLB, c.tel.dtlbHits, VPN(addr))
}

// translate looks vpn up in the first-level TLB l1, then in the sTLB, and
// fills each level that misses. No level's fill touches another level, so
// each is looked up and filled in one scan (fill) rather than a Touch and,
// once the miss is served, an Insert.
func (c *CoreTLBs) translate(l1 *TLB, l1Hits *metrics.Counter, vpn uint64) int64 {
	switch {
	case l1.fill(vpn):
		l1Hits.Inc()
		return c.Lat.L1Hit
	case c.STLB.fill(vpn):
		c.tel.stlbHits.Inc()
		return c.Lat.L2Hit
	default:
		c.tel.walks.Inc()
		return c.Lat.Walk
	}
}

// Reset empties every level back to construction state and detaches the
// metric handles (a fresh bundle starts uninstrumented). Not a simulated
// flush: no counters move, and backing storage is retained.
func (c *CoreTLBs) Reset() {
	c.ITLB.Reset()
	c.DTLB.Reset()
	c.STLB.Reset()
	c.tel.itlbHits = nil
	c.tel.dtlbHits = nil
	c.tel.stlbHits = nil
	c.tel.walks = nil
	c.tel.flushes = nil
}

// FlushAll empties every level (SGX asynchronous enclave exit).
func (c *CoreTLBs) FlushAll() {
	c.tel.flushes.Inc()
	c.ITLB.Flush()
	c.DTLB.Flush()
	c.STLB.Flush()
}

// EvictionPagesFor returns n page addresses, distinct from target's page,
// whose VPNs are congruent to target in the given TLB — the addresses an
// attacker touches to evict target's translation (Gras et al.). Pages are
// laid out in an attacker-controlled arena starting at arenaBase.
func EvictionPagesFor(t *TLB, target uint64, arenaBase uint64, n int) []uint64 {
	want := t.SetIndex(VPN(target))
	stride := uint64(t.cfg.Sets()) * PageSize
	// Round the arena start up to a multiple of the stride (the set count
	// is a power of two), so page want past it indexes the target's set,
	// and so does every stride after that.
	base := arenaBase &^ (stride - 1)
	if base < arenaBase {
		base += stride
	}
	first := base + uint64(want)*PageSize
	out := make([]uint64, 0, n)
	for p := first; len(out) < n; p += stride {
		if VPN(p) != VPN(target) {
			out = append(out, p)
		}
	}
	return out
}
