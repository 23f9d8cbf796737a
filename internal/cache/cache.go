// Package cache models the set-associative cache hierarchy of the paper's
// test machine (Intel i9-9900K): per-core L1 instruction and data caches and
// a unified L2, plus a shared, inclusive last-level cache. The model tracks
// presence and LRU state at line granularity — exactly the state that the
// stateful side channels in the paper (Flush+Reload §5.1, LLC Prime+Probe
// §5.2) encode information into.
package cache

import (
	"fmt"

	"repro/internal/metrics"
)

// LineSize is the cache line size in bytes, shared by every level.
const LineSize = 64

// LineShift is log2(LineSize).
const LineShift = 6

// Level identifies where an access hit.
type Level uint8

// Hit levels, from fastest to slowest.
const (
	LevelL1 Level = iota
	LevelL2
	LevelLLC
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "MEM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// LineAddr returns the line-aligned address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// Config describes one cache structure.
type Config struct {
	Name string
	// Size is the capacity in bytes.
	Size int
	// Ways is the associativity.
	Ways int
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (c.Ways * LineSize) }

type way struct {
	valid bool
	tag   uint64
	lru   uint64
}

// Cache is a single set-associative, LRU cache structure. Set storage is
// carved lazily: a set's ways are allocated on its first fill, and a nil set
// simply misses on every lookup. An empty structure therefore costs one
// header allocation regardless of geometry — eagerly zeroing the 16K-set LLC
// per machine used to dominate construction time.
type Cache struct {
	cfg     Config
	sets    [][]way
	setMask uint64
	tick    uint64
	// arena is spare backing storage sets are carved from, in chunks, so a
	// warming cache does not allocate per set either.
	arena []way
	// chunks retains every arena slab ever allocated and chunkPos counts how
	// many of them are in use, so Reset can rewind carving to the start of
	// the retained storage instead of leaking it: a reset cache re-warms to
	// its previous footprint without touching the heap allocator.
	chunks   [][]way
	chunkPos int
	// carved lists the set indices whose ways have been carved, so Reset
	// only visits touched sets (the LLC has 16K sets; a typical run carves a
	// few hundred).
	carved []int
	// onEvict, when non-nil, is called with the line address of every line
	// evicted by capacity (not by explicit invalidation). The inclusive LLC
	// uses it to back-invalidate private caches.
	onEvict func(lineAddr uint64)
}

// setChunk is how many sets' worth of ways one arena growth provisions.
const setChunk = 32

// New returns an empty cache with the given configuration. It reports an
// error if the set count is not a positive power of two (hardware indexing
// requires it).
func New(cfg Config) (*Cache, error) {
	n := cfg.Sets()
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("cache %s: set count %d not a positive power of two", cfg.Name, n)
	}
	return &Cache{cfg: cfg, sets: make([][]way, n), setMask: uint64(n - 1)}, nil
}

// carve provisions the ways of set si on its first fill.
func (c *Cache) carve(si int) []way {
	if len(c.arena) < c.cfg.Ways {
		if c.chunkPos < len(c.chunks) {
			// Re-use a slab retained across Reset.
			c.arena = c.chunks[c.chunkPos]
		} else {
			slab := make([]way, setChunk*c.cfg.Ways)
			c.chunks = append(c.chunks, slab)
			c.arena = slab
		}
		c.chunkPos++
	}
	s := c.arena[:c.cfg.Ways:c.cfg.Ways]
	c.arena = c.arena[c.cfg.Ways:]
	c.sets[si] = s
	c.carved = append(c.carved, si)
	return s
}

// Reset returns the cache to its freshly constructed emptiness — every set
// back to the lazily-carved nil representation, LRU tick rewound — while
// retaining the arena slabs, so a reset cache is byte-equivalent to a new
// one but re-warms allocation-free. Machine pooling (package kern) calls
// this between forks.
func (c *Cache) Reset() {
	for _, si := range c.carved {
		c.sets[si] = nil
	}
	c.carved = c.carved[:0]
	for _, slab := range c.chunks[:c.chunkPos] {
		for i := range slab {
			slab[i] = way{}
		}
	}
	c.arena = nil
	c.chunkPos = 0
	c.tick = 0
}

// MustNew is New for statically known-good configurations; it panics on
// error (use only with compile-time-constant geometries).
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetIndex returns the set that addr maps to.
func (c *Cache) SetIndex(addr uint64) int {
	return int((addr >> LineShift) & c.setMask)
}

func (c *Cache) tagOf(addr uint64) uint64 {
	return addr >> LineShift
}

// Contains reports whether the line holding addr is present, without
// touching LRU state.
func (c *Cache) Contains(addr uint64) bool {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

// Touch looks up addr; on hit it refreshes LRU state and returns true. It
// never fills.
func (c *Cache) Touch(addr uint64) bool {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.tick++
			set[i].lru = c.tick
			return true
		}
	}
	return false
}

// Insert fills the line holding addr, evicting the LRU way if the set is
// full. The evicted line (if any) is reported to the eviction hook.
func (c *Cache) Insert(addr uint64) {
	si := c.SetIndex(addr)
	set := c.sets[si]
	if set == nil {
		set = c.carve(si)
	}
	tag := c.tagOf(addr)
	c.tick++
	// Already present: refresh.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.tick
			return
		}
	}
	// Free way.
	for i := range set {
		if !set[i].valid {
			set[i] = way{valid: true, tag: tag, lru: c.tick}
			return
		}
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	evicted := set[victim].tag << LineShift
	set[victim] = way{valid: true, tag: tag, lru: c.tick}
	if c.onEvict != nil {
		c.onEvict(evicted)
	}
}

// Invalidate removes the line holding addr if present, reporting whether it
// was. The eviction hook is not called (this is an explicit invalidation).
func (c *Cache) Invalidate(addr uint64) bool {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].valid = false
			return true
		}
	}
	return false
}

// InvalidateAll empties the cache.
func (c *Cache) InvalidateAll() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

// OccupancyOfSet returns how many valid ways set si holds (for tests and
// eviction-set verification).
func (c *Cache) OccupancyOfSet(si int) int {
	n := 0
	for _, w := range c.sets[si] {
		if w.valid {
			n++
		}
	}
	return n
}

// LinesInSet returns the line addresses currently valid in set si.
func (c *Cache) LinesInSet(si int) []uint64 {
	var out []uint64
	for _, w := range c.sets[si] {
		if w.valid {
			out = append(out, w.tag<<LineShift)
		}
	}
	return out
}

// Latencies holds load-to-use latencies in CPU cycles per hit level.
type Latencies struct {
	L1Hit  int64
	L2Hit  int64
	LLCHit int64
	Mem    int64
}

// DefaultLatencies approximates the i9-9900K (cycles).
var DefaultLatencies = Latencies{
	L1Hit:  4,
	L2Hit:  14,
	LLCHit: 42,
	Mem:    220,
}

// Of returns the latency for a hit at level l.
func (lat Latencies) Of(l Level) int64 {
	switch l {
	case LevelL1:
		return lat.L1Hit
	case LevelL2:
		return lat.L2Hit
	case LevelLLC:
		return lat.LLCHit
	default:
		return lat.Mem
	}
}

// SystemConfig describes a whole cache system.
type SystemConfig struct {
	Cores int
	L1I   Config
	L1D   Config
	L2    Config
	LLC   Config
	Lat   Latencies
}

// I9900K returns the geometry of the paper's test machine with the given
// number of cores. (The attack only needs relative geometry; the LLC here is
// 16-way as on Coffee Lake, sized 16 MB.)
func I9900K(cores int) SystemConfig {
	return SystemConfig{
		Cores: cores,
		L1I:   Config{Name: "L1I", Size: 32 << 10, Ways: 8},
		L1D:   Config{Name: "L1D", Size: 32 << 10, Ways: 8},
		L2:    Config{Name: "L2", Size: 256 << 10, Ways: 4},
		LLC:   Config{Name: "LLC", Size: 16 << 20, Ways: 16},
		Lat:   DefaultLatencies,
	}
}

type corePriv struct {
	l1i *Cache
	l1d *Cache
	l2  *Cache
}

// recentFillsCap bounds the ring of recently filled LLC lines kept for the
// ambient-noise model.
const recentFillsCap = 512

// System is the full multi-core cache hierarchy: private L1I/L1D/L2 per core
// and one shared inclusive LLC. All simulation accesses flow through it.
type System struct {
	cfg   SystemConfig
	cores []corePriv
	llc   *Cache
	// recentFills is a ring of line addresses recently filled into the
	// LLC; the ambient channel-noise model evicts from it (in a real,
	// saturated LLC, external pressure constantly evicts — the victim's
	// and attacker's fresh fills are the observable casualties).
	recentFills [recentFillsCap]uint64
	fillPos     int
	fillCount   int

	// tel holds the hierarchy's metric handles; nil handles (the default)
	// make every increment a no-op.
	tel struct {
		access       [4]*metrics.Counter // indexed by hit Level
		llcEvictions *metrics.Counter
		flushes      *metrics.Counter
		disturbs     *metrics.Counter
	}
}

// accessNames are the per-level access counter names, built once: a
// machine instruments its hierarchy at every construction and pool fork.
var accessNames = func() []string {
	levels := make([]string, len(System{}.tel.access))
	for lvl := range levels {
		levels[lvl] = Level(lvl).String()
	}
	return metrics.FamilyNames("cache_access_total", "level", levels...)
}()

// InstrumentMetrics wires the hierarchy into a telemetry registry: accesses
// by hit level, LLC capacity evictions (inclusive back-invalidations),
// coherence-wide flushes and noise-model disturb evictions. Counting is
// write-only — instrumentation cannot change any access outcome.
func (s *System) InstrumentMetrics(r *metrics.Registry) {
	r.CounterFamily(s.tel.access[:], accessNames)
	s.tel.llcEvictions = r.Counter("cache_llc_capacity_evictions_total")
	s.tel.flushes = r.Counter("cache_flush_total")
	s.tel.disturbs = r.Counter("cache_disturb_evictions_total")
}

// NewSystem builds the hierarchy described by cfg, reporting an error for
// invalid geometry (non-power-of-two set count at any level).
func NewSystem(cfg SystemConfig) (*System, error) {
	llc, err := New(cfg.LLC)
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, llc: llc}
	s.cores = make([]corePriv, cfg.Cores)
	for i := range s.cores {
		l1i, err := New(cfg.L1I)
		if err != nil {
			return nil, err
		}
		l1d, err := New(cfg.L1D)
		if err != nil {
			return nil, err
		}
		l2, err := New(cfg.L2)
		if err != nil {
			return nil, err
		}
		s.cores[i] = corePriv{l1i: l1i, l1d: l1d, l2: l2}
	}
	// Inclusive LLC: a capacity eviction from the LLC removes the line from
	// every private cache. This is the effect LLC Prime+Probe relies on to
	// evict victim code/data (§5.2).
	s.llc.onEvict = func(line uint64) {
		s.tel.llcEvictions.Inc()
		for i := range s.cores {
			s.cores[i].l1i.Invalidate(line)
			s.cores[i].l1d.Invalidate(line)
			s.cores[i].l2.Invalidate(line)
		}
	}
	return s, nil
}

// MustNewSystem is NewSystem for statically known-good configurations; it
// panics on error.
func MustNewSystem(cfg SystemConfig) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset empties every structure in the hierarchy back to its freshly
// constructed state (nil sets, rewound LRU ticks, cleared fill ring) while
// retaining all backing storage, and detaches the metric handles — a fresh
// system starts uninstrumented; the next owner re-instruments against its
// own registry. The eviction hook wiring is preserved.
func (s *System) Reset() {
	s.llc.Reset()
	for i := range s.cores {
		s.cores[i].l1i.Reset()
		s.cores[i].l1d.Reset()
		s.cores[i].l2.Reset()
	}
	s.fillPos = 0
	s.fillCount = 0
	s.tel.access = [4]*metrics.Counter{}
	s.tel.llcEvictions = nil
	s.tel.flushes = nil
	s.tel.disturbs = nil
}

// Config returns the system configuration.
func (s *System) Config() SystemConfig { return s.cfg }

// LLC exposes the shared cache (for eviction-set verification in tests).
func (s *System) LLC() *Cache { return s.llc }

// LLCSetIndex returns the LLC set addr maps to.
func (s *System) LLCSetIndex(addr uint64) int { return s.llc.SetIndex(addr) }

// access performs a data-side access on core, returning the hit level after
// filling all levels on the way down.
func (s *System) access(core int, addr uint64, l1 *Cache) Level {
	p := &s.cores[core]
	switch {
	case l1.Touch(addr):
		s.tel.access[LevelL1].Inc()
		return LevelL1
	case p.l2.Touch(addr):
		s.tel.access[LevelL2].Inc()
		l1.Insert(addr)
		return LevelL2
	case s.llc.Touch(addr):
		s.tel.access[LevelLLC].Inc()
		p.l2.Insert(addr)
		l1.Insert(addr)
		return LevelLLC
	default:
		s.tel.access[LevelMem].Inc()
		s.llc.Insert(addr)
		p.l2.Insert(addr)
		l1.Insert(addr)
		s.recentFills[s.fillPos] = LineAddr(addr)
		s.fillPos = (s.fillPos + 1) % recentFillsCap
		if s.fillCount < recentFillsCap {
			s.fillCount++
		}
		return LevelMem
	}
}

// Load performs a data load on core and returns its latency in cycles and
// the level it was served from.
func (s *System) Load(core int, addr uint64) (int64, Level) {
	lvl := s.access(core, addr, s.cores[core].l1d)
	return s.cfg.Lat.Of(lvl), lvl
}

// Store performs a data store on core (modelled as a load for presence/LRU
// purposes; write-back traffic is not modelled).
func (s *System) Store(core int, addr uint64) (int64, Level) {
	return s.Load(core, addr)
}

// Fetch performs an instruction fetch of the line containing pc on core.
func (s *System) Fetch(core int, pc uint64) (int64, Level) {
	lvl := s.access(core, pc, s.cores[core].l1i)
	return s.cfg.Lat.Of(lvl), lvl
}

// Prefetch brings the line containing addr into the core's L1I without
// charging latency (used by the BTB-driven instruction prefetcher, §5.3).
func (s *System) Prefetch(core int, addr uint64) {
	s.access(core, addr, s.cores[core].l1i)
}

// PrefetchData brings the line containing addr into the core's L1D without
// charging latency (used by the speculative-execution smear model, §5.1).
func (s *System) PrefetchData(core int, addr uint64) {
	s.access(core, addr, s.cores[core].l1d)
}

// Flush removes the line containing addr from every level on every core
// (clflush semantics: coherence-wide).
func (s *System) Flush(addr uint64) {
	s.tel.flushes.Inc()
	s.llc.Invalidate(addr)
	for i := range s.cores {
		s.cores[i].l1i.Invalidate(addr)
		s.cores[i].l1d.Invalidate(addr)
		s.cores[i].l2.Invalidate(addr)
	}
}

// Present returns the fastest level at which core would hit addr on the data
// path, or LevelMem if absent everywhere.
func (s *System) Present(core int, addr uint64) Level {
	p := &s.cores[core]
	switch {
	case p.l1d.Contains(addr):
		return LevelL1
	case p.l2.Contains(addr):
		return LevelL2
	case s.llc.Contains(addr):
		return LevelLLC
	default:
		return LevelMem
	}
}

// DisturbRandomLine evicts one randomly chosen valid line from LLC set si
// (coherence-wide, like a capacity eviction reaching an inclusive victim).
// It models ambient cross-core traffic without simulating the traffic
// itself; pick reports whether anything was evicted. The caller supplies
// the randomness (setIdx and wayPick) so determinism stays seed-driven.
func (s *System) DisturbRandomLine(setIdx int, wayPick int) bool {
	lines := s.llc.LinesInSet(setIdx % s.llc.Config().Sets())
	if len(lines) == 0 {
		return false
	}
	s.tel.disturbs.Inc()
	s.Flush(lines[wayPick%len(lines)])
	return true
}

// DisturbRecentFill evicts a randomly chosen recently filled LLC line (the
// ambient-noise model: in a saturated LLC, external pressure evicts fresh
// fills first from the simulation's point of view). pick supplies the
// randomness; it reports whether a line was actually evicted.
func (s *System) DisturbRecentFill(pick int) bool {
	if s.fillCount == 0 {
		return false
	}
	line := s.recentFills[pick%s.fillCount]
	if !s.llc.Contains(line) {
		return false
	}
	s.tel.disturbs.Inc()
	s.Flush(line)
	return true
}

// HitThreshold returns a latency (cycles) separating "cached somewhere" from
// "served from memory": probes at or below the threshold are hits. This is
// the calibration constant a real attacker derives by timing loads.
func (s *System) HitThreshold() int64 {
	return (s.cfg.Lat.LLCHit + s.cfg.Lat.Mem) / 2
}
