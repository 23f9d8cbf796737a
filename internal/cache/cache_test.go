package cache

import (
	"slices"
	"testing"
	"testing/quick"
)

func small() Config { return Config{Name: "t", Size: 4 << 10, Ways: 4} } // 16 sets

func TestConfigSets(t *testing.T) {
	if got := small().Sets(); got != 16 {
		t.Fatalf("sets = %d, want 16", got)
	}
	if got := I9900K(16).LLC.Sets(); got != 16384 {
		t.Fatalf("LLC sets = %d, want 16384", got)
	}
}

func TestNewRejectsNonPowerOfTwoSets(t *testing.T) {
	if _, err := New(Config{Name: "bad", Size: 3 * 64, Ways: 1}); err == nil {
		t.Fatal("want error for non-power-of-two set count")
	}
	if _, err := NewSystem(SystemConfig{Cores: 1, L1I: Config{Name: "bad", Size: 3 * 64, Ways: 1}, L1D: small(), L2: small(), LLC: small()}); err == nil {
		t.Fatal("want error from NewSystem with bad L1I geometry")
	}
}

func TestInsertTouchInvalidate(t *testing.T) {
	c := MustNew(small())
	addr := uint64(0x1000)
	if c.Contains(addr) {
		t.Fatal("empty cache contains line")
	}
	if c.Touch(addr) {
		t.Fatal("touch must not fill")
	}
	c.Insert(addr)
	if !c.Contains(addr) || !c.Touch(addr) {
		t.Fatal("inserted line missing")
	}
	// Same line, different offset.
	if !c.Contains(addr + 63) {
		t.Fatal("offset within line missing")
	}
	if !c.Invalidate(addr) {
		t.Fatal("invalidate missed")
	}
	if c.Contains(addr) {
		t.Fatal("line survived invalidate")
	}
	if c.Invalidate(addr) {
		t.Fatal("double invalidate reported true")
	}
}

func TestLRUEviction(t *testing.T) {
	c := MustNew(small()) // 4 ways
	set := c.SetIndex(0)
	stride := uint64(c.Config().Sets() * LineSize)
	// Fill one set with 4 lines.
	addrs := []uint64{0, stride, 2 * stride, 3 * stride}
	for _, a := range addrs {
		c.Insert(a)
		if c.SetIndex(a) != set {
			t.Fatalf("addr %#x not congruent", a)
		}
	}
	// Touch the first so the second is LRU.
	c.Touch(addrs[0])
	c.Insert(4 * stride)
	if c.Contains(addrs[1]) {
		t.Fatal("LRU line survived")
	}
	if !c.Contains(addrs[0]) {
		t.Fatal("recently touched line evicted")
	}
	if c.OccupancyOfSet(set) != 4 {
		t.Fatalf("occupancy = %d", c.OccupancyOfSet(set))
	}
}

func TestEvictionHookFires(t *testing.T) {
	c := MustNew(small())
	var evicted []uint64
	c.onEvict = func(line uint64) { evicted = append(evicted, line) }
	stride := uint64(c.Config().Sets() * LineSize)
	for i := uint64(0); i < 5; i++ {
		c.Insert(i * stride)
	}
	if len(evicted) != 1 || evicted[0] != 0 {
		t.Fatalf("evicted = %v, want [0]", evicted)
	}
	// Explicit invalidation must not fire the hook.
	c.Invalidate(stride)
	if len(evicted) != 1 {
		t.Fatal("invalidate fired eviction hook")
	}
}

func TestSystemLoadLevels(t *testing.T) {
	s := MustNewSystem(I9900K(2))
	addr := uint64(0x1234_5678) &^ 63
	lat, lvl := s.Load(0, addr)
	if lvl != LevelMem || lat != s.Config().Lat.Mem {
		t.Fatalf("first load: %v/%d", lvl, lat)
	}
	lat, lvl = s.Load(0, addr)
	if lvl != LevelL1 || lat != s.Config().Lat.L1Hit {
		t.Fatalf("second load: %v/%d", lvl, lat)
	}
	// The other core misses its privates but hits the shared LLC.
	_, lvl = s.Load(1, addr)
	if lvl != LevelLLC {
		t.Fatalf("cross-core load level = %v, want LLC", lvl)
	}
}

func TestFlushIsCoherenceWide(t *testing.T) {
	s := MustNewSystem(I9900K(2))
	addr := uint64(0x40_0000)
	s.Load(0, addr)
	s.Load(1, addr)
	s.Flush(addr)
	for core := 0; core < 2; core++ {
		if lvl := s.Present(core, addr); lvl != LevelMem {
			t.Fatalf("core %d still holds line at %v", core, lvl)
		}
	}
}

// TestCoherenceVisitsFilledCores: flushes and back-invalidations visit only
// the cores whose private caches were filled since Reset, tracked in
// first-fill order; Reset forgets them, and re-warming does not allocate.
func TestCoherenceVisitsFilledCores(t *testing.T) {
	s := MustNewSystem(I9900K(4))
	addr := uint64(0x40_0000)
	s.Fetch(3, addr)
	s.Load(1, addr) // an LLC hit fills core 1's privates too
	s.Load(3, addr)
	if !slices.Equal(s.filled, []int{3, 1}) {
		t.Fatalf("filled cores = %v, want [3 1]", s.filled)
	}
	s.Flush(addr)
	for core := 0; core < 4; core++ {
		if lvl := s.Present(core, addr); lvl != LevelMem {
			t.Fatalf("core %d still holds line at %v", core, lvl)
		}
	}
	s.Reset()
	if len(s.filled) != 0 {
		t.Fatalf("Reset kept filled cores %v", s.filled)
	}
	rewarm := func() {
		s.Reset()
		s.Load(2, addr)
		s.Fetch(0, addr)
		s.Flush(addr)
	}
	if avg := testing.AllocsPerRun(100, rewarm); avg != 0 {
		t.Fatalf("reset and re-warm allocate %v/run, want 0", avg)
	}
}

// TestLLCHitRefreshesLRU: an LLC hit (a line another core brought in)
// refreshes the line's LRU stamp, so the next conflict miss in that set
// evicts the least recently used other line instead.
func TestLLCHitRefreshesLRU(t *testing.T) {
	s := MustNewSystem(I9900K(2))
	stride := uint64(s.LLC().Config().Sets() * LineSize)
	ways := s.LLC().Config().Ways
	line := func(i int) uint64 { return 0x7000_0000 + uint64(i)*stride }
	for i := 0; i < ways; i++ {
		s.Load(0, line(i))
	}
	if _, lvl := s.Load(1, line(0)); lvl != LevelLLC {
		t.Fatalf("core 1 load of a core-0 line = %v, want LLC", lvl)
	}
	s.Load(0, line(ways))
	if !s.LLC().Contains(line(0)) || s.LLC().Contains(line(1)) {
		t.Fatal("conflict miss evicted the refreshed line instead of the LRU one")
	}
}

func TestInclusiveBackInvalidation(t *testing.T) {
	s := MustNewSystem(I9900K(1))
	victim := uint64(0x40_0000)
	s.Load(0, victim)
	if s.Present(0, victim) != LevelL1 {
		t.Fatal("victim line not in L1")
	}
	// Fill the victim's LLC set with other lines: the LLC eviction must
	// back-invalidate the victim line from the private caches.
	set := s.LLCSetIndex(victim)
	stride := uint64(s.LLC().Config().Sets() * LineSize)
	base := uint64(0x7000_0000) + uint64(set)*LineSize
	ways := s.LLC().Config().Ways
	for i := 0; i <= ways; i++ {
		a := base + uint64(i)*stride
		if s.LLCSetIndex(a) != set {
			t.Fatalf("filler %#x not congruent", a)
		}
		s.Load(0, a)
	}
	if lvl := s.Present(0, victim); lvl != LevelMem {
		t.Fatalf("victim line still present at %v after LLC eviction", lvl)
	}
}

func TestFetchFillsSharedLevels(t *testing.T) {
	s := MustNewSystem(I9900K(1))
	pc := uint64(0x40_1000)
	s.Fetch(0, pc)
	// A later DATA load of the same line should hit L2 (code fill reaches
	// the shared levels) — this is what makes code lines observable to
	// Prime+Probe.
	_, lvl := s.Load(0, pc)
	if lvl != LevelL2 {
		t.Fatalf("data load after fetch = %v, want L2", lvl)
	}
}

func TestPrefetchSideEffects(t *testing.T) {
	s := MustNewSystem(I9900K(1))
	addr := uint64(0x40_2000)
	s.Prefetch(0, addr)
	if _, lvl := s.Load(0, addr); lvl != LevelL2 {
		t.Fatalf("load after prefetch = %v, want L2", lvl)
	}
	d := uint64(0x40_3000)
	s.PrefetchData(0, d)
	if _, lvl := s.Load(0, d); lvl != LevelL1 {
		t.Fatalf("load after data prefetch = %v, want L1", lvl)
	}
}

func TestHitThresholdSeparates(t *testing.T) {
	s := MustNewSystem(I9900K(1))
	thr := s.HitThreshold()
	if thr <= s.Config().Lat.LLCHit || thr >= s.Config().Lat.Mem {
		t.Fatalf("threshold %d not between LLC %d and Mem %d", thr, s.Config().Lat.LLCHit, s.Config().Lat.Mem)
	}
}

func TestLineAddr(t *testing.T) {
	f := func(a uint64) bool {
		l := LineAddr(a)
		return l%LineSize == 0 && a-l < LineSize && l <= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyInsertedLinesFound: any inserted line is found until its set
// overflows.
func TestPropertyInsertedLinesFound(t *testing.T) {
	f := func(raw []uint64) bool {
		c := MustNew(small())
		perSet := map[int][]uint64{}
		for _, a := range raw {
			a &= 0xFFFF_FFFF
			c.Insert(a)
			si := c.SetIndex(a)
			line := LineAddr(a)
			// Track uniquely, most recent last.
			l := perSet[si]
			for i, e := range l {
				if e == line {
					l = append(l[:i], l[i+1:]...)
					break
				}
			}
			perSet[si] = append(l, line)
		}
		for si, lines := range perSet {
			recent := lines
			if len(recent) > c.Config().Ways {
				recent = recent[len(recent)-c.Config().Ways:]
			}
			if c.OccupancyOfSet(si) != len(recent) {
				return false
			}
			for _, l := range recent {
				if !c.Contains(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLevelString(t *testing.T) {
	for lvl, want := range map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelLLC: "LLC", LevelMem: "MEM"} {
		if lvl.String() != want {
			t.Fatalf("Level(%d) = %q", lvl, lvl.String())
		}
	}
}

// TestLookupZeroAllocs gates the hot lookup/fill path: once a working set's
// sets have been carved, loads — hits and conflict-evicting misses alike —
// must not allocate. Lazy carving moved all set allocation to first touch,
// so only a cold set may grow the arena.
func TestLookupZeroAllocs(t *testing.T) {
	s := MustNewSystem(I9900K(1))
	addrs := make([]uint64, 64)
	for i := range addrs {
		addrs[i] = uint64(0x40_0000 + i*64)
	}
	warm := func() {
		for _, a := range addrs {
			s.Load(0, a)
		}
	}
	warm() // carve the working set's cache sets
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Fatalf("warm lookups allocate %v/run, want 0", avg)
	}
}
