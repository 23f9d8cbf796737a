package tlb

import "testing"

func TestGeometry(t *testing.T) {
	c := I9900KTLBs()
	if c.ITLB.Config().Sets() != 16 {
		t.Fatalf("iTLB sets = %d, want 16", c.ITLB.Config().Sets())
	}
	if c.STLB.Config().Sets() != 128 {
		t.Fatalf("sTLB sets = %d, want 128", c.STLB.Config().Sets())
	}
	if c.DTLB.Config().Sets() != 16 {
		t.Fatalf("dTLB sets = %d, want 16", c.DTLB.Config().Sets())
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(Config{Name: "bad", Entries: 48, Ways: 16}); err == nil { // 3 sets
		t.Fatal("want error for non-power-of-two set count")
	}
}

func TestVPNHelpers(t *testing.T) {
	if VPN(0x1234_5678) != 0x12345 {
		t.Fatalf("VPN = %#x", VPN(0x1234_5678))
	}
	if PageAddr(0x1234_5678) != 0x1234_5000 {
		t.Fatalf("PageAddr = %#x", PageAddr(0x1234_5678))
	}
}

func TestInsertTouchFlush(t *testing.T) {
	tl := MustNew(Config{Name: "t", Entries: 8, Ways: 2}) // 4 sets
	vpn := uint64(0x40)
	if tl.Touch(vpn) || tl.Contains(vpn) {
		t.Fatal("empty TLB hit")
	}
	tl.Insert(vpn)
	if !tl.Touch(vpn) {
		t.Fatal("inserted VPN missing")
	}
	tl.Flush()
	if tl.Contains(vpn) {
		t.Fatal("VPN survived flush")
	}
}

func TestSetAssocEviction(t *testing.T) {
	tl := MustNew(Config{Name: "t", Entries: 8, Ways: 2}) // 4 sets
	// Three congruent VPNs in a 2-way set: the LRU one must go.
	a, b, c := uint64(0), uint64(4), uint64(8)
	tl.Insert(a)
	tl.Insert(b)
	tl.Touch(a)
	tl.Insert(c)
	if tl.Contains(b) {
		t.Fatal("LRU entry survived")
	}
	if !tl.Contains(a) || !tl.Contains(c) {
		t.Fatal("wrong entry evicted")
	}
}

func TestTranslateFetchLatencies(t *testing.T) {
	c := I9900KTLBs()
	pc := uint64(0x40_0000)
	if lat := c.TranslateFetch(pc); lat != c.Lat.Walk {
		t.Fatalf("cold fetch translation = %d, want walk %d", lat, c.Lat.Walk)
	}
	if lat := c.TranslateFetch(pc); lat != c.Lat.L1Hit {
		t.Fatalf("warm fetch translation = %d, want L1 hit", lat)
	}
	// Evict from iTLB only: should be an sTLB hit.
	c.ITLB.Invalidate(VPN(pc))
	if lat := c.TranslateFetch(pc); lat != c.Lat.L2Hit {
		t.Fatalf("iTLB-evicted translation = %d, want sTLB hit %d", lat, c.Lat.L2Hit)
	}
}

func TestTranslateDataSharesSTLB(t *testing.T) {
	c := I9900KTLBs()
	addr := uint64(0x60_0000)
	c.TranslateData(addr)
	// Instruction-side access to the same page should hit the shared
	// second level.
	if lat := c.TranslateFetch(addr); lat != c.Lat.L2Hit {
		t.Fatalf("fetch after data walk = %d, want sTLB hit", lat)
	}
}

func TestFlushAll(t *testing.T) {
	c := I9900KTLBs()
	c.TranslateFetch(0x40_0000)
	c.TranslateData(0x60_0000)
	c.FlushAll()
	if lat := c.TranslateFetch(0x40_0000); lat != c.Lat.Walk {
		t.Fatal("iTLB survived FlushAll")
	}
	if lat := c.TranslateData(0x60_0000); lat != c.Lat.Walk {
		t.Fatal("dTLB/sTLB survived FlushAll")
	}
}

// TestSTLBHitRefreshesLRU: an sTLB hit after an iTLB miss refreshes the
// entry's LRU stamp, so the next walk into that sTLB set evicts the least
// recently used other page instead.
func TestSTLBHitRefreshesLRU(t *testing.T) {
	c := I9900KTLBs()
	stride := uint64(c.STLB.Config().Sets()) * PageSize
	ways := c.STLB.Config().Ways
	page := func(i int) uint64 { return 0x40_0000 + uint64(i)*stride }
	for i := 0; i < ways; i++ {
		c.TranslateFetch(page(i))
	}
	// The 8-way iTLB has dropped page 0 by now; the sTLB still holds it.
	if lat := c.TranslateFetch(page(0)); lat != c.Lat.L2Hit {
		t.Fatalf("translation of page 0 = %d, want sTLB hit %d", lat, c.Lat.L2Hit)
	}
	c.TranslateFetch(page(ways))
	if !c.STLB.Contains(VPN(page(0))) || c.STLB.Contains(VPN(page(1))) {
		t.Fatal("walk evicted the refreshed page instead of the LRU one")
	}
}

// TestEvictionPagesForEverySet checks the eviction-set arithmetic over every
// iTLB and sTLB set and over unaligned arena bases, including arenas that
// hold the target itself: exactly n pages, each congruent to the target,
// pairwise distinct, and never the target's page.
func TestEvictionPagesForEverySet(t *testing.T) {
	c := I9900KTLBs()
	bases := []uint64{
		0x7000_0000_0000,            // stride-aligned
		0x7000_0000_0000 + 1,        // one byte past alignment
		0x7000_0000_0000 + PageSize, // page-aligned, not stride-aligned
		0x7000_0000_0000 - 3*PageSize - 17,
		0x40_0000 - 5*PageSize - 1, // a low arena
		0,
	}
	for _, tb := range []*TLB{c.ITLB, c.STLB} {
		sets := tb.Config().Sets()
		for set := 0; set < sets; set++ {
			for _, base := range bases {
				// A target in set `set`, sitting in the arena's first few
				// strides so the walk has to step over it.
				stride := uint64(sets) * PageSize
				target := (base &^ (stride - 1)) + stride + uint64(set)*PageSize + 0x123
				for _, n := range []int{1, tb.Config().Ways + 1} {
					pages := EvictionPagesFor(tb, target, base, n)
					if len(pages) != n {
						t.Fatalf("%s set %d base %#x: %d pages, want %d", tb.Config().Name, set, base, len(pages), n)
					}
					seen := map[uint64]bool{}
					for _, p := range pages {
						switch {
						case tb.SetIndex(VPN(p)) != set:
							t.Fatalf("%s set %d base %#x: page %#x in set %d", tb.Config().Name, set, base, p, tb.SetIndex(VPN(p)))
						case VPN(p) == VPN(target):
							t.Fatalf("%s set %d base %#x: eviction set holds the target page %#x", tb.Config().Name, set, base, p)
						case seen[VPN(p)]:
							t.Fatalf("%s set %d base %#x: page %#x twice", tb.Config().Name, set, base, p)
						case p < base:
							t.Fatalf("%s set %d base %#x: page %#x below the arena", tb.Config().Name, set, base, p)
						}
						seen[VPN(p)] = true
					}
				}
			}
		}
	}
}

// TestEvictionPagesEvict verifies the Gras-et-al-style eviction set: after
// touching the congruent pages, the target's translation is gone.
func TestEvictionPagesEvict(t *testing.T) {
	c := I9900KTLBs()
	target := uint64(0x40_0000)
	c.TranslateFetch(target) // fill iTLB + sTLB

	itlbPages := EvictionPagesFor(c.ITLB, target, 0x7000_0000_0000, c.ITLB.Config().Ways+1)
	stlbPages := EvictionPagesFor(c.STLB, target, 0x7100_0000_0000, c.STLB.Config().Ways+1)
	for _, p := range itlbPages {
		if c.ITLB.SetIndex(VPN(p)) != c.ITLB.SetIndex(VPN(target)) {
			t.Fatalf("iTLB eviction page %#x not congruent", p)
		}
		if VPN(p) == VPN(target) {
			t.Fatal("eviction set contains the target page")
		}
		c.TranslateFetch(p)
	}
	for _, p := range stlbPages {
		if c.STLB.SetIndex(VPN(p)) != c.STLB.SetIndex(VPN(target)) {
			t.Fatalf("sTLB eviction page %#x not congruent", p)
		}
		c.TranslateFetch(p)
	}
	if c.ITLB.Contains(VPN(target)) {
		t.Fatal("target survived iTLB eviction")
	}
	if c.STLB.Contains(VPN(target)) {
		t.Fatal("target survived sTLB eviction")
	}
	// The next victim fetch pays a full walk — the degradation effect.
	if lat := c.TranslateFetch(target); lat != c.Lat.Walk {
		t.Fatalf("post-eviction translation = %d, want walk", lat)
	}
}

// TestTranslateZeroAllocs gates the translation hot path: after the working
// set's TLB sets have been carved, fetch and data translations — hits,
// sTLB promotions and full walks — must not allocate.
func TestTranslateZeroAllocs(t *testing.T) {
	c := I9900KTLBs()
	pages := make([]uint64, 32)
	for i := range pages {
		pages[i] = uint64(0x40_0000 + i*PageSize)
	}
	warm := func() {
		for _, p := range pages {
			c.TranslateFetch(p)
			c.TranslateData(p + 8)
		}
	}
	warm() // carve the working set's TLB sets
	if avg := testing.AllocsPerRun(100, warm); avg != 0 {
		t.Fatalf("warm translations allocate %v/run, want 0", avg)
	}
}
