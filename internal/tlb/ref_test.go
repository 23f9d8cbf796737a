package tlb

// refTLB is the TLB before its entries were packed: a {valid, vpn, lru} per
// entry, an Insert that scans its set three times (hit, first free entry,
// LRU victim) and a Flush that walks every set. FuzzTLBDifferential holds
// TLB to it.
type refTLB struct {
	cfg      Config
	sets     [][]refEntry
	setMask  uint64
	tick     uint64
	arena    []refEntry
	chunks   [][]refEntry
	chunkPos int
	carved   []int
}

type refEntry struct {
	valid bool
	vpn   uint64
	lru   uint64
}

func newRefTLB(cfg Config) *refTLB {
	n := cfg.Sets()
	return &refTLB{cfg: cfg, sets: make([][]refEntry, n), setMask: uint64(n - 1)}
}

func (t *refTLB) carve(si int) []refEntry {
	if len(t.arena) < t.cfg.Ways {
		if t.chunkPos < len(t.chunks) {
			t.arena = t.chunks[t.chunkPos]
		} else {
			slab := make([]refEntry, setChunk*t.cfg.Ways)
			t.chunks = append(t.chunks, slab)
			t.arena = slab
		}
		t.chunkPos++
	}
	s := t.arena[:t.cfg.Ways:t.cfg.Ways]
	t.arena = t.arena[t.cfg.Ways:]
	t.sets[si] = s
	t.carved = append(t.carved, si)
	return s
}

func (t *refTLB) Reset() {
	for _, si := range t.carved {
		t.sets[si] = nil
	}
	t.carved = t.carved[:0]
	for _, slab := range t.chunks[:t.chunkPos] {
		for i := range slab {
			slab[i] = refEntry{}
		}
	}
	t.arena = nil
	t.chunkPos = 0
	t.tick = 0
}

func (t *refTLB) SetIndex(vpn uint64) int { return int(vpn & t.setMask) }

func (t *refTLB) Contains(vpn uint64) bool {
	for _, e := range t.sets[t.SetIndex(vpn)] {
		if e.valid && e.vpn == vpn {
			return true
		}
	}
	return false
}

func (t *refTLB) Touch(vpn uint64) bool {
	set := t.sets[t.SetIndex(vpn)]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			t.tick++
			set[i].lru = t.tick
			return true
		}
	}
	return false
}

func (t *refTLB) Insert(vpn uint64) {
	si := t.SetIndex(vpn)
	set := t.sets[si]
	if set == nil {
		set = t.carve(si)
	}
	t.tick++
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].lru = t.tick
			return
		}
	}
	for i := range set {
		if !set[i].valid {
			set[i] = refEntry{valid: true, vpn: vpn, lru: t.tick}
			return
		}
	}
	victim := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = refEntry{valid: true, vpn: vpn, lru: t.tick}
}

func (t *refTLB) Invalidate(vpn uint64) bool {
	set := t.sets[t.SetIndex(vpn)]
	for i := range set {
		if set[i].valid && set[i].vpn == vpn {
			set[i].valid = false
			return true
		}
	}
	return false
}

func (t *refTLB) Flush() {
	for _, set := range t.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}
