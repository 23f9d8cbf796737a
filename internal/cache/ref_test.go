package cache

// refCache is the cache before its ways were packed: a {valid, tag, lru} per
// way and an Insert that scans its set three times (hit, first free way, LRU
// victim). FuzzCacheDifferential holds Cache to it: the packed single-pass
// layout must choose the same ways, evict the same lines and leave the same
// set contents.
type refCache struct {
	cfg      Config
	sets     [][]refWay
	setMask  uint64
	tick     uint64
	arena    []refWay
	chunks   [][]refWay
	chunkPos int
	carved   []int
	onEvict  func(lineAddr uint64)
}

type refWay struct {
	valid bool
	tag   uint64
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	n := cfg.Sets()
	return &refCache{cfg: cfg, sets: make([][]refWay, n), setMask: uint64(n - 1)}
}

func (c *refCache) carve(si int) []refWay {
	if len(c.arena) < c.cfg.Ways {
		if c.chunkPos < len(c.chunks) {
			c.arena = c.chunks[c.chunkPos]
		} else {
			slab := make([]refWay, setChunk*c.cfg.Ways)
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

func (c *refCache) Reset() {
	for _, si := range c.carved {
		c.sets[si] = nil
	}
	c.carved = c.carved[:0]
	for _, slab := range c.chunks[:c.chunkPos] {
		for i := range slab {
			slab[i] = refWay{}
		}
	}
	c.arena = nil
	c.chunkPos = 0
	c.tick = 0
}

func (c *refCache) SetIndex(addr uint64) int {
	return int((addr >> LineShift) & c.setMask)
}

func (c *refCache) tagOf(addr uint64) uint64 {
	return addr >> LineShift
}

func (c *refCache) Contains(addr uint64) bool {
	set := c.sets[c.SetIndex(addr)]
	tag := c.tagOf(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Touch(addr uint64) bool {
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

func (c *refCache) Insert(addr uint64) {
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
			set[i] = refWay{valid: true, tag: tag, lru: c.tick}
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
	set[victim] = refWay{valid: true, tag: tag, lru: c.tick}
	if c.onEvict != nil {
		c.onEvict(evicted)
	}
}

func (c *refCache) Invalidate(addr uint64) bool {
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

func (c *refCache) OccupancyOfSet(si int) int {
	n := 0
	for _, w := range c.sets[si] {
		if w.valid {
			n++
		}
	}
	return n
}

func (c *refCache) LinesInSet(si int) []uint64 {
	var out []uint64
	for _, w := range c.sets[si] {
		if w.valid {
			out = append(out, w.tag<<LineShift)
		}
	}
	return out
}
