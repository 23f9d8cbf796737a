package cache

import (
	"slices"
	"testing"
)

// FuzzCacheDifferential drives Cache and the unpacked reference model
// (refCache) with the same operation stream over a small geometry and
// compares every result. The first byte picks the geometry (1-8 ways, 1, 2
// or 4 sets); each following pair is an operation and an address from a
// pool of ways+2 lines per set, so sets fill, overflow and collide. Inserts
// go through fill, which Insert wraps, so its hit report is checked too.
// Besides every return value and every eviction callback, the per-way tag
// and LRU stamp of each valid way must match, an invalid way must hold lru
// 0, and the final LinesInSet and OccupancyOfSet of every set must agree.
func FuzzCacheDifferential(f *testing.F) {
	const (
		touch, insert, contains, invalidate, check, reset = 0, 4, 9, 11, 13, 15
	)
	// One 4-way set: fill it, overflow it, refresh a line, overflow again.
	f.Add([]byte{3, insert, 0, insert, 1, insert, 2, insert, 3, insert, 4, touch, 1, insert, 5, insert, 0, check, 0})
	// Fill a set, invalidate every way, refill it past capacity.
	f.Add([]byte{3, insert, 0, insert, 1, insert, 2, insert, 3, invalidate, 2, invalidate, 0, invalidate, 3, invalidate, 1,
		check, 0, insert, 4, insert, 5, insert, 0, insert, 1, insert, 2, contains, 4})
	// Two 4-way sets warmed, Reset, then re-warmed from the retained slabs.
	f.Add([]byte{11, insert, 0, insert, 1, insert, 2, insert, 0x83, touch, 2, reset, 0, contains, 0, touch, 1,
		insert, 3, insert, 0x80, insert, 5, insert, 7, insert, 9, check, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways, sets := 1+int(data[0]%8), 1<<(data[0]>>3%3)
		cfg := Config{Name: "fuzz", Size: sets * ways * LineSize, Ways: ways}
		c, ref := MustNew(cfg), newRefCache(cfg)
		var got, want []uint64
		c.onEvict = func(line uint64) { got = append(got, line) }
		ref.onEvict = func(line uint64) { want = append(want, line) }
		lines := sets * (ways + 2)
		for step, ops := 0, data[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			addr := fuzzAddr(ops[1], lines)
			switch k := ops[0] % 16; {
			case k < insert:
				if g, w := c.Touch(addr), ref.Touch(addr); g != w {
					t.Fatalf("step %d: Touch(%#x) = %v, reference %v", step, addr, g, w)
				}
			case k < contains:
				w := ref.Contains(addr)
				ref.Insert(addr)
				if g := c.fill(addr); g != w {
					t.Fatalf("step %d: fill(%#x) hit = %v, reference %v", step, addr, g, w)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Insert(%#x) evictions %#x, reference %#x", step, addr, got, want)
				}
			case k < invalidate:
				if g, w := c.Contains(addr), ref.Contains(addr); g != w {
					t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, addr, g, w)
				}
			case k < check:
				if g, w := c.Invalidate(addr), ref.Invalidate(addr); g != w {
					t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, addr, g, w)
				}
			case k < reset:
				compareSet(t, step, c, ref, c.SetIndex(addr))
			default:
				c.Reset()
				ref.Reset()
			}
		}
		for si := 0; si < sets; si++ {
			compareSet(t, -1, c, ref, si)
		}
	})
}

// fuzzAddr maps an operand byte to an address: the low seven bits pick one
// of lines lines (with a byte-dependent offset inside it), the top bit puts
// the line at the top of the address space so the highest tag bit is set.
func fuzzAddr(b byte, lines int) uint64 {
	line := uint64(int(b&0x7f) % lines)
	if b&0x80 != 0 {
		line |= 1 << (63 - LineShift)
	}
	return line<<LineShift | uint64(b)%LineSize
}

// compareSet checks set si of c against the reference, way by way and
// through LinesInSet and OccupancyOfSet. step -1 is the final state.
func compareSet(t *testing.T, step int, c *Cache, ref *refCache, si int) {
	t.Helper()
	if c.tick != ref.tick {
		t.Fatalf("step %d: tick %d, reference %d", step, c.tick, ref.tick)
	}
	set, rset := c.sets[si], ref.sets[si]
	if (set == nil) != (rset == nil) {
		t.Fatalf("step %d: set %d carved %v, reference %v", step, si, set != nil, rset != nil)
	}
	for i, w := range set {
		r := rset[i]
		switch {
		case (w.tag != 0) != r.valid:
			t.Fatalf("step %d: set %d way %d valid %v, reference %v", step, si, i, w.tag != 0, r.valid)
		case r.valid && (w.tag != r.tag|tagValid || w.lru != r.lru):
			t.Fatalf("step %d: set %d way %d = {%#x, %d}, reference {%#x, %d}", step, si, i, w.tag&^tagValid, w.lru, r.tag, r.lru)
		case !r.valid && w.lru != 0:
			t.Fatalf("step %d: set %d way %d is invalid with lru %d", step, si, i, w.lru)
		}
	}
	if g, w := c.LinesInSet(si), ref.LinesInSet(si); !slices.Equal(g, w) {
		t.Fatalf("step %d: LinesInSet(%d) = %#x, reference %#x", step, si, g, w)
	}
	if g, w := c.OccupancyOfSet(si), ref.OccupancyOfSet(si); g != w {
		t.Fatalf("step %d: OccupancyOfSet(%d) = %d, reference %d", step, si, g, w)
	}
}
