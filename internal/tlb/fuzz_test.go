package tlb

import "testing"

// FuzzTLBDifferential drives TLB and the unpacked reference model (refTLB)
// with the same operation stream over a small geometry and compares every
// result. The first byte picks the geometry (1-8 ways, 1, 2 or 4 sets); each
// following pair is an operation and a page number from a pool of ways+2
// pages per set, so sets fill, overflow and collide. Inserts go through
// fill, which Insert wraps, so its hit report is checked too. After each
// Flush and Reset, and at the end, the per-entry page number and LRU stamp
// of every valid entry must match, and an invalid entry must hold lru 0.
func FuzzTLBDifferential(f *testing.F) {
	const (
		touch, insert, contains, invalidate, flush, reset = 0, 4, 9, 11, 13, 15
	)
	// One 4-way set: fill it, overflow it, refresh an entry, overflow again.
	f.Add([]byte{3, insert, 0, insert, 1, insert, 2, insert, 3, insert, 4, touch, 1, insert, 5, insert, 0, contains, 1})
	// Fill a set, invalidate every entry, refill it past capacity.
	f.Add([]byte{3, insert, 0, insert, 1, insert, 2, insert, 3, invalidate, 2, invalidate, 0, invalidate, 3, invalidate, 1,
		insert, 4, insert, 5, insert, 0, insert, 1, insert, 2, contains, 4})
	// Flush a warm TLB, then refill; Reset, then re-warm from retained slabs.
	f.Add([]byte{11, insert, 0, insert, 1, insert, 2, insert, 0x83, flush, 0, contains, 1, insert, 3, insert, 2,
		reset, 0, touch, 3, insert, 3, insert, 0x80, insert, 5, insert, 7, insert, 9, touch, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ways, sets := 1+int(data[0]%8), 1<<(data[0]>>3%3)
		cfg := Config{Name: "fuzz", Entries: sets * ways, Ways: ways}
		tl, ref := MustNew(cfg), newRefTLB(cfg)
		pages := sets * (ways + 2)
		for step, ops := 0, data[1:]; len(ops) >= 2; step, ops = step+1, ops[2:] {
			vpn := fuzzVPN(ops[1], pages)
			switch k := ops[0] % 16; {
			case k < insert:
				if g, w := tl.Touch(vpn), ref.Touch(vpn); g != w {
					t.Fatalf("step %d: Touch(%#x) = %v, reference %v", step, vpn, g, w)
				}
			case k < contains:
				w := ref.Contains(vpn)
				ref.Insert(vpn)
				if g := tl.fill(vpn); g != w {
					t.Fatalf("step %d: fill(%#x) hit = %v, reference %v", step, vpn, g, w)
				}
			case k < invalidate:
				if g, w := tl.Contains(vpn), ref.Contains(vpn); g != w {
					t.Fatalf("step %d: Contains(%#x) = %v, reference %v", step, vpn, g, w)
				}
			case k < flush:
				if g, w := tl.Invalidate(vpn), ref.Invalidate(vpn); g != w {
					t.Fatalf("step %d: Invalidate(%#x) = %v, reference %v", step, vpn, g, w)
				}
			case k < reset:
				tl.Flush()
				ref.Flush()
				compareEntries(t, step, tl, ref)
			default:
				tl.Reset()
				ref.Reset()
				compareEntries(t, step, tl, ref)
			}
		}
		compareEntries(t, -1, tl, ref)
	})
}

// fuzzVPN maps an operand byte to a page number: the low seven bits pick
// one of pages pages, the top bit puts the page at the top of the address
// space so the highest page-number bit is set.
func fuzzVPN(b byte, pages int) uint64 {
	vpn := uint64(int(b&0x7f) % pages)
	if b&0x80 != 0 {
		vpn |= 1 << (63 - PageShift)
	}
	return vpn
}

// compareEntries checks every set of tl against the reference, entry by
// entry. step -1 is the final state.
func compareEntries(t *testing.T, step int, tl *TLB, ref *refTLB) {
	t.Helper()
	if tl.tick != ref.tick {
		t.Fatalf("step %d: tick %d, reference %d", step, tl.tick, ref.tick)
	}
	for si, set := range tl.sets {
		rset := ref.sets[si]
		if (set == nil) != (rset == nil) {
			t.Fatalf("step %d: set %d carved %v, reference %v", step, si, set != nil, rset != nil)
		}
		for i, e := range set {
			r := rset[i]
			switch {
			case (e.vpn != 0) != r.valid:
				t.Fatalf("step %d: set %d entry %d valid %v, reference %v", step, si, i, e.vpn != 0, r.valid)
			case r.valid && (e.vpn != r.vpn|vpnValid || e.lru != r.lru):
				t.Fatalf("step %d: set %d entry %d = {%#x, %d}, reference {%#x, %d}", step, si, i, e.vpn&^vpnValid, e.lru, r.vpn, r.lru)
			case !r.valid && e.lru != 0:
				t.Fatalf("step %d: set %d entry %d is invalid with lru %d", step, si, i, e.lru)
			}
		}
	}
}
