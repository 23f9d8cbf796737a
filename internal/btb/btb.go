// Package btb models the branch target buffer side channel the paper's
// third proof-of-concept uses (§5.3, reproducing NightVision). Two
// behaviours matter:
//
//  1. The BTB entry for an instruction is selected by the lower 32 bits of
//     its PC (the paper's footnote): two instructions whose PCs differ only
//     above bit 31 collide. The attacker exploits this with a gadget placed
//     4 GiB away from the victim instruction of interest.
//  2. Non-control-transfer instructions also update the BTB: executing a
//     nop/mov that collides with a jump's entry *invalidates* that entry
//     (the NightVision observation). The attacker detects the invalidation
//     because the front-end no longer prefetches the jump's target line.
package btb

import "repro/internal/metrics"

// Config describes the BTB geometry.
type Config struct {
	// Entries is the number of direct-mapped entries. Must be a power of
	// two.
	Entries int
	// IndexShift is how many low PC bits are ignored by the index function
	// (branches within the same fetch region share an index).
	IndexShift uint
}

// DefaultConfig approximates the test machine: 4096 entries indexed by
// PC[16:5] with a tag covering the rest of the lower 32 bits.
var DefaultConfig = Config{Entries: 4096, IndexShift: 5}

type entry struct {
	valid bool
	tag   uint32
	// target stores only the low 32 bits of the resolved target: the
	// front end materializes the prediction within the fetching
	// instruction's own 4 GiB region. This is what makes the paper's T2
	// line (4 GiB above the trainer's T1) the one that gets prefetched
	// when the probe gadget executes (Figure 5.3).
	target uint32
}

// BTB is a direct-mapped branch target buffer. The entry array is allocated
// on the first branch update: an empty BTB predicts nothing, so cores that
// never resolve a branch (most of a mostly-idle machine) never pay for the
// 4096-entry table.
type BTB struct {
	cfg     Config
	entries []entry
	mask    uint64

	// tel holds prediction metric handles; nil handles (the default) make
	// every increment a no-op.
	tel struct {
		hits          *metrics.Counter
		misses        *metrics.Counter
		branchUpdates *metrics.Counter
		nvInvalidates *metrics.Counter
	}
}

// The BTB's metric names, interned once: every core instruments its BTB at
// each machine construction and pool fork.
var (
	lookupNames           = metrics.FamilyNames("btb_lookup_total", "outcome", "hit", "miss")
	nameBranchUpdates     = metrics.Intern("btb_branch_updates_total")
	nameNonbranchInvalids = metrics.Intern("btb_nonbranch_invalidations_total")
)

// InstrumentMetrics wires BTB telemetry into a registry: prediction
// hits/misses, branch-resolution updates, and NightVision invalidations
// (non-branch executions killing a colliding entry). Per-core BTBs share
// the metric names, so counts aggregate machine-wide.
func (b *BTB) InstrumentMetrics(r *metrics.Registry) {
	var fam [2]*metrics.Counter
	r.CounterFamily(fam[:], lookupNames)
	b.tel.hits, b.tel.misses = fam[0], fam[1]
	b.tel.branchUpdates = r.CounterOf(nameBranchUpdates)
	b.tel.nvInvalidates = r.CounterOf(nameNonbranchInvalids)
}

// ShareMetrics gives b the handles peer's InstrumentMetrics resolved: the
// same wiring as instrumenting b into peer's registry, without a lookup.
func (b *BTB) ShareMetrics(peer *BTB) { b.tel = peer.tel }

// New returns an empty BTB. It panics if Entries is not a power of two.
func New(cfg Config) *BTB {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic("btb: entry count must be a positive power of two")
	}
	return &BTB{cfg: cfg, mask: uint64(cfg.Entries - 1)}
}

// Config returns the BTB configuration.
func (b *BTB) Config() Config { return b.cfg }

// index computes the entry slot for pc from its lower 32 bits only.
func (b *BTB) index(pc uint64) int {
	return int((uint64(uint32(pc)) >> b.cfg.IndexShift) & b.mask)
}

// tag computes the entry tag: the full lower 32 bits, so that PCs that are
// equal modulo 2^32 — and only those — match the same entry.
func (b *BTB) tag(pc uint64) uint32 { return uint32(pc) }

// Collide reports whether two PCs select and tag the same BTB entry.
func Collide(a, bpc uint64) bool { return uint32(a) == uint32(bpc) }

// Lookup consults the BTB at fetch time and returns the predicted target
// materialized within pc's own 4 GiB region, if an entry matches.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	if b.entries == nil {
		b.tel.misses.Inc()
		return 0, false
	}
	e := b.entries[b.index(pc)]
	if e.valid && e.tag == b.tag(pc) {
		b.tel.hits.Inc()
		return (pc &^ 0xffff_ffff) | uint64(e.target), true
	}
	b.tel.misses.Inc()
	return 0, false
}

// UpdateBranch records the resolved target of a control-transfer
// instruction at pc (allocating or replacing its entry).
func (b *BTB) UpdateBranch(pc, target uint64) {
	b.tel.branchUpdates.Inc()
	if b.entries == nil {
		b.entries = make([]entry, b.cfg.Entries)
	}
	b.entries[b.index(pc)] = entry{valid: true, tag: b.tag(pc), target: uint32(target)}
}

// UpdateNonBranch applies the NightVision effect: executing a
// non-control-transfer instruction at pc invalidates a colliding entry.
// It reports whether an entry was invalidated.
func (b *BTB) UpdateNonBranch(pc uint64) bool {
	if b.entries == nil {
		return false
	}
	i := b.index(pc)
	if b.entries[i].valid && b.entries[i].tag == b.tag(pc) {
		b.tel.nvInvalidates.Inc()
		b.entries[i].valid = false
		return true
	}
	return false
}

// Allocated reports whether the entry table exists: until the first branch
// update the BTB is empty and UpdateNonBranch does nothing.
func (b *BTB) Allocated() bool { return b.entries != nil }

// Invalidate drops the entry for pc if present.
func (b *BTB) Invalidate(pc uint64) {
	if b.entries == nil {
		return
	}
	i := b.index(pc)
	if b.entries[i].valid && b.entries[i].tag == b.tag(pc) {
		b.entries[i].valid = false
	}
}

// Flush empties the BTB (e.g. IBPB).
func (b *BTB) Flush() {
	for i := range b.entries {
		b.entries[i].valid = false
	}
}

// Reset returns the BTB to its freshly constructed state and detaches the
// metric handles. The entry table, if it was ever allocated, is retained
// but fully zeroed — an entry-for-entry match of a fresh BTB's lazily
// allocated table, minus the allocation.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
	b.tel.hits = nil
	b.tel.misses = nil
	b.tel.branchUpdates = nil
	b.tel.nvInvalidates = nil
}

// Contains reports whether pc currently has a valid entry.
func (b *BTB) Contains(pc uint64) bool {
	_, hit := b.Lookup(pc)
	return hit
}
