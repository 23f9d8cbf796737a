// Package cpu composes the per-core microarchitecture model: instruction
// execution charges fetch costs (iTLB translation, instruction-cache
// presence, post-context-switch pipeline warm-up), data costs (dTLB/sTLB
// translation, the L1D/L2/LLC hierarchy) and control-flow costs (BTB hit or
// misprediction), and applies the side effects each side channel in the
// paper observes: cache fills, TLB fills, BTB allocation and the
// NightVision non-branch invalidation, and BTB-driven instruction prefetch.
package cpu

import (
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/tlb"
)

// Params are the execution-cost constants, in CPU cycles.
type Params struct {
	// ALU and Nop are single-cycle.
	ALU int64
	Nop int64
	// Store adds on top of the cache access (store-buffer drain is not
	// modelled).
	Store int64
	// Fence is a serializing fence (lfence), as inserted by the LVI
	// mitigation the SGX victim is compiled with.
	Fence int64
	// Flush is the cost of a clflush.
	Flush int64
	// BranchHit is a correctly predicted branch.
	BranchHit int64
	// BranchMiss is the front-end refill penalty for a BTB miss or wrong
	// target.
	BranchMiss int64
	// ColdFirst is the extra cost of the first instruction retired after a
	// context switch (pipeline restart, first code fetch missing the
	// polluted front end).
	ColdFirst int64
	// ColdPerInstr is the extra per-instruction cost while the thread is
	// within its first ColdDecay instructions after a switch-in: caches,
	// uop cache and predictors are cold, so early instructions retire far
	// below steady-state IPC. This warm-up is the effect the temporal-
	// resolution histograms of Figure 4.3 ride on.
	ColdPerInstr int64
	// ColdDecay is how many instructions the warm-up window spans.
	ColdDecay int64
}

// DefaultParams approximates the test machine at 4 GHz.
var DefaultParams = Params{
	ALU:          1,
	Nop:          1,
	Store:        1,
	Fence:        20,
	Flush:        40,
	BranchHit:    1,
	BranchMiss:   14,
	ColdFirst:    400, // ~100 ns first-instruction penalty
	ColdPerInstr: 80,  // ~20 ns per instruction while cold
	ColdDecay:    256,
}

// Context is the per-thread microarchitectural execution context. The
// kernel resets warm-up state on every context switch (and the SGX model
// additionally flushes TLBs on asynchronous enclave exits).
type Context struct {
	// Seq counts instructions retired since the last sched-in.
	Seq int64
	// Retired counts instructions retired over the context's lifetime; the
	// kernel trace differences it to report instructions-per-preemption.
	Retired int64
	// FetchThroughCache routes instruction fetches through the cache
	// hierarchy so attacker evictions of code lines stall the victim
	// (§5.2's performance degradation).
	FetchThroughCache bool
	// UseITLB charges instruction-side translations, making the thread
	// sensitive to the paper's iTLB-eviction degradation (§4.3).
	UseITLB bool
}

// ResetSchedIn clears per-stint warm-up state (called by the kernel when
// the thread is switched in).
func (c *Context) ResetSchedIn() { c.Seq = 0 }

// Core is one logical core's microarchitecture.
type Core struct {
	// ID is the core index within the cache system.
	ID int
	// Caches is the machine-wide cache system (shared LLC).
	Caches *cache.System
	// TLBs are this core's translation buffers.
	TLBs *tlb.CoreTLBs
	// BTB is this core's branch target buffer.
	BTB *btb.BTB
	// P are the execution-cost constants.
	P Params

	// retired counts instructions retired on this core's pipeline (a nil
	// handle, the default, is a no-op).
	retired *metrics.Counter
}

// nameRetired is the retired-instruction counter's name, interned once.
var nameRetired = metrics.Intern("cpu_instructions_total")

// InstrumentMetrics wires the core's microarchitecture into a telemetry
// registry: a machine-wide retired-instruction counter plus the TLB and BTB
// counters (the cache system is instrumented once, by its owner).
func (c *Core) InstrumentMetrics(r *metrics.Registry) {
	c.retired = r.CounterOf(nameRetired)
	c.TLBs.InstrumentMetrics(r)
	c.BTB.InstrumentMetrics(r)
}

// ShareMetrics gives c, its TLBs and its BTB the handles peer's
// InstrumentMetrics resolved: the same wiring as instrumenting c into
// peer's registry, without a lookup. A machine resolves one core and
// shares its handles with the rest.
func (c *Core) ShareMetrics(peer *Core) {
	c.retired = peer.retired
	c.TLBs.ShareMetrics(peer.TLBs)
	c.BTB.ShareMetrics(peer.BTB)
}

// Reset returns the core's private microarchitecture (TLBs, BTB) to its
// freshly constructed state and detaches the metric handles; the shared
// cache system is reset once, by its owner. Machine pooling calls this
// between forks.
func (c *Core) Reset() {
	c.TLBs.Reset()
	c.BTB.Reset()
	c.P = DefaultParams
	c.retired = nil
}

// NewCore wires a core against the shared cache system.
func NewCore(id int, caches *cache.System) *Core {
	return &Core{
		ID:     id,
		Caches: caches,
		TLBs:   tlb.I9900KTLBs(),
		BTB:    btb.New(btb.DefaultConfig),
		P:      DefaultParams,
	}
}

// coldPenalty returns the warm-up cost of the ctx.Seq-th instruction of the
// current stint.
func (c *Core) coldPenalty(ctx *Context) int64 {
	if ctx.Seq >= c.P.ColdDecay {
		return 0
	}
	p := c.P.ColdPerInstr
	if ctx.Seq == 0 {
		p += c.P.ColdFirst
	}
	return p
}

// Exec executes one instruction in ctx and returns its cost in cycles,
// applying all microarchitectural side effects.
func (c *Core) Exec(ctx *Context, in isa.Inst) int64 {
	var cyc int64

	// Front end: translation, code fetch, warm-up.
	if ctx.UseITLB {
		cyc += c.TLBs.TranslateFetch(in.PC)
	}
	if ctx.FetchThroughCache {
		lat, _ := c.Caches.Fetch(c.ID, in.PC)
		// An L1I hit is pipelined away; only misses stall.
		if lat > c.Caches.Config().Lat.L1Hit {
			cyc += lat
		}
	}
	cyc += c.coldPenalty(ctx)

	// Execute.
	switch in.Kind {
	case isa.ALU:
		cyc += c.P.ALU
		c.BTB.UpdateNonBranch(in.PC)
	case isa.Nop:
		cyc += c.P.Nop
		c.BTB.UpdateNonBranch(in.PC)
	case isa.Load:
		if ctx.UseITLB {
			cyc += c.TLBs.TranslateData(in.Mem)
		}
		lat, _ := c.Caches.Load(c.ID, in.Mem)
		cyc += lat
		c.BTB.UpdateNonBranch(in.PC)
	case isa.Store:
		if ctx.UseITLB {
			cyc += c.TLBs.TranslateData(in.Mem)
		}
		lat, _ := c.Caches.Store(c.ID, in.Mem)
		cyc += lat + c.P.Store
		c.BTB.UpdateNonBranch(in.PC)
	case isa.Flush:
		c.Caches.Flush(in.Mem)
		cyc += c.P.Flush
	case isa.Fence:
		cyc += c.P.Fence
	case isa.Branch, isa.CondBranch:
		cyc += c.execBranch(in)
	}

	ctx.Seq++
	ctx.Retired++
	c.retired.Inc()
	return cyc
}

// PlainRun reports the plain run at the head of insts: the longest prefix
// of ALU instructions, or of Nop instructions, that ctx retires at one
// fixed cost. That excludes the first instruction of a stint (Seq == 0
// pays ColdFirst), contexts that translate or fetch instructions (their
// cost depends on TLB and cache state), and the warm-up boundary: a run
// that starts cold ends at ColdDecay. It returns the run's length and the
// cycles each of its instructions costs; n == 0 means insts[0] goes
// through Exec.
func (c *Core) PlainRun(ctx *Context, insts []isa.Inst) (n int, cyc int64) {
	if len(insts) == 0 || ctx.Seq == 0 || ctx.UseITLB || ctx.FetchThroughCache {
		return 0, 0
	}
	kind := insts[0].Kind
	switch kind {
	case isa.ALU:
		cyc = c.P.ALU
	case isa.Nop:
		cyc = c.P.Nop
	default:
		return 0, 0
	}
	limit := len(insts)
	if ctx.Seq < c.P.ColdDecay {
		cyc += c.P.ColdPerInstr
		if w := c.P.ColdDecay - ctx.Seq; w < int64(limit) {
			limit = int(w)
		}
	}
	for n < limit && insts[n].Kind == kind {
		n++
	}
	return n, cyc
}

// RetirePlain retires insts, a prefix of a PlainRun, with the side effects
// of as many Exec calls: the NightVision BTB update at each PC (skipped
// while the BTB table is unallocated, where it is a no-op) and the
// retirement counts.
func (c *Core) RetirePlain(ctx *Context, insts []isa.Inst) {
	if c.BTB.Allocated() {
		for i := range insts {
			c.BTB.UpdateNonBranch(insts[i].PC)
		}
	}
	k := int64(len(insts))
	ctx.Seq += k
	ctx.Retired += k
	c.retired.Add(k)
}

// execBranch resolves a control transfer against the BTB, applying the
// prefetch side effect the BTB Train+Probe gadget of Figure 5.3 measures.
func (c *Core) execBranch(in isa.Inst) int64 {
	predicted, hit := c.BTB.Lookup(in.PC)
	actual := in.NextPC()
	var cyc int64
	if hit {
		// The front end speculatively fetches the predicted target: this
		// is the instruction prefetch that pulls the target's line into
		// the cache hierarchy whether or not the prediction is correct.
		c.Caches.Prefetch(c.ID, predicted)
	}
	if hit && predicted == actual {
		cyc = c.P.BranchHit
	} else {
		cyc = c.P.BranchMiss
	}
	// Taken transfers (and unconditional branches) allocate/update the
	// entry; a not-taken conditional behaves like a non-branch for the
	// NightVision effect.
	if in.Kind == isa.Branch || in.Taken {
		c.BTB.UpdateBranch(in.PC, actual)
	} else {
		c.BTB.UpdateNonBranch(in.PC)
	}
	return cyc
}

// TimeLoad performs a timed data load on the core (the attacker's rdtscp /
// reload or probe primitive) and returns its latency in cycles. It has the
// same side effects as a normal load but charges no translation cost (the
// attacker's own pages are hot).
func (c *Core) TimeLoad(addr uint64) int64 {
	lat, _ := c.Caches.Load(c.ID, addr)
	return lat
}

// Flush removes addr's line coherence-wide (clflush).
func (c *Core) Flush(addr uint64) {
	c.Caches.Flush(addr)
}
