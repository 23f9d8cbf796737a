package kern

import (
	"repro/internal/sched"
)

// Pool is a free-pool of machines of one shell shape: the inputs
// buildShell reads — core count, cache geometry and the per-core scheduler
// (the pool's NewSched, with the tunables Sched). Get completes a machine
// shell — one that Shutdown scrubbed and parked here, or a new one on a
// miss — with the same init NewMachine runs, under the requested
// parameters, so a pooled machine is byte-identical to a freshly built
// one. init applies
// every other parameter (timing, speculation, noise, faults, defense,
// invariant stride, seed, telemetry sinks), so one pool serves every
// configuration of its shape. In steady state a Get+Run+Shutdown cycle
// reuses the event arena, runqueue nodes, cache/TLB slabs, telemetry block
// and flight ring of earlier cycles: the warm path allocates nothing.
//
// A Pool is single-goroutine, like the machines it manages: concurrent
// campaign entries and trial helpers each check a pool of their own out
// of an exps.PoolSet.
type Pool struct {
	// shape holds the normalized shell inputs; its other fields are zero.
	shape Params
	free  []*Machine
	stats PoolStats
}

// PoolStats counts a pool's activity: Forks machines handed out, split by
// whether pooled memory was reused (Hits) or a shell was built (Misses).
// They are plain counts, not registry instruments, so the owner decides
// when (and under which lock) to publish them.
type PoolStats struct {
	Forks, Hits, Misses int64
}

// NewPool returns an empty pool of machines shaped like p: only p's
// Cores, CacheConfig, Sched and NewSched are kept. Like NewMachine on a
// nil NewSched, it panics when p.NewSched builds a scheduler without
// sched.Resetter: Shutdown could not scrub its runqueues for reuse.
func NewPool(p Params) *Pool {
	p = normalizeParams(p)
	if _, ok := p.NewSched().(sched.Resetter); !ok {
		panic("kern: a pooled machine's scheduler must implement sched.Resetter")
	}
	return &Pool{shape: Params{Cores: p.Cores, CacheConfig: p.CacheConfig, Sched: p.Sched, NewSched: p.NewSched}}
}

// Stats returns the pool's activity so far.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// Idle returns how many scrubbed machines are parked in the pool.
func (pl *Pool) Idle() int { return len(pl.free) }

// Get returns a machine equal to NewMachine(p), its runqueues built by the
// pool's scheduler constructor in place of p.NewSched. It panics when p's
// shell inputs (Cores, CacheConfig, Sched) differ from the pool's, since
// no shell of this pool is that machine. Shutdown returns it here.
func (pl *Pool) Get(p Params) *Machine {
	p.NewSched = pl.shape.NewSched
	p = normalizeParams(p)
	if p.Cores != pl.shape.Cores || p.CacheConfig != pl.shape.CacheConfig || p.Sched != pl.shape.Sched {
		panic("kern: Pool.Get with parameters of another shell shape")
	}
	var m *Machine
	if n := len(pl.free); n > 0 {
		m = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		m.inPool = false
		pl.stats.Hits++
	} else {
		m = buildShell(pl.shape)
		m.pool = pl
		pl.stats.Misses++
	}
	m.init(p)
	pl.stats.Forks++
	return m
}

// put files a scrubbed machine for reuse (called by Machine.Shutdown).
func (pl *Pool) put(m *Machine) { pl.free = append(pl.free, m) }
