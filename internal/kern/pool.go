package kern

import (
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Pool is a free-pool of machines of one configuration. Get completes a
// machine shell — one that Shutdown scrubbed and parked here, or a new one
// on a miss — with the same init NewMachine runs, under the requested seed
// and telemetry sinks, so a pooled machine is byte-identical to a freshly
// built one. In steady state a Get+Run+Shutdown cycle reuses the event
// arena, runqueue nodes, cache/TLB slabs, telemetry block and flight ring
// of earlier cycles: the warm path allocates nothing.
//
// A Pool is single-goroutine, like the machines it manages: parallel
// campaign workers each keep their own pool (see exps.PoolSet).
type Pool struct {
	p     Params
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

// NewPool returns an empty pool of machines built from p; p's seed and
// telemetry sinks are ignored, since each Get supplies its own. Like
// NewMachine on a nil NewSched, it panics when p.NewSched builds a
// scheduler without sched.Resetter: Shutdown could not scrub its
// runqueues for reuse.
func NewPool(p Params) *Pool {
	p = normalizeParams(p)
	if _, ok := p.NewSched().(sched.Resetter); !ok {
		panic("kern: a pooled machine's scheduler must implement sched.Resetter")
	}
	p.Seed, p.Metrics, p.Profiler = 0, nil, nil
	return &Pool{p: p}
}

// Stats returns the pool's activity so far.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// Idle returns how many scrubbed machines are parked in the pool.
func (pl *Pool) Idle() int { return len(pl.free) }

// Get returns a machine equal to NewMachine of the pool's parameters under
// seed, reporting into reg and prof (either may be nil). Shutdown returns
// it here.
func (pl *Pool) Get(seed uint64, reg *metrics.Registry, prof *metrics.Profiler) *Machine {
	var m *Machine
	if n := len(pl.free); n > 0 {
		m = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		m.inPool = false
		pl.stats.Hits++
	} else {
		m = buildShell(pl.p)
		m.pool = pl
		pl.stats.Misses++
	}
	p := pl.p
	p.Seed, p.Metrics, p.Profiler = seed, reg, prof
	m.init(p)
	pl.stats.Forks++
	return m
}

// put files a scrubbed machine for reuse (called by Machine.Shutdown).
func (pl *Pool) put(m *Machine) { pl.free = append(pl.free, m) }
