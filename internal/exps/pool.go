package exps

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Machine pooling: NewMachine costs ~a millisecond of arena carving and
// scheduler construction, and the trial-heavy experiments (ablation probes,
// colocation placements, matrix cells, fig4.4's Measures×Trials grid, one
// attack per key) build hundreds of machines that differ only by seed or
// by knobs init applies. Every Env acquires its machines through a
// MachinePool, which keeps one kern.Pool per shell *shape* and serves every
// request of that shape from it: a machine shut down by an earlier request
// is scrubbed and re-initialised under the new parameters, so the
// steady-state cost of "a fresh machine" drops to re-seeding RNG streams
// and re-resolving telemetry in place.
//
// Correctness rests on the kern.Pool contract: Get(p) runs the same init
// as kern.NewMachine(p) over a scrubbed shell, so it is byte-identical to
// it — same event stream, same RNG draws, same telemetry. Pooling is
// therefore invisible in results, traces and manifests; it only changes
// wall-clock time and memory.

// poolKey is a machine's shell shape: the inputs kern's buildShell reads
// (core count, cache geometry, and the scheduler — its kind and tunables).
// Every other kern.Params field is applied by init, so configurations that
// differ only there (fig5.2's SpecProb 0 victim machine and its default
// profiling machine, a fault or defense sweep) share one pool and one
// idle shell.
type poolKey struct {
	kind        Sched
	cores       int
	sched       sched.Params
	cacheConfig cache.SystemConfig
}

// keyOf builds the pool key of a machine configuration.
func keyOf(kind Sched, p kern.Params) poolKey {
	return poolKey{kind: kind, cores: p.Cores, sched: p.Sched, cacheConfig: p.CacheConfig}
}

// MachinePool keeps one kern.Pool per shell shape and hands out machines
// of any configuration of that shape. A MachinePool is single-goroutine,
// like the kern.Pools it wraps: give it to one Env at a time, and use a
// PoolSet to share warm pools across the goroutines of a parallel map.
type MachinePool struct {
	// pools maps shell shape → machine pool.
	pools map[poolKey]*kern.Pool
	// tel receives the pooling telemetry of a standalone pool after every
	// fork; pools in a PoolSet report through the set instead.
	tel poolTelemetry
	// reported is the activity already added to a registry.
	reported kern.PoolStats
}

// poolTelemetry holds the pooling instruments (kern_forks_total,
// kern_pool_hits/misses_total), resolved once. They live in the registry
// the pool was built with — deliberately never a machine's per-fork
// registry — so per-entry campaign registries stay free of pooling
// counters and manifests do not depend on which entries shared a pool.
type poolTelemetry struct {
	forks, hits, misses *metrics.Counter
}

func newPoolTelemetry(reg *metrics.Registry) poolTelemetry {
	return poolTelemetry{
		forks:  reg.Counter("kern_forks_total"),
		hits:   reg.Counter("kern_pool_hits_total"),
		misses: reg.Counter("kern_pool_misses_total"),
	}
}

// NewMachinePool returns an empty pool reporting into reg (nil disables the
// pooling telemetry).
func NewMachinePool(reg *metrics.Registry) *MachinePool {
	return &MachinePool{pools: map[poolKey]*kern.Pool{}, tel: newPoolTelemetry(reg)}
}

// get returns a machine for the fully resolved parameters from the pool of
// their shell shape, starting that pool on first use.
func (mp *MachinePool) get(kind Sched, p kern.Params) *kern.Machine {
	key := keyOf(kind, p)
	kp := mp.pools[key]
	if kp == nil {
		p.NewSched = newSched(kind, p.Sched)
		kp = kern.NewPool(p)
		mp.pools[key] = kp
	}
	m := kp.Get(p)
	if mp.tel.forks != nil {
		mp.report(&mp.tel)
	}
	return m
}

// report adds the pool's activity since the last report to tel.
func (mp *MachinePool) report(tel *poolTelemetry) {
	var now kern.PoolStats
	for _, kp := range mp.pools {
		s := kp.Stats()
		now.Forks += s.Forks
		now.Hits += s.Hits
		now.Misses += s.Misses
	}
	tel.forks.Add(now.Forks - mp.reported.Forks)
	tel.hits.Add(now.Hits - mp.reported.Hits)
	tel.misses.Add(now.Misses - mp.reported.Misses)
	mp.reported = now
}

// PoolSet shares MachinePools among the goroutines of a parallel map: the
// entries of a parallel campaign, or the trials of one Trials call. Each
// entry (or trial) checks one MachinePool out for its whole run (creating
// it on first use, up to one per concurrent worker) and checks it back in
// when it finishes — so pools migrate between goroutines but are only ever
// used by one at a time, and a width-N map converges on N warm pools whose
// free machines are reused for the rest of the run.
type PoolSet struct {
	mu   sync.Mutex
	tel  poolTelemetry
	free []*MachinePool
}

// NewPoolSet returns an empty set whose pools report into reg (nil disables
// pooling telemetry). Pools report at check-in, under the set's lock, so
// concurrent entries never touch the shared counters at once — hand the set
// the harness registry, never a per-entry one.
func NewPoolSet(reg *metrics.Registry) *PoolSet { return &PoolSet{tel: newPoolTelemetry(reg)} }

// Get checks a MachinePool out of the set for the caller's exclusive use.
func (ps *PoolSet) Get() *MachinePool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n := len(ps.free)
	if n == 0 {
		return NewMachinePool(nil)
	}
	mp := ps.free[n-1]
	ps.free[n-1] = nil
	ps.free = ps.free[:n-1]
	return mp
}

// Put checks mp — with its now-warm machines — back into the set and
// reports its pooling activity.
func (ps *PoolSet) Put(mp *MachinePool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.tel.forks != nil {
		mp.report(&ps.tel)
	}
	ps.free = append(ps.free, mp)
}
