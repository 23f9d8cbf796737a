package exps

import (
	"fmt"
	"sync"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Machine pooling: NewMachine costs ~a millisecond of arena carving and
// scheduler construction, and the trial-heavy experiments (ablation probes,
// colocation placements, matrix cells, fig4.4's Measures×Trials grid) build
// hundreds of machines that differ only by seed. A MachinePool keeps one
// kern.Pool per machine *configuration* and serves every request for that
// configuration from it: a machine shut down by an earlier request is
// scrubbed and re-initialised under the new seed, so the steady-state cost
// of "a fresh machine" drops to re-seeding RNG streams and re-resolving
// telemetry in place.
//
// Correctness rests on the kern.Pool contract: Get under seed S runs the
// same init as kern.NewMachine with seed S over a scrubbed shell, so it is
// byte-identical to it — same event stream, same RNG draws, same
// telemetry. Pooling is therefore invisible in results, traces and
// manifests; it only changes wall-clock time.

// poolKey is the comparable form of a machine configuration: a copy of
// every kern.Params field except the seed (the fork axis), NewSched
// (rebuilt per pool from kind and Sched) and the per-fork Metrics and
// Profiler sinks, which each fork resolves anew. The slice-valued fault
// and defense knobs are canonicalized into slices only when one is
// non-empty, so the common path formats nothing. Two configurations share
// a key iff a machine built for one serves the other, so per-iteration
// parameter mutation in a trial loop can never silently reuse the old
// configuration's machines — it misses the cache and starts its own pool.
type poolKey struct {
	kind                  Sched
	cores                 int
	clock                 timebase.Clock
	sched                 sched.Params
	switchCost            timebase.Duration
	switchJitter          timebase.Duration
	timerIRQLat           timebase.Duration
	timerIRQJitter        timebase.Duration
	timerSlackDefault     timebase.Duration
	syscallEntry          timebase.Duration
	signalDeliver         timebase.Duration
	interruptCost         timebase.Duration
	timestampCycles       int64
	tickPeriod            timebase.Duration
	balancePeriod         timebase.Duration
	wellSleptMin          timebase.Duration
	specWindow            int
	specProb              float64
	noiseEvictionsPerWake float64
	cacheConfig           cache.SystemConfig
	faultRate             float64
	faultWindow           fault.Window
	faultCheckPeriod      timebase.Duration
	faultIRQDelayMax      timebase.Duration
	faultSlackSpikeMax    timebase.Duration
	faultDropRetry        timebase.Duration
	slackRandMax          timebase.Duration
	periodicJitterMax     timebase.Duration
	wakeNoiseProb         float64
	preemptCap            int
	preemptWindow         timebase.Duration
	invariantStride       int
	slices                string
}

// keyOf builds the pool key of a machine configuration.
func keyOf(kind Sched, p kern.Params) poolKey {
	f, d := p.Faults, p.Defense
	k := poolKey{
		kind:                  kind,
		cores:                 p.Cores,
		clock:                 p.Clock,
		sched:                 p.Sched,
		switchCost:            p.SwitchCost,
		switchJitter:          p.SwitchJitter,
		timerIRQLat:           p.TimerIRQLat,
		timerIRQJitter:        p.TimerIRQJitter,
		timerSlackDefault:     p.TimerSlackDefault,
		syscallEntry:          p.SyscallEntry,
		signalDeliver:         p.SignalDeliver,
		interruptCost:         p.InterruptCost,
		timestampCycles:       p.TimestampCycles,
		tickPeriod:            p.TickPeriod,
		balancePeriod:         p.BalancePeriod,
		wellSleptMin:          p.WellSleptMin,
		specWindow:            p.SpecWindow,
		specProb:              p.SpecProb,
		noiseEvictionsPerWake: p.NoiseEvictionsPerWake,
		cacheConfig:           p.CacheConfig,
		faultRate:             f.Rate,
		faultWindow:           f.Window,
		faultCheckPeriod:      f.CheckPeriod,
		faultIRQDelayMax:      f.IRQDelayMax,
		faultSlackSpikeMax:    f.SlackSpikeMax,
		faultDropRetry:        f.DropRetry,
		slackRandMax:          d.SlackRandMax,
		periodicJitterMax:     d.PeriodicJitterMax,
		wakeNoiseProb:         d.WakeNoiseProb,
		preemptCap:            d.PreemptCap,
		preemptWindow:         d.PreemptWindow,
		invariantStride:       p.InvariantStride,
	}
	if len(f.Kinds) > 0 || len(d.CordonCores) > 0 || len(d.CordonAllow) > 0 {
		k.slices = fmt.Sprintf("%v|%v|%q", f.Kinds, d.CordonCores, d.CordonAllow)
	}
	return k
}

// MachinePool keeps one kern.Pool per machine configuration and hands out
// seeded forks. A MachinePool is single-goroutine, like the kern.Pools
// it wraps: give it to one Env at a time, and use a PoolSet to share warm
// pools across the sequential entries of a parallel campaign.
type MachinePool struct {
	// pools maps configuration → machine pool.
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
// counters and manifests are byte-identical whether pooling is on or off.
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

// get returns a machine for the fully resolved parameters from the
// configuration's pool, starting that pool on first use.
func (mp *MachinePool) get(kind Sched, p kern.Params) *kern.Machine {
	key := keyOf(kind, p)
	kp := mp.pools[key]
	if kp == nil {
		p.NewSched = newSched(kind, p.Sched)
		kp = kern.NewPool(p)
		mp.pools[key] = kp
	}
	m := kp.Get(p.Seed, p.Metrics, p.Profiler)
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

// PoolSet shares MachinePools across the goroutine-per-entry structure of a
// parallel campaign. Each entry checks one MachinePool out for its whole
// run (creating it on first use, up to one per concurrent worker) and
// checks it back in when it finishes — so pools migrate between entry
// goroutines but are only ever used by one at a time, and a width-N
// campaign converges on N warm pools whose free machines are reused for
// the rest of the plan.
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
