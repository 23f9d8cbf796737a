package exps

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// The trial map: most figures are folds over independent trials — one
// histogram per ε, one attack per key, a baseline probe and a variant
// probe — each on its own seeded machine. Trials runs them on the calling
// goroutine plus whatever helper goroutines the process has room for, and
// hands the results back in trial order, so a driver's reduction (float
// sums, "first trace" rows) is the serial loop's, bit for bit.
//
// Determinism rests on three rules the drivers keep:
//
//   - A trial's inputs are drawn before the map fans out, in the original
//     order: rng.Fork and Bytes advance the parent generator, so a trial
//     body never touches the experiment's RNG.
//   - A trial body reads only its arguments and writes only its result; it
//     builds its machines from the Env it is handed.
//   - Reduction happens after the map returns, over the results in order.
//
// Each trial gets a derived Env (trialEnv): the caller's configuration with
// fresh sinks, which are merged into the caller's — registry, profiler,
// trace capture — in trial order. So the caller's telemetry, profile and
// trace are what a serial run leaves, whichever goroutine ran which trial.

// helpers counts the trial-map helper goroutines running in the process.
// A map adds helpers only while the count is below GOMAXPROCS−1, so
// concurrent maps (a parallel campaign's entries, labd jobs) share the
// spare CPUs instead of oversubscribing them, and at GOMAXPROCS=1 every
// map runs on its caller alone.
var helpers atomic.Int32

// trialRun is one trial's bookkeeping: the Env it ran in and how it ended.
type trialRun struct {
	env *Env
	// done is set, after everything else, when the trial finished; it
	// publishes env, panicked and val to the caller.
	done     atomic.Bool
	panicked bool
	val      any
}

// Trials runs trial(env_i, i) for i in [0, n) and returns the results in
// trial order. The calling goroutine always runs trials itself; helper
// goroutines join while the process-wide helper count allows (see
// helpers). While a span context is enabled (obs.Ambient), the map runs
// on the caller alone, so machine-phase spans open in construction order.
//
// A trial that panics is recovered where it ran. The map stops starting
// trials, waits for the ones in flight, merges the sinks of every trial up
// to the lowest panicking index — that trial's partial sinks included —
// and re-panics on the caller with that trial's value. What the caller
// sees (the error, the telemetry, the partial trace) is what the serial
// loop would have left.
func Trials[T any](env *Env, n int, trial func(env *Env, i int) T) []T {
	// The caller's trials pool their machines in env's pool, installed
	// before any helper copies env (trialEnv).
	callerPool := env.pool()
	out := make([]T, n)
	runs := make([]trialRun, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func(pool *MachinePool, after func()) {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			r := &runs[i]
			r.env = env.trialEnv(pool)
			r.panicked, r.val = guard(func() { out[i] = trial(r.env, i) })
			if r.panicked {
				failed.Store(true)
			}
			r.done.Store(true)
			after()
		}
	}
	// merged counts the trials whose sinks are in env's; only the caller
	// touches it, and env's sinks.
	merged := 0
	mergeDone := func() {
		for merged < n && runs[merged].done.Load() && !runs[merged].panicked {
			env.merge(runs[merged].env)
			runs[merged].env = nil
			merged++
		}
	}

	var wg sync.WaitGroup
	if !obs.Ambient().Enabled() {
		limit := int32(runtime.GOMAXPROCS(0) - 1)
		for h := 1; h < n && reserveHelper(limit); h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer helpers.Add(-1)
				// A MachinePool is single-goroutine: a helper pools its
				// machines in one of its own for the duration of the map.
				work(NewMachinePool(nil), func() {})
			}()
		}
	}
	work(callerPool, mergeDone)
	wg.Wait()
	mergeDone()
	if merged < n {
		// The lowest panicking trial: every trial before it was started
		// earlier and has been merged; none after it is.
		r := &runs[merged]
		env.merge(r.env)
		panic(r.val)
	}
	return out
}

// reserveHelper takes one helper slot if fewer than limit are in use.
func reserveHelper(limit int32) bool {
	for {
		n := helpers.Load()
		if n >= limit {
			return false
		}
		if helpers.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// guard runs f and reports whether it panicked, with the panic's value.
func guard(f func()) (panicked bool, val any) {
	defer func() {
		if panicked {
			val = recover()
		}
	}()
	panicked = true
	f()
	return false, nil
}

// trialEnv derives one trial's Env from env: the same configuration, pool
// as its machine pool, and a fresh sink wherever env has one (registry,
// profiler, trace capture), for merge to fold back in trial order.
func (env *Env) trialEnv(pool *MachinePool) *Env {
	e := *env
	e.Pool = pool
	if env.Metrics != nil {
		e.Metrics = metrics.New()
	}
	if env.Profiler != nil {
		e.Profiler = metrics.NewProfiler()
	}
	if env.Trace != nil {
		e.Trace = NewTraceCapture(env.Trace.max)
	}
	return &e
}

// merge folds the sinks of sub, an Env trialEnv derived from env, into
// env's.
func (env *Env) merge(sub *Env) {
	env.Metrics.Merge(sub.Metrics)
	env.Profiler.Merge(sub.Profiler)
	if env.Trace != nil {
		env.Trace.machines = append(env.Trace.machines, sub.Trace.machines...)
	}
}
