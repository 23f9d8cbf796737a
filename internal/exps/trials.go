package exps

import (
	"context"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
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

// trialResult is one trial's outcome: the Env it ran in, its value, and
// the panic it ended in, if any.
type trialResult[T any] struct {
	env      *Env
	v        T
	panicked bool
	val      any
}

// Trials runs trial(env_i, i) for i in [0, n) through the process's one
// ordered map (pool.Run) and returns the results in trial order: the
// calling goroutine runs trials, helpers join while the process-wide CPU
// budget has room. While a span context is enabled (obs.Ambient), the map
// runs on the caller alone, so machine-phase spans open in construction
// order.
//
// A trial that panics is recovered where it ran. The map commits results
// in trial order, merging each trial's sinks into env's; the first
// panicked result it commits — the lowest panicking index — is merged too,
// partial sinks included, and stops the map. Trials then re-panics on the
// caller with that trial's value. What the caller sees (the error, the
// telemetry, the partial trace) is what the serial loop would have left.
func Trials[T any](env *Env, n int, trial func(env *Env, i int) T) []T {
	width := n
	if obs.Ambient().Enabled() {
		width = 1
	}
	// A MachinePool is single-goroutine: each trial checks one out of a
	// set seeded with env's pool, so the caller's pool serves trials and a
	// helper that finds it taken starts one of its own.
	pools := NewPoolSet(nil)
	pools.Put(env.pool())
	out := make([]T, n)
	var failed *trialResult[T]
	_ = pool.Run(context.TODO(), width, n,
		func(_ context.Context, i int) (r trialResult[T]) {
			mp := pools.Get()
			defer pools.Put(mp)
			r.env = env.trialEnv(mp)
			r.panicked, r.val = guard(func() { r.v = trial(r.env, i) })
			return r
		},
		func(i int, r trialResult[T]) (bool, error) {
			env.merge(r.env)
			if r.panicked {
				failed = &r
				return true, nil
			}
			out[i] = r.v
			return false, nil
		}, nil)
	if failed != nil {
		panic(failed.val)
	}
	return out
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

// trialEnv derives one trial's Env from env: the same configuration, mp
// as its machine pool, and a fresh sink wherever env has one (registry,
// profiler, trace capture), for merge to fold back in trial order.
func (env *Env) trialEnv(mp *MachinePool) *Env {
	e := *env
	e.Pool = mp
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
