package exps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// Fig11Config tunes the prior-work comparison.
type Fig11Config struct {
	// PriorThreads is the thread count of the recharge-style baseline
	// (the prior AES attack used 40).
	PriorThreads int
	// Target is the number of fine-grain preemptions the attack needs.
	Target int
	Seed   uint64
}

// Fig11Result contrasts the two userspace techniques of Figure 1.1.
type Fig11Result struct {
	Config Fig11Config
	// PriorBursts are the baseline's consecutive-preemption bursts
	// (length ≈ thread count, separated by cooldown gaps).
	PriorBursts []int64
	// PriorDuration is how long the baseline took to reach the target.
	PriorDuration timebase.Duration
	// CPBurst is Controlled Preemption's single-thread consecutive burst.
	CPBurst int64
	// CPDuration is how long Controlled Preemption took (single thread,
	// re-hibernating as needed).
	CPDuration timebase.Duration
	// CPThreads is always 1.
	CPThreads int
}

// RunFig11 reproduces Figure 1.1's contrast: prior userspace attacks
// spend one preemption per thread wake and must recharge for S_bnd-scale
// time, so sustained fine-grain preemption needs many threads; Controlled
// Preemption gets hundreds of preemptions from one thread per hibernation.
func RunFig11(env *Env, cfg Fig11Config) *Fig11Result {
	if cfg.PriorThreads <= 0 {
		cfg.PriorThreads = 40
	}
	if cfg.Target <= 0 {
		cfg.Target = 400
	}
	// The two attacks are two trials: the baseline fills the prior-work
	// fields, Controlled Preemption the CP ones.
	parts := Trials(env, 2, func(env *Env, i int) Fig11Result {
		if i == 0 {
			return runPriorRecharge(env, cfg)
		}
		return runControlledPreemption(env, cfg)
	})
	return &Fig11Result{
		Config:        cfg,
		PriorBursts:   parts[0].PriorBursts,
		PriorDuration: parts[0].PriorDuration,
		CPBurst:       parts[1].CPBurst,
		CPDuration:    parts[1].CPDuration,
		CPThreads:     1,
	}
}

// runPriorRecharge runs the baseline: recharge-style rotation.
func runPriorRecharge(env *Env, cfg Fig11Config) (res Fig11Result) {
	m := env.NewMachine(CFS, cfg.Seed)
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	ra := &core.RechargeAttack{
		Threads:        cfg.PriorThreads,
		Cooldown:       30 * timebase.Millisecond,
		MaxPreemptions: cfg.Target,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(10 * timebase.Microsecond)
			return true
		},
	}
	ra.SpawnAll(m, 0)
	start := m.Now()
	m.Run(m.Now().Add(60*timebase.Second), func() bool {
		return len(ra.PreemptTimes()) >= cfg.Target
	})
	ts := ra.PreemptTimes()
	if len(ts) > 0 {
		res.PriorDuration = ts[len(ts)-1].Sub(start)
	}
	res.PriorBursts = core.BurstsFromTimes(ts, timebase.Millisecond)
	return res
}

// runControlledPreemption runs Controlled Preemption: one thread.
func runControlledPreemption(env *Env, cfg Fig11Config) (res Fig11Result) {
	m := env.NewMachine(CFS, cfg.Seed+1)
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	a := core.NewAttacker(core.Config{
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      70 * timebase.Millisecond,
		MaxPreemptions: cfg.Target,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(10 * timebase.Microsecond)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	start := m.Now()
	var end timebase.Time
	m.Run(m.Now().Add(60*timebase.Second), func() bool {
		if a.Stats().Preemptions >= int64(cfg.Target) {
			end = m.Now()
			return true
		}
		return false
	})
	res.CPDuration = end.Sub(start)
	if len(a.Stats().BurstLengths) > 0 {
		res.CPBurst = a.Stats().BurstLengths[0]
	} else {
		res.CPBurst = a.Stats().Preemptions
	}
	return res
}

// MaxPriorBurst returns the baseline's longest consecutive run.
func (r *Fig11Result) MaxPriorBurst() int64 {
	var max int64
	for _, b := range r.PriorBursts {
		if b > max {
			max = b
		}
	}
	return max
}

// String renders the comparison.
func (r *Fig11Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig1.1 — %d fine-grain preemptions: prior userspace technique vs Controlled Preemption\n", r.Config.Target)
	fmt.Fprintf(&b, "  prior (recharging, %d threads): bursts of ≤%d preemptions, total %s\n",
		r.Config.PriorThreads, r.MaxPriorBurst(), r.PriorDuration)
	fmt.Fprintf(&b, "  Controlled Preemption (1 thread): bursts of %d preemptions, total %s\n",
		r.CPBurst, r.CPDuration)
	return b.String()
}
