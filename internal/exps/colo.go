package exps

import (
	"fmt"
	"strings"

	"repro/internal/colocate"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// ColoConfig tunes the colocation experiment.
type ColoConfig struct {
	// Trials repeats the whole placement with different seeds.
	Trials int
	Seed   uint64
}

// ColoResult summarizes §4.4's technique.
type ColoResult struct {
	Config ColoConfig
	// Landed counts trials where the victim was placed on the reserved
	// idle core.
	Landed int
	// Stayed counts trials where the victim never migrated away during
	// the attack.
	Stayed int
	// PreemptionsPerTrial is the attack yield per trial on the colocated
	// core.
	PreemptionsPerTrial []int64
	Trials              int
}

// RunColo reproduces the §4.4 colocation technique on the full 16-core
// machine: 15 pinned dummies, an unpinned victim that lands on the idle
// core, the attacker pinned there afterwards, and the load balancer left
// running to show the victim stays put.
func RunColo(env *Env, cfg ColoConfig) *ColoResult {
	if cfg.Trials <= 0 {
		cfg.Trials = 10
	}
	// Every trial's machine shares one configuration: serve them all from
	// one machine pool instead of booting 16 cores per trial.
	env = env.withTrialPool()
	res := &ColoResult{Config: cfg, Trials: cfg.Trials}
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + uint64(trial)*7919
		m := env.NewMachine(CFS, seed)
		m.StartBalancer()
		rec := ktrace.NewRecorder()
		m.AttachTracer(rec)

		target := trial % Cores // reserve a different core each trial
		plan := colocate.Prepare(m, target)
		m.RunFor(5 * timebase.Millisecond)

		// Invoke the (unpinned!) victim: placement picks the idle core.
		victim := m.Spawn("victim", func(e *kern.Env) {
			e.RunLoopForever(loopvictim.DefaultBody())
		})
		if plan.VictimLandedOnTarget(victim) {
			res.Landed++
		}
		// Pin the attacker to the target core and attack.
		a := core.NewAttacker(core.Config{
			Epsilon:        2 * timebase.Microsecond,
			Hibernate:      60 * timebase.Millisecond,
			StopAfterBurst: true,
			Measure: func(e *kern.Env, s core.Sample) bool {
				e.Burn(12 * timebase.Microsecond)
				return true
			},
		})
		m.Spawn("attacker", a.Run, kern.WithPin(plan.TargetCore))
		m.RunFor(200 * timebase.Millisecond)

		if plan.Stayed(rec.CoreLog[victim.ID()]) {
			res.Stayed++
		}
		res.PreemptionsPerTrial = append(res.PreemptionsPerTrial, a.Stats().Preemptions)
		m.Shutdown()
	}
	return res
}

// String renders the outcome.
func (r *ColoResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.4 — core colocation via load balancing (%d cores, %d trials)\n", Cores, r.Trials)
	fmt.Fprintf(&b, "  victim landed on reserved idle core: %d/%d\n", r.Landed, r.Trials)
	fmt.Fprintf(&b, "  victim never migrated during attack: %d/%d\n", r.Stayed, r.Trials)
	var minP int64 = 1 << 62
	for _, p := range r.PreemptionsPerTrial {
		if p < minP {
			minP = p
		}
	}
	fmt.Fprintf(&b, "  attack preemptions per trial (min): %d\n", minP)
	return b.String()
}
