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
	res := &ColoResult{Config: cfg, Trials: cfg.Trials}
	for _, t := range Trials(env, cfg.Trials, func(env *Env, trial int) coloTrial {
		return runColoTrial(env, cfg.Seed+uint64(trial)*7919, trial, func(e *kern.Env) {
			e.RunLoopForever(loopvictim.DefaultBody())
		})
	}) {
		if t.landed {
			res.Landed++
		}
		if t.stayed {
			res.Stayed++
		}
		res.PreemptionsPerTrial = append(res.PreemptionsPerTrial, t.preemptions)
	}
	return res
}

// coloTrial is one colocation attempt's outcome.
type coloTrial struct {
	landed, stayed bool
	preemptions    int64
}

// runColoTrial reserves core trial%Cores, places an unpinned victim
// running body and attacks it from the reserved core.
func runColoTrial(env *Env, seed uint64, trial int, body kern.Func) coloTrial {
	m := env.NewMachine(CFS, seed)
	defer m.Shutdown()
	m.StartBalancer()
	var cores []int
	vf := &ktrace.Follow{OnCore: func(c int) { cores = append(cores, c) }}
	m.AttachTracer(vf)

	target := trial % Cores // reserve a different core each trial
	plan := colocate.Prepare(m, target)
	m.RunFor(5 * timebase.Millisecond)

	// Invoke the (unpinned!) victim: placement picks the idle core.
	victim := m.Spawn("victim", body, vf.Bind())
	out := coloTrial{landed: plan.VictimLandedOnTarget(victim)}
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

	out.stayed = plan.Stayed(cores)
	out.preemptions = a.Stats().Preemptions
	return out
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
