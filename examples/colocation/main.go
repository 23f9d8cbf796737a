// Colocation (§4.4): land on the victim's logical core without privilege.
// The attacker pins N−1 compute dummies to N−1 cores; the scheduler places
// the newly invoked victim on the one idle core; the attacker pins its
// preemption thread there; with no idle cores left, the load balancer
// never migrates the victim away.
package main

import (
	"fmt"

	"repro/internal/colocate"
	"repro/internal/core"
	"repro/internal/exps"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

func main() {
	m := exps.NewMachine(exps.CFS, 99)
	defer m.Shutdown()
	m.StartBalancer()
	// Log the cores the victim runs on (the paper's eBPF instrumentation).
	var cores []int
	vf := &ktrace.Follow{OnCore: func(c int) { cores = append(cores, c) }}
	m.AttachTracer(vf)

	const target = 5 // reserve core 5 for the victim
	plan := colocate.Prepare(m, target)
	fmt.Printf("pinned %d dummy threads, leaving core %d idle\n", len(plan.Dummies), target)
	m.RunFor(5 * timebase.Millisecond)

	// Invoke the victim with no affinity at all: placement finds the idle
	// core.
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, vf.Bind())
	fmt.Printf("victim placed on core %d (landed on target: %v)\n",
		victim.CoreID(), plan.VictimLandedOnTarget(victim))

	// Pin the attacker to the same core and run one budget's worth of
	// preemptions while the balancer keeps running.
	a := core.NewAttacker(core.Config{
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      80 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(12 * timebase.Microsecond)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(plan.TargetCore))
	m.RunFor(300 * timebase.Millisecond)

	fmt.Printf("attack preemptions: %d\n", a.Stats().Preemptions)
	fmt.Printf("victim stayed on core %d the whole time: %v\n",
		target, plan.Stayed(cores))
}
