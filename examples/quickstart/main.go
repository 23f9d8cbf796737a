// Quickstart: build a simulated machine, colocate a Controlled Preemption
// attacker with a busy victim on one core, and nearly single step it —
// the paper's core primitive in ~60 lines.
package main

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

func main() {
	// A 16-core machine running the Linux CFS with the paper's tunables
	// (S_bnd=24ms, S_slack=12ms, S_preempt=4ms).
	sp := sched.DefaultParams(16)
	m := kern.NewMachine(kern.DefaultParams(16, func() sched.Scheduler { return cfs.New(sp) }))
	defer m.Shutdown()

	// The victim: an infinite loop of same-size instructions, pinned to
	// core 0 (see examples/colocation for getting there without pinning).
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))

	// Histogram the victim's instructions retired per preemption as each
	// preempted stint ends (the paper's eBPF instrumentation).
	h := stats.NewHist()
	m.AttachTracer(&ktrace.Follow{Thread: victim, OnStint: func(s ktrace.Stint) {
		if s.Reason == kern.OutPreemptedWakeup {
			h.Add(int(s.Retired))
		}
	}})

	// The attacker: hibernate once, then nap ε=2µs between 10µs
	// side-channel measurements until the fairness tripwire fires.
	attacker := core.NewAttacker(core.Config{
		Method:         core.MethodNanosleep,
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      100 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(10 * timebase.Microsecond) // your Flush+Reload goes here
			return true
		},
	})
	m.Spawn("attacker", attacker.Run, kern.WithPin(0))

	m.RunFor(2 * timebase.Second)

	st := attacker.Stats()
	fmt.Printf("preemption budget:   %v (S_slack − S_preempt)\n", sp.PreemptionBudget())
	fmt.Printf("expected preemptions: ~%d at ΔI≈10µs\n", sp.ExpectedPreemptions(10*timebase.Microsecond))
	fmt.Printf("achieved preemptions: %d in one burst\n", st.BurstLengths[0])

	fmt.Printf("\nvictim instructions retired per preemption (n=%d):\n%s", h.Total(), h)
}
