package exps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// Fig41Result is the vruntime walk of one Controlled Preemption burst: the
// attacker placed S_slack behind the victim at hibernation wake, the gap Δ
// shrinking by ΔI per nap, and the budget ending once Δ ≤ S_preempt
// (Figure 4.1's (a)-(e)).
type Fig41Result struct {
	// Samples are (time, Δ=τ_victim−τ_attacker) pairs at attacker wakes.
	Times  []timebase.Time
	Deltas []timebase.Duration
	// SlackAtWake is Δ at the first preemption (expected S_slack).
	SlackAtWake timebase.Duration
	// DeltaAtFailure is Δ at the failed wake (expected ≤ S_preempt).
	DeltaAtFailure timebase.Duration
	Preemptions    int64
}

// RunFig41 reproduces Figure 4.1 as a measured trace.
func RunFig41(env *Env, seed uint64) *Fig41Result {
	m := env.NewMachine(CFS, seed)
	defer m.Shutdown()
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	res := &Fig41Result{}
	// Δ as the failed Equation 2.2 check saw it.
	failed := false
	att := &ktrace.Follow{OnWake: func(w ktrace.WakeRec) {
		if !w.Preempted && !failed {
			failed = true
			res.DeltaAtFailure = timebase.Duration(w.CurrVruntime - w.WokenVruntime)
		}
	}}
	m.AttachTracer(att)
	a := core.NewAttacker(core.Config{
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      70 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(15 * timebase.Microsecond)
			d := timebase.Duration(victim.Task().Vruntime - e.Thread().Task().Vruntime)
			res.Times = append(res.Times, e.Now())
			res.Deltas = append(res.Deltas, d)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0), att.Bind())
	m.RunFor(3 * timebase.Second)

	res.Preemptions = a.Stats().Preemptions
	if len(res.Deltas) > 0 {
		res.SlackAtWake = res.Deltas[0]
	}
	return res
}

// String renders a sampled walk.
func (r *Fig41Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig4.1 — vruntime gap Δ = τ_victim − τ_attacker over one budget\n")
	fmt.Fprintf(&b, "  Δ at hibernation wake: %s (S_slack = 12ms)\n", r.SlackAtWake)
	fmt.Fprintf(&b, "  preemptions until tripwire: %d\n", r.Preemptions)
	fmt.Fprintf(&b, "  Δ at failed preemption:  %s (S_preempt = 4ms)\n", r.DeltaAtFailure)
	step := len(r.Deltas) / 12
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(r.Deltas); i += step {
		bar := int(r.Deltas[i] / (400 * timebase.Microsecond))
		if bar < 0 {
			bar = 0
		}
		fmt.Fprintf(&b, "  nap %5d  Δ=%-9s |%s\n", i, r.Deltas[i], strings.Repeat("=", bar))
	}
	return b.String()
}
