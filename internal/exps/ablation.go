package exps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// AblationResult compares the attack under a configuration change against
// the baseline.
type AblationResult struct {
	Name string
	// BaselineBurst and VariantBurst are consecutive-preemption medians.
	BaselineBurst, VariantBurst int64
	// BaselineStep and VariantStep are median victim instructions per
	// attacker interleave (temporal resolution; lower is better for the
	// attacker).
	BaselineStep, VariantStep int64
	Note                      string
}

// String renders the comparison.
func (r *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ablation — %s\n", r.Name)
	fmt.Fprintf(&b, "  burst (median preemptions): baseline %d → variant %d\n", r.BaselineBurst, r.VariantBurst)
	fmt.Fprintf(&b, "  victim instrs/interleave (median): baseline %d → variant %d\n", r.BaselineStep, r.VariantStep)
	if r.Note != "" {
		fmt.Fprintf(&b, "  %s\n", r.Note)
	}
	return b.String()
}

// ablationAttack is the fixed probe attack: 3 bursts, ε=2µs, 12µs
// measurement. timerSlack > 1 models an attacker that skipped the
// PR_SET_TIMERSLACK step.
func ablationAttack(timerSlack timebase.Duration) kern.Func {
	return func(e *kern.Env) {
		if timerSlack > 1 {
			e.SetTimerSlack(timerSlack)
		} else {
			e.SetTimerSlack(1)
		}
		for burst := 0; burst < 3; burst++ {
			e.Nanosleep(70 * timebase.Millisecond)
			for {
				e.Nanosleep(2 * timebase.Microsecond)
				if !e.Thread().LastWakePreempted() {
					break
				}
				e.Burn(12 * timebase.Microsecond)
			}
		}
	}
}

// ablationProbe runs the probe attack against a machine configuration and
// reports (median burst length, median victim instructions per attacker
// interleave).
func ablationProbe(env *Env, seed uint64, slack timebase.Duration, opts ...MachineOption) (int64, int64) {
	m := env.NewMachine(CFS, seed, opts...)
	defer m.Shutdown()
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)
	att := m.Spawn("attacker", ablationAttack(slack), kern.WithPin(0))
	m.RunFor(2 * timebase.Second)

	// Burst = attacker's successful-preemption runs; steps = victim
	// instructions retired between attacker interleaves (any sched-out
	// reason — with wakeup preemption disabled the interleave only
	// happens at tick preemptions, and the resolution collapses).
	bursts := rec.PreemptionBursts(att)
	var steps []int64
	for _, st := range rec.Stints {
		if st.Thread == victim && st.End.Sub(st.Start) < 60*timebase.Millisecond {
			steps = append(steps, st.Retired)
		}
	}
	return stats.MedianInt64(bursts), stats.MedianInt64(steps)
}

// RunAblationNoWakeupPreemption evaluates the Linux security team's
// recommended mitigation (Chapter 6): with NO_WAKEUP_PREEMPTION the waking
// attacker cannot preempt the victim mid-slice and the attack collapses.
func RunAblationNoWakeupPreemption(env *Env, seed uint64) *AblationResult {
	env = env.withTrialPool()
	bb, bs := ablationProbe(env, seed, 0)
	vb, vs := ablationProbe(env, seed+1, 0, WithSchedParams(func(sp *sched.Params) {
		sp.WakeupPreemption = false
	}))
	return &AblationResult{
		Name:          "NO_WAKEUP_PREEMPTION (Chapter 6 mitigation)",
		BaselineBurst: bb, VariantBurst: vb,
		BaselineStep: bs, VariantStep: vs,
		Note: "with the mitigation the attacker only runs at Scenario-1 slice boundaries: zero wakeup preemptions, million-instruction resolution",
	}
}

// RunAblationGentleFairSleepers evaluates GENTLE_FAIR_SLEEPERS off
// (S_slack = S_bnd = 24ms instead of 12ms): the preemption budget grows
// from 8ms to 20ms, ~2.5× more preemptions per hibernation.
func RunAblationGentleFairSleepers(env *Env, seed uint64) *AblationResult {
	env = env.withTrialPool()
	bb, bs := ablationProbe(env, seed, 0)
	vb, vs := ablationProbe(env, seed+1, 0, WithSchedParams(func(sp *sched.Params) {
		sp.GentleFairSleepers = false
	}))
	return &AblationResult{
		Name:          "GENTLE_FAIR_SLEEPERS off (S_slack = S_bnd)",
		BaselineBurst: bb, VariantBurst: vb,
		BaselineStep: bs, VariantStep: vs,
		Note: "sleeper credit doubles: budget grows from S_bnd/2−S_preempt=8ms to S_bnd−S_preempt=20ms (≈2.5× preemptions)",
	}
}

// RunAblationDefaultTimerSlack evaluates skipping the PR_SET_TIMERSLACK
// step of §4.2: with the default 50µs slack, wake-up times smear across
// tens of microseconds and temporal resolution is destroyed.
func RunAblationDefaultTimerSlack(env *Env, seed uint64) *AblationResult {
	env = env.withTrialPool()
	bb, bs := ablationProbe(env, seed, 0)
	vb, vs := ablationProbe(env, seed+1, 50*timebase.Microsecond)
	return &AblationResult{
		Name:          "default timer slack (no PR_SET_TIMERSLACK)",
		BaselineBurst: bb, VariantBurst: vb,
		BaselineStep: bs, VariantStep: vs,
		Note: "the 50µs default slack turns ε into ε+U[0,50µs]: preemptions still land but the victim runs far longer per step",
	}
}

// RunAblationRoundRobin contrasts the single-thread budget against the
// §4.3 round-robin extension for an attack needing more preemptions than
// one budget holds.
func RunAblationRoundRobin(env *Env, seed uint64, target int) *AblationResult {
	if target <= 0 {
		target = 2500
	}
	env = env.withTrialPool()
	// Single thread: bursts with re-hibernation gaps.
	m1 := env.NewMachine(CFS, seed)
	m1.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	a := core.NewAttacker(core.Config{
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      70 * timebase.Millisecond,
		MaxPreemptions: target,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(12 * timebase.Microsecond)
			return true
		},
	})
	m1.Spawn("attacker", a.Run, kern.WithPin(0))
	start1 := m1.Now()
	var end1 timebase.Time
	m1.Run(m1.Now().Add(30*timebase.Second), func() bool {
		if a.Stats().Preemptions >= int64(target) {
			end1 = m1.Now()
			return true
		}
		return false
	})
	m1.Shutdown()

	// Round-robin with 8 threads: continuous.
	m2 := env.NewMachine(CFS, seed+1)
	m2.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	rr := core.NewRoundRobin(core.Config{
		Epsilon:   2 * timebase.Microsecond,
		Hibernate: 70 * timebase.Millisecond,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(12 * timebase.Microsecond)
			return s.Index < target-1
		},
	}, 8)
	rr.SpawnAll(m2, 0)
	start2 := m2.Now()
	var end2 timebase.Time
	m2.Run(m2.Now().Add(30*timebase.Second), func() bool {
		if rr.Preemptions() >= int64(target) {
			end2 = m2.Now()
			return true
		}
		return false
	})
	m2.Shutdown()

	return &AblationResult{
		Name:          fmt.Sprintf("round-robin budget extension (%d preemptions)", target),
		BaselineBurst: int64(end1.Sub(start1) / timebase.Millisecond),
		VariantBurst:  int64(end2.Sub(start2) / timebase.Millisecond),
		Note:          "burst columns here are total attack time in ms: single-thread pays a hibernation per budget, round-robin hands off without gaps",
	}
}
