package exps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// ChaosConfig tunes the chaos experiment.
type ChaosConfig struct {
	// Rates is the fault-rate sweep; nil selects the default
	// {0, 0.02, 0.05, 0.1, 0.2}.
	Rates []float64
	// Target is the number of preemption samples the attacker tries to
	// collect per rate.
	Target int
	// Budget is the simulated-time watchdog allowance per rate.
	Budget timebase.Duration
	// Seed drives jitter and injection.
	Seed uint64
}

// ChaosRow is one fault rate's outcome.
type ChaosRow struct {
	// Rate is the per-opportunity injection probability.
	Rate float64
	// Collected is how many preemption samples the attacker got (of
	// Target).
	Collected int
	// SuccessRate is Collected over Target.
	SuccessRate float64
	// Confidence is the attacker's final preemption confidence.
	Confidence float64
	// Preemptions, FailedWakes and Attempts come from the robust attacker's
	// retry loop.
	Preemptions int64
	FailedWakes int64
	Attempts    int
	// Degraded marks a run whose retry budget ran out.
	Degraded bool
	// TimedOut marks a run stopped by the simulated-time watchdog.
	TimedOut bool
	// Faults is how many faults were actually injected.
	Faults int64
}

// ChaosResult is the attack-robustness sweep: success rate as injected
// fault rate rises. Not a paper artifact — it is the reproduction's own
// resilience harness, demonstrating that the Controlled Preemption loop
// (with recalibration and retry) degrades gracefully rather than
// collapsing when timers drop, wake-ups lie, and the scheduler misbehaves.
type ChaosResult struct {
	Target int
	Rows   []ChaosRow
}

// RunChaos measures attack success against escalating fault injection: for
// each rate, a fresh machine with a loop victim and a robust attacker on
// core 0, a sample target, and a watchdog.
func RunChaos(env *Env, cfg ChaosConfig) *ChaosResult {
	if len(cfg.Rates) == 0 {
		cfg.Rates = []float64{0, 0.02, 0.05, 0.1, 0.2}
	}
	if cfg.Target <= 0 {
		cfg.Target = 2000
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 20 * timebase.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res := &ChaosResult{Target: cfg.Target}
	res.Rows = Trials(env, len(cfg.Rates), func(env *Env, i int) ChaosRow {
		return runChaosRate(env, cfg, cfg.Rates[i])
	})
	return res
}

// runChaosRate runs one row of the sweep.
func runChaosRate(env *Env, cfg ChaosConfig, rate float64) ChaosRow {
	m := env.NewMachine(CFS, cfg.Seed, WithKernParams(func(kp *kern.Params) {
		kp.Faults = fault.Config{Rate: rate}
	}))
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))

	collected := 0
	att := core.NewRobustAttacker(core.Config{
		Method:    core.MethodNanosleep,
		Epsilon:   2 * timebase.Microsecond,
		Hibernate: 60 * timebase.Millisecond,
		Measure: func(e *kern.Env, s core.Sample) bool {
			collected++
			return collected < cfg.Target
		},
	}, core.DefaultRetryPolicy())
	finished := false
	m.Spawn("attacker", func(e *kern.Env) {
		att.Run(e)
		finished = true
	}, kern.WithPin(0))

	wd := env.NewWatchdog(cfg.Budget)
	wd.Run(m, func() bool { return finished })

	rep := att.Report()
	row := ChaosRow{
		Rate:        rate,
		Collected:   collected,
		SuccessRate: float64(collected) / float64(cfg.Target),
		Confidence:  rep.Confidence,
		Preemptions: rep.Preemptions,
		FailedWakes: rep.FailedWakes,
		Attempts:    rep.Attempts,
		Degraded:    rep.Degraded,
		TimedOut:    wd.TimedOut,
	}
	if in := m.FaultInjector(); in != nil {
		row.Faults = in.Total()
	}
	return row
}

// String renders the sweep.
func (r *ChaosResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos — attack success rate vs injected fault rate (target %d samples)\n", r.Target)
	fmt.Fprintf(&b, "  %-6s %-9s %-8s %-11s %-7s %-8s %-8s %s\n",
		"rate", "success", "conf", "preempt", "failed", "attempts", "faults", "flags")
	for _, row := range r.Rows {
		flags := "-"
		var fl []string
		if row.Degraded {
			fl = append(fl, "degraded")
		}
		if row.TimedOut {
			fl = append(fl, "timeout")
		}
		if len(fl) > 0 {
			flags = strings.Join(fl, ",")
		}
		fmt.Fprintf(&b, "  %-6.2f %-9s %-8.2f %-11d %-7d %-8d %-8d %s\n",
			row.Rate, fmtPct(row.SuccessRate), row.Confidence,
			row.Preemptions, row.FailedWakes, row.Attempts, row.Faults, flags)
	}
	return b.String()
}
