package exps

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// Fig44Config tunes the repeated-preemption count characterization.
type Fig44Config struct {
	// Measures are the attacker measurement lengths swept to vary
	// I_attacker (the paper varies serialized cache-miss counts).
	Measures []timebase.Duration
	// Trials is how many times each point repeats (the paper uses 50).
	Trials int
	// Sched selects the scheduler.
	Sched Sched
	// Nice sets the victim's nice value (0 for Figure 4.4; Figure 4.5
	// sweeps it through RunFig45).
	Nice int
	Seed uint64
}

// Fig44Point is one observation: the effective ΔI = I_attacker − I_victim
// measured from vruntime deltas over the burst, and the burst length.
type Fig44Point struct {
	DeltaI      timebase.Duration
	Preemptions int64
}

// Fig44Result holds the observations and the expected-curve evaluation.
type Fig44Result struct {
	Config Fig44Config
	Points []Fig44Point
	// Budget is S_slack − S_preempt.
	Budget timebase.Duration
}

// RunFig44 reproduces Figure 4.4: the number of repeated preemptions as a
// function of I_attacker − I_victim, against the expected
// ⌈(S_slack−S_preempt)/ΔI⌉ curve.
func RunFig44(env *Env, cfg Fig44Config) *Fig44Result {
	if len(cfg.Measures) == 0 {
		us := func(x int64) timebase.Duration { return timebase.Duration(x) * timebase.Microsecond }
		cfg.Measures = []timebase.Duration{us(8), us(12), us(18), us(25), us(35), us(50), us(70), us(100)}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 50
	}
	res := &Fig44Result{Config: cfg}
	env = env.withTrialPool()
	seed := cfg.Seed
	for _, mdur := range cfg.Measures {
		for trial := 0; trial < cfg.Trials; trial++ {
			seed++
			res.Points = append(res.Points, runBurstTrial(env, cfg.Sched, cfg.Nice, mdur, seed))
		}
	}
	// Both schedulers run the same tunables; the budget is a pure function
	// of them — no machine needed.
	res.Budget = sched.DefaultParams(Cores).PreemptionBudget()
	return res
}

// runBurstTrial runs one hibernate-and-attack burst and measures its
// length and effective ΔI. The hibernation scales with the victim's
// priority: a high-priority victim accrues vruntime slowly, so the attacker
// must sleep longer before the Equation 2.1 placement clamps (the paper's
// 5s launch hibernation covers the whole nice range; the fast-forwarding
// simulation makes the long sleep free).
func runBurstTrial(env *Env, kind Sched, nice int, measure timebase.Duration, seed uint64) Fig44Point {
	return runBurstTrialEps(env, kind, nice, measure, 2*timebase.Microsecond, seed)
}

// runBurstTrialEps additionally controls ε (and therefore I_victim).
func runBurstTrialEps(env *Env, kind Sched, nice int, measure, epsilon timebase.Duration, seed uint64) Fig44Point {
	m := env.NewMachine(kind, seed)
	defer m.Shutdown()
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0), kern.WithNice(nice))

	hibernate := 70 * timebase.Millisecond
	if nice < 0 {
		hibernate = 5 * timebase.Second
	}
	// Snapshot vruntimes at the first and last successful preemption (the
	// callback runs right after a wake, when both vruntimes are freshly
	// charged) so the measured ΔI covers exactly the burst.
	var va0, vv0, va1, vv1 int64
	var samples int64
	a := core.NewAttacker(core.Config{
		Epsilon:        epsilon,
		Hibernate:      hibernate,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			va1 = e.Thread().Task().Vruntime
			vv1 = victim.Task().Vruntime
			if samples == 0 {
				va0, vv0 = va1, vv1
			}
			samples++
			e.Burn(measure)
			return true
		},
	})
	att := m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.Run(m.Now().Add(30*timebase.Second), func() bool {
		return att.State() == sched.StateDone
	})
	st := a.Stats()
	var n int64
	if len(st.BurstLengths) > 0 {
		n = st.BurstLengths[0]
	}
	if n <= 1 {
		return Fig44Point{DeltaI: measure, Preemptions: n}
	}
	dI := timebase.Duration(((va1 - va0) - (vv1 - vv0)) / (samples - 1))
	if dI <= 0 {
		dI = measure
	}
	return Fig44Point{DeltaI: dI, Preemptions: n}
}

// Expected evaluates the paper's budget formula at dI.
func (r *Fig44Result) Expected(dI timebase.Duration) int64 {
	if dI <= 0 {
		return 0
	}
	return int64((r.Budget + dI - 1) / dI)
}

// FitError returns the mean relative error between observed burst lengths
// and the expected curve.
func (r *Fig44Result) FitError() float64 {
	var errs []float64
	for _, p := range r.Points {
		want := r.Expected(p.DeltaI)
		if want == 0 {
			continue
		}
		e := float64(p.Preemptions-want) / float64(want)
		if e < 0 {
			e = -e
		}
		errs = append(errs, e)
	}
	return stats.Mean(errs)
}

// String renders observed-vs-expected per measurement length.
func (r *Fig44Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fig4.4 (%s) — repeated preemptions vs ΔI (budget %s, %d trials/point)\n",
		r.Config.Sched, r.Budget, r.Config.Trials)
	obs := &stats.Series{Name: "observed"}
	exp := &stats.Series{Name: "expected"}
	// Bucket points by rounded ΔI in µs for the table.
	type agg struct {
		sum float64
		n   int
	}
	buckets := map[float64]*agg{}
	for _, p := range r.Points {
		x := float64(int64(p.DeltaI / timebase.Microsecond))
		if buckets[x] == nil {
			buckets[x] = &agg{}
		}
		buckets[x].sum += float64(p.Preemptions)
		buckets[x].n++
	}
	for x, a := range buckets {
		obs.Add(x, a.sum/float64(a.n))
		exp.Add(x, float64(r.Expected(timebase.Duration(x)*timebase.Microsecond)))
	}
	b.WriteString(report.SeriesTable("ΔI (µs)", obs, exp))
	fmt.Fprintf(&b, "  mean relative error vs expected curve: %.1f%%\n", 100*r.FitError())
	return b.String()
}
