package exps

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// Fig43Variant selects which panel of Figure 4.3 (or Figure 4.7) to run.
type Fig43Variant uint8

// Panels.
const (
	// Fig43a: wake-up Method 1 (nanosleep).
	Fig43a Fig43Variant = iota
	// Fig43b: Method 1 + iTLB eviction performance degradation.
	Fig43b
	// Fig43c: wake-up Method 2 (POSIX timer).
	Fig43c
	// Fig47: the Figure 4.3b experiment on the EEVDF scheduler.
	Fig47
)

// String names the panel.
func (v Fig43Variant) String() string {
	switch v {
	case Fig43a:
		return "fig4.3a nanosleep"
	case Fig43b:
		return "fig4.3b nanosleep+evict-iTLB"
	case Fig43c:
		return "fig4.3c timer"
	default:
		return "fig4.7 EEVDF nanosleep+evict-iTLB"
	}
}

// Fig43Config tunes a temporal-resolution run.
type Fig43Config struct {
	Variant Fig43Variant
	// Epsilons are the ε values (one histogram line each). Nil selects
	// per-variant defaults.
	Epsilons []timebase.Duration
	// Samples is the number of preemptions per histogram (the paper uses
	// 80 000; the default here is 20 000 to keep regeneration quick —
	// raise it for the paper-scale run).
	Samples int
	// Seed drives jitter.
	Seed uint64
}

// DefaultEpsilons returns the ε sweep for a variant. Method 1's victim
// window is ε plus interrupt latency minus the context-switch cost; Method
// 2's interval must additionally cover the attacker's measurement.
func DefaultEpsilons(v Fig43Variant) []timebase.Duration {
	us := func(x float64) timebase.Duration { return timebase.Duration(x * 1000) }
	switch v {
	case Fig43c:
		// The interval additionally covers the attacker's 5µs measurement,
		// the signal-delivery and both context switches (~8.3µs total).
		return []timebase.Duration{us(8.3), us(8.5), us(8.9), us(9.4)}
	case Fig43b, Fig47:
		// With the victim's first instruction stretched by a page walk,
		// larger ε still single-steps.
		return []timebase.Duration{us(1.4), us(1.7), us(2.0), us(2.4)}
	default:
		return []timebase.Duration{us(1.2), us(1.4), us(1.6), us(1.9)}
	}
}

// Fig43Result holds one histogram per ε.
type Fig43Result struct {
	Variant  Fig43Variant
	Epsilons []timebase.Duration
	Hists    []*stats.Hist
}

// RunFig43 reproduces one panel of Figure 4.3 (or Figure 4.7): the
// distribution of victim instructions retired per preemption, per ε.
func RunFig43(env *Env, cfg Fig43Config) *Fig43Result {
	if cfg.Samples <= 0 {
		cfg.Samples = 20000
	}
	if len(cfg.Epsilons) == 0 {
		cfg.Epsilons = DefaultEpsilons(cfg.Variant)
	}
	res := &Fig43Result{Variant: cfg.Variant, Epsilons: cfg.Epsilons}
	for i, eps := range cfg.Epsilons {
		res.Hists = append(res.Hists, runFig43One(env, cfg, eps, cfg.Seed+uint64(i)))
	}
	return res
}

// runFig43One collects one histogram.
func runFig43One(env *Env, cfg Fig43Config, eps timebase.Duration, seed uint64) *stats.Hist {
	kind := CFS
	if cfg.Variant == Fig47 {
		kind = EEVDF
	}
	m := env.NewMachine(kind, seed)
	defer m.Shutdown()

	victimOpts := []kern.SpawnOption{kern.WithPin(0)}
	if cfg.Variant == Fig43b || cfg.Variant == Fig47 {
		victimOpts = append(victimOpts, kern.WithITLB())
	}
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, victimOpts...)

	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)

	method := core.MethodNanosleep
	if cfg.Variant == Fig43c {
		method = core.MethodTimer
	}
	acfg := core.Config{
		Method:         method,
		Epsilon:        eps,
		Hibernate:      80 * timebase.Millisecond,
		MaxPreemptions: cfg.Samples,
		Measure: func(e *kern.Env, s core.Sample) bool {
			e.Burn(5 * timebase.Microsecond) // the side-channel measurement stand-in
			return true
		},
	}
	var degrade func(*kern.Env)
	if cfg.Variant == Fig43b || cfg.Variant == Fig47 {
		var te *attack.TLBEvictor
		degrade = func(e *kern.Env) {
			if te == nil {
				te = attack.NewTLBEvictor(e, loopvictim.DefaultBase)
			}
			te.Evict(e)
		}
		acfg.Degrade = degrade
	}
	a := core.NewAttacker(acfg)
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.Run(m.Now().Add(300*timebase.Second), func() bool {
		return a.Stats().Preemptions >= int64(cfg.Samples)
	})

	h := stats.NewHist()
	for _, s := range rec.Stints {
		if s.Thread != victim || s.Reason != kern.OutPreemptedWakeup {
			continue
		}
		// Exclude the burst-leading stint (the victim ran freely through
		// the attacker's whole hibernation); the paper's measurement
		// window likewise starts "from when the attacker begins
		// launching interrupts".
		if s.End.Sub(s.Start) > 50*timebase.Microsecond {
			continue
		}
		h.Add(int(s.Retired))
	}
	return h
}

// ZeroFrac returns the zero-step fraction for line i.
func (r *Fig43Result) ZeroFrac(i int) float64 { return r.Hists[i].Frac(0) }

// SingleFrac returns the single-step fraction for line i.
func (r *Fig43Result) SingleFrac(i int) float64 { return r.Hists[i].Frac(1) }

// SmallFrac returns the ≤10-instruction fraction for line i.
func (r *Fig43Result) SmallFrac(i int) float64 { return r.Hists[i].FracAtMost(10) }

// String renders the panel as the paper's histogram lines.
func (r *Fig43Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — victim instructions retired per preemption (n=%d per line)\n",
		r.Variant, r.Hists[0].Total())
	labels := make([]string, len(r.Epsilons))
	for i, e := range r.Epsilons {
		labels[i] = "ε=" + e.String()
	}
	b.WriteString(report.MultiHist(labels, r.Hists, 30))
	return b.String()
}
