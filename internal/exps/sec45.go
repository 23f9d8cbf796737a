package exps

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/timebase"
)

// Sec45Config tunes the EEVDF budget measurement.
type Sec45Config struct {
	// Trials is the number of repeated experiments (the paper uses 165).
	Trials int
	Seed   uint64
}

// Sec45Result holds the EEVDF repeated-preemption distribution.
type Sec45Result struct {
	Config  Sec45Config
	Lengths []int64
	Summary stats.Summary
}

// RunSec45 reproduces the §4.5 measurement: on EEVDF, with
// I_attacker−I_victim in [10µs, 15µs], the attacker repeatedly preempts
// the victim a median of 219 times across 165 runs.
func RunSec45(env *Env, cfg Sec45Config) *Sec45Result {
	if cfg.Trials <= 0 {
		cfg.Trials = 165
	}
	res := &Sec45Result{Config: cfg}
	env = env.withTrialPool()
	seed := cfg.Seed
	for i := 0; i < cfg.Trials; i++ {
		seed++
		// Sweep the measurement length across the paper's ΔI band.
		us := 10 + 5*float64(i)/float64(cfg.Trials)
		measure := timebase.Duration(us * 1000)
		p := runBurstTrial(env, EEVDF, 0, measure, seed)
		res.Lengths = append(res.Lengths, p.Preemptions)
	}
	res.Summary = stats.Summarize(res.Lengths)
	return res
}

// Median returns the distribution's median.
func (r *Sec45Result) Median() int64 { return r.Summary.Median }

// String renders the headline against the paper's number.
func (r *Sec45Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§4.5 — EEVDF repeated preemptions, ΔI∈[10,15]µs, %d runs\n", r.Config.Trials)
	fmt.Fprintf(&b, "  median %d (paper: 219), p10 %d, p90 %d, mean %.0f\n",
		r.Summary.Median, r.Summary.P10, r.Summary.P90, r.Summary.Mean)
	return b.String()
}
