package exps

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/internal/timebase"
)

// ExtEEVDFConfig tunes the EEVDF budget sweep.
type ExtEEVDFConfig struct {
	// Measures are the attacker measurement lengths (vary ΔI).
	Measures []timebase.Duration
	// Trials per point.
	Trials int
	Seed   uint64
}

// ExtEEVDFResult characterizes the EEVDF preemption budget across ΔI — the
// in-depth exploration the paper leaves as future work (§4.5). On EEVDF
// the budget is the vruntime gap opened at wake-up (sleeper credit), so
// like CFS the count scales as budget/ΔI, with the budget set by the
// placement lag instead of S_slack−S_preempt.
type ExtEEVDFResult struct {
	Config ExtEEVDFConfig
	// Points are (ΔI, median preemptions).
	DeltaIs []timebase.Duration
	Medians []int64
	// ImpliedBudget is median × ΔI per point: on EEVDF it should be
	// roughly constant — the emergent wake-up budget.
	ImpliedBudget []timebase.Duration
}

// RunExtEEVDF sweeps ΔI on the EEVDF scheduler.
func RunExtEEVDF(env *Env, cfg ExtEEVDFConfig) *ExtEEVDFResult {
	if len(cfg.Measures) == 0 {
		us := func(x int64) timebase.Duration { return timebase.Duration(x) * timebase.Microsecond }
		cfg.Measures = []timebase.Duration{us(6), us(9), us(12), us(18), us(25), us(40)}
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 15
	}
	res := &ExtEEVDFResult{Config: cfg}
	env = env.withTrialPool()
	seed := cfg.Seed
	for _, m := range cfg.Measures {
		var lens []int64
		var dIs []int64
		for trial := 0; trial < cfg.Trials; trial++ {
			seed++
			p := runBurstTrial(env, EEVDF, 0, m, seed)
			lens = append(lens, p.Preemptions)
			dIs = append(dIs, int64(p.DeltaI))
		}
		med := stats.MedianInt64(lens)
		dI := timebase.Duration(stats.MedianInt64(dIs))
		res.DeltaIs = append(res.DeltaIs, dI)
		res.Medians = append(res.Medians, med)
		res.ImpliedBudget = append(res.ImpliedBudget, timebase.Duration(med)*dI/1)
	}
	return res
}

// BudgetSpread returns (min, max) of the implied budget — a tight spread
// confirms the budget/ΔI scaling law on EEVDF.
func (r *ExtEEVDFResult) BudgetSpread() (timebase.Duration, timebase.Duration) {
	if len(r.ImpliedBudget) == 0 {
		return 0, 0
	}
	min, max := r.ImpliedBudget[0], r.ImpliedBudget[0]
	for _, b := range r.ImpliedBudget[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return min, max
}

// String renders the sweep.
func (r *ExtEEVDFResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ext.eevdf — EEVDF preemption budget vs ΔI (%d trials/point; the paper's future-work item)\n", r.Config.Trials)
	fmt.Fprintf(&b, "  %12s %12s %16s\n", "ΔI", "median", "implied budget")
	for i := range r.DeltaIs {
		fmt.Fprintf(&b, "  %12v %12d %16v\n", r.DeltaIs[i], r.Medians[i], r.ImpliedBudget[i])
	}
	lo, hi := r.BudgetSpread()
	fmt.Fprintf(&b, "  implied budget spread: %v – %v (count scales as budget/ΔI, as on CFS)\n", lo, hi)
	return b.String()
}
