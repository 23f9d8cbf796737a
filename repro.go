package repro

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/defense"
	"repro/internal/exps"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	// Quick runs reduced repetition counts that regenerate every figure's
	// shape in seconds.
	Quick Scale = iota
	// Paper runs the paper's sample sizes (80 000-preemption histograms,
	// 100-key AES sweeps, ...).
	Paper
)

// Options configure an experiment run.
type Options struct {
	Scale Scale
	// Seed defaults to 1; every run with the same seed is bit-identical.
	Seed uint64
	// FaultRate, when positive, enables ambient fault injection (package
	// fault) in every machine the experiment builds: timer drops and
	// delays, slack spikes, spurious wake-ups, surprise preemptions and
	// forced migrations at this per-opportunity probability. Runs stay
	// deterministic per seed.
	FaultRate float64
	// SimBudget, when positive, overrides the simulated-time budget of
	// every watchdog-guarded experiment phase (exps.Watchdog), bounding how
	// long a perturbed machine may run before settling for partial results.
	SimBudget timebase.Duration
	// Defense, when non-empty, installs the named countermeasure preset
	// (package defense; see MatrixDefenses) into every machine the
	// experiment builds; "" and "off" both mean no defense. Defended runs
	// stay deterministic per seed.
	Defense string

	// env is the run environment Run, RunGuarded, RunTraced or a campaign
	// entry built for this run; experiments build their machines from it.
	env *exps.Env
}

// validate rejects options no experiment can honour.
func (o Options) validate() error {
	if o.Defense != "" {
		if _, err := defense.Preset(o.Defense); err != nil {
			return err
		}
	}
	return nil
}

// newEnv builds the run environment the options describe, on top of the
// process-wide defaults (exps.Default): fault injection, watchdog budget
// and defense preset.
func (o Options) newEnv() *exps.Env {
	env := exps.Default()
	if o.FaultRate > 0 {
		env.Faults = fault.Config{Rate: o.FaultRate}
	}
	env.WatchdogBudget = o.SimBudget
	if o.Defense != "" {
		// validate() vetted the name; an unknown preset here resolves to
		// the zero config, i.e. no defense.
		env.Defense, _ = defense.Preset(o.Defense)
	}
	return env
}

// withEnv returns o carrying its run environment, built on first use.
func (o Options) withEnv() Options {
	if o.env == nil {
		o.env = o.newEnv()
	}
	return o
}

// runEnv is the environment an Experiment's Run builds machines from: the
// one the runner attached, or a fresh one when Run is called directly.
func (o Options) runEnv() *exps.Env { return o.withEnv().env }

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// Result is what every experiment returns: a renderable report plus
// machine-readable headline metrics.
type Result interface {
	fmt.Stringer
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact identifier used by the CLI (e.g. "fig4.3a").
	ID string
	// Title describes the artifact.
	Title string
	// Run executes the experiment.
	Run func(Options) Result
	// Metrics extracts headline numbers (for the benchmark harness), as
	// name → value.
	Metrics func(Result) map[string]float64
}

// pick returns q under Quick and p under Paper scale.
func pick(o Options, q, p int) int {
	if o.Scale == Paper {
		return p
	}
	return q
}

// registry lists every artifact in paper order.
var registry = []Experiment{
	{
		ID: "tab2.1", Title: "Relevant CFS configurations",
		Run: func(o Options) Result { return exps.RunTable21() },
		Metrics: func(r Result) map[string]float64 {
			t := r.(*exps.Table21)
			return map[string]float64{
				"S_bnd_ms":     t.Params.Latency.Millis(),
				"S_slack_ms":   t.Params.SleeperSlack().Millis(),
				"S_preempt_ms": t.Params.WakeupGranularity.Millis(),
				"budget_ms":    t.Params.PreemptionBudget().Millis(),
			}
		},
	},
	{
		ID: "fig1.1", Title: "Prior multi-thread recharging vs Controlled Preemption",
		Run: func(o Options) Result {
			return exps.RunFig11(o.runEnv(), exps.Fig11Config{
				PriorThreads: pick(o, 10, 40),
				Target:       pick(o, 150, 400),
				Seed:         o.seed(),
			})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig11Result)
			return map[string]float64{
				"prior_max_burst": float64(f.MaxPriorBurst()),
				"cp_burst":        float64(f.CPBurst),
				"speedup":         float64(f.PriorDuration) / float64(f.CPDuration),
			}
		},
	},
	{
		ID: "fig4.1", Title: "Vruntime walk of one preemption budget",
		Run: func(o Options) Result { return exps.RunFig41(o.runEnv(), o.seed()) },
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig41Result)
			return map[string]float64{
				"slack_at_wake_ms":    f.SlackAtWake.Millis(),
				"delta_at_failure_ms": f.DeltaAtFailure.Millis(),
				"preemptions":         float64(f.Preemptions),
			}
		},
	},
	{
		ID: "fig4.3a", Title: "Temporal resolution, Method 1 (nanosleep)",
		Run: func(o Options) Result {
			return exps.RunFig43(o.runEnv(), exps.Fig43Config{Variant: exps.Fig43a, Samples: pick(o, 20000, 80000), Seed: o.seed()})
		},
		Metrics: fig43Metrics,
	},
	{
		ID: "fig4.3b", Title: "Temporal resolution, Method 1 + iTLB eviction",
		Run: func(o Options) Result {
			return exps.RunFig43(o.runEnv(), exps.Fig43Config{Variant: exps.Fig43b, Samples: pick(o, 20000, 80000), Seed: o.seed()})
		},
		Metrics: fig43Metrics,
	},
	{
		ID: "fig4.3c", Title: "Temporal resolution, Method 2 (POSIX timer)",
		Run: func(o Options) Result {
			return exps.RunFig43(o.runEnv(), exps.Fig43Config{Variant: exps.Fig43c, Samples: pick(o, 20000, 80000), Seed: o.seed()})
		},
		Metrics: fig43Metrics,
	},
	{
		ID: "fig4.4", Title: "Repeated preemptions vs ΔI, with expected curve",
		Run: func(o Options) Result {
			return exps.RunFig44(o.runEnv(), exps.Fig44Config{Trials: pick(o, 10, 50), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig44Result)
			return map[string]float64{"fit_error": f.FitError()}
		},
	},
	{
		ID: "fig4.5", Title: "Repeated preemptions vs victim nice value",
		Run: func(o Options) Result {
			return exps.RunFig45(o.runEnv(), exps.Fig45Config{Trials: pick(o, 5, 15), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig45Result)
			out := map[string]float64{}
			for i, n := range f.Nices {
				out[fmt.Sprintf("median_nice_%d", n)] = float64(f.Medians[i])
			}
			return out
		},
	},
	{
		ID: "fig4.6", Title: "Noisy system: vruntime convergence, ((V|N)A)+ and presence oracle",
		Run: func(o Options) Result {
			return exps.RunFig46(o.runEnv(), exps.Fig46Config{Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig46Result)
			ok := 0.0
			if f.PatternOK {
				ok = 1
			}
			return map[string]float64{
				"oracle_precision": f.OracleAccuracy,
				"pattern_ok":       ok,
				"preemptions":      float64(f.Preemptions),
			}
		},
	},
	{
		ID: "fig4.7", Title: "Temporal resolution on EEVDF (fig4.3b setup)",
		Run: func(o Options) Result {
			return exps.RunFig43(o.runEnv(), exps.Fig43Config{Variant: exps.Fig47, Samples: pick(o, 20000, 80000), Seed: o.seed()})
		},
		Metrics: fig43Metrics,
	},
	{
		ID: "sec4.5", Title: "EEVDF preemption budget (paper median: 219)",
		Run: func(o Options) Result {
			return exps.RunSec45(o.runEnv(), exps.Sec45Config{Trials: pick(o, 60, 165), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Sec45Result)
			return map[string]float64{"median": float64(f.Median())}
		},
	},
	{
		ID: "sec4.4", Title: "Core colocation via load balancing",
		Run: func(o Options) Result {
			return exps.RunColo(o.runEnv(), exps.ColoConfig{Trials: pick(o, 5, 16), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.ColoResult)
			return map[string]float64{
				"landed_frac": float64(f.Landed) / float64(f.Trials),
				"stayed_frac": float64(f.Stayed) / float64(f.Trials),
			}
		},
	},
	{
		ID: "fig5.1", Title: "AES T-table first-round attack, CFS (paper: 98.9%)",
		Run: func(o Options) Result {
			return exps.RunFig51(o.runEnv(), exps.Fig51Config{Keys: pick(o, 10, 100), Sched: exps.CFS, Seed: o.seed()})
		},
		Metrics: fig51Metrics,
	},
	{
		ID: "fig5.1e", Title: "AES T-table first-round attack, EEVDF (paper: 98.1%)",
		Run: func(o Options) Result {
			return exps.RunFig51(o.runEnv(), exps.Fig51Config{Keys: pick(o, 10, 100), Sched: exps.EEVDF, Seed: o.seed()})
		},
		Metrics: fig51Metrics,
	},
	{
		ID: "fig5.2", Title: "SGX base64 PEM decode via LLC Prime+Probe (paper: 61.5%/99.2%/98.9%)",
		Run: func(o Options) Result {
			return exps.RunFig52(o.runEnv(), exps.Fig52Config{Keys: pick(o, 5, 30), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig52Result)
			return map[string]float64{
				"coverage_single": f.SingleCoverage,
				"accuracy_single": f.SingleAccuracy,
				"accuracy_full":   f.FullAccuracy,
				"mean_chars":      f.MeanChars,
			}
		},
	},
	{
		ID: "fig5.4", Title: "mbedtls_mpi_gcd control flow via BTB (paper: 97.3%)",
		Run: func(o Options) Result {
			return exps.RunFig54(o.runEnv(), exps.Fig54Config{Pairs: pick(o, 8, 30), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.Fig54Result)
			return map[string]float64{
				"branch_accuracy": f.BranchAccuracy,
				"mean_iterations": f.MeanIterations,
			}
		},
	},
	{
		ID: "ext.noise", Title: "Extension: AES accuracy under LLC channel noise + multi-run voting",
		Run: func(o Options) Result {
			return exps.RunExtNoise(o.runEnv(), exps.ExtNoiseConfig{Keys: pick(o, 4, 12), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.ExtNoiseResult)
			return map[string]float64{
				"quiet_1trace": f.QuietOneTrace,
				"noisy_1trace": f.NoisyOneTrace,
				"noisy_5trace": f.NoisyFiveTraces,
			}
		},
	},
	{
		ID: "ext.eevdf", Title: "Extension: EEVDF budget vs ΔI sweep (paper future work)",
		Run: func(o Options) Result {
			return exps.RunExtEEVDF(o.runEnv(), exps.ExtEEVDFConfig{Trials: pick(o, 8, 25), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.ExtEEVDFResult)
			lo, hi := f.BudgetSpread()
			return map[string]float64{
				"budget_lo_ms": lo.Millis(),
				"budget_hi_ms": hi.Millis(),
			}
		},
	},
	{
		ID: "abl.mitigation", Title: "Ablation: NO_WAKEUP_PREEMPTION mitigation",
		Run: func(o Options) Result { return exps.RunAblationNoWakeupPreemption(o.runEnv(), o.seed()) },
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.AblationResult)
			return map[string]float64{
				"baseline_burst": float64(f.BaselineBurst),
				"variant_burst":  float64(f.VariantBurst),
			}
		},
	},
	{
		ID: "abl.gentle", Title: "Ablation: GENTLE_FAIR_SLEEPERS off",
		Run: func(o Options) Result { return exps.RunAblationGentleFairSleepers(o.runEnv(), o.seed()) },
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.AblationResult)
			return map[string]float64{
				"baseline_burst": float64(f.BaselineBurst),
				"variant_burst":  float64(f.VariantBurst),
			}
		},
	},
	{
		ID: "abl.slack", Title: "Ablation: default timer slack",
		Run: func(o Options) Result { return exps.RunAblationDefaultTimerSlack(o.runEnv(), o.seed()) },
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.AblationResult)
			return map[string]float64{
				"baseline_step": float64(f.BaselineStep),
				"variant_step":  float64(f.VariantStep),
			}
		},
	},
	{
		ID: "abl.roundrobin", Title: "Ablation: round-robin budget extension",
		Run: func(o Options) Result {
			return exps.RunAblationRoundRobin(o.runEnv(), o.seed(), pick(o, 2000, 5000))
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.AblationResult)
			return map[string]float64{
				"single_ms":     float64(f.BaselineBurst),
				"roundrobin_ms": float64(f.VariantBurst),
			}
		},
	},
	{
		ID: "chaos", Title: "Robustness: attack success rate vs injected fault rate",
		Run: func(o Options) Result {
			return exps.RunChaos(o.runEnv(), exps.ChaosConfig{Target: pick(o, 1000, 5000), Seed: o.seed()})
		},
		Metrics: func(r Result) map[string]float64 {
			f := r.(*exps.ChaosResult)
			out := map[string]float64{}
			for _, row := range f.Rows {
				out[fmt.Sprintf("success_rate_%.2f", row.Rate)] = row.SuccessRate
				out[fmt.Sprintf("attempts_%.2f", row.Rate)] = float64(row.Attempts)
			}
			return out
		},
	},
}

func fig43Metrics(r Result) map[string]float64 {
	f := r.(*exps.Fig43Result)
	out := map[string]float64{}
	for i, e := range f.Epsilons {
		us := e.Micros()
		out[fmt.Sprintf("zero_frac_eps%.1fus", us)] = f.ZeroFrac(i)
		out[fmt.Sprintf("single_frac_eps%.1fus", us)] = f.SingleFrac(i)
	}
	return out
}

func fig51Metrics(r Result) map[string]float64 {
	f := r.(*exps.Fig51Result)
	return map[string]float64{
		"nibble_accuracy":   f.NibbleAccuracy,
		"samples_per_trace": f.PerTraceSamples,
	}
}

// Experiments returns the artifact registry in paper order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the registered experiment IDs, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// MatrixAttacks lists the attack axis of the defense matrix in canonical
// order.
func MatrixAttacks() []string { return exps.MatrixAttacks() }

// MatrixDefenses lists the defense axis (the named presets of package
// defense) in canonical order, "off" first.
func MatrixDefenses() []string { return defense.Presets() }

// MatrixID names one attack-vs-defense cell, e.g. "matrix/nanosleep+cordon".
func MatrixID(attack, def string) string { return "matrix/" + attack + "+" + def }

// MatrixIDs enumerates every cell of the full grid, attack-major.
func MatrixIDs() []string {
	var ids []string
	for _, a := range MatrixAttacks() {
		for _, d := range MatrixDefenses() {
			ids = append(ids, MatrixID(a, d))
		}
	}
	return ids
}

// parseMatrixID splits a "matrix/<attack>+<defense>" cell ID; ok is false
// for anything else, including unknown axis values.
func parseMatrixID(id string) (attack, def string, ok bool) {
	rest, found := strings.CutPrefix(id, "matrix/")
	if !found {
		return "", "", false
	}
	attack, def, found = strings.Cut(rest, "+")
	if !found {
		return "", "", false
	}
	if !slicesContains(MatrixAttacks(), attack) || !slicesContains(MatrixDefenses(), def) {
		return "", "", false
	}
	return attack, def, true
}

func slicesContains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// matrixExperiment synthesizes the Experiment for one grid cell. Cells are
// not in the registry — IDs()/Experiments() list only paper artifacts — but
// Lookup resolves them, so runs, traces, campaigns and the cluster fabric
// compose with matrix cells for free.
func matrixExperiment(attack, def string) Experiment {
	return Experiment{
		ID:    MatrixID(attack, def),
		Title: fmt.Sprintf("Defense matrix cell: %s attack vs %s defense", attack, def),
		Run: func(o Options) Result {
			res, err := exps.RunMatrixCell(o.runEnv(), exps.MatrixCellConfig{
				Attack:  attack,
				Defense: def,
				Target:  pick(o, 1000, 4000),
				Trials:  pick(o, 8, 16),
				Seed:    o.seed(),
			})
			if err != nil {
				// Unreachable for parsed IDs: both axes were validated.
				panic(err)
			}
			return res
		},
		Metrics: func(r Result) map[string]float64 {
			c := r.(*exps.MatrixCellResult)
			return map[string]float64{
				"success_rate":  c.SuccessRate,
				"amplification": c.Amplification,
				"overhead":      c.Overhead,
			}
		},
	}
}

// Lookup finds an experiment by ID. Besides the registered paper artifacts
// it resolves defense-matrix cell IDs (see MatrixIDs).
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	if attack, def, ok := parseMatrixID(id); ok {
		return matrixExperiment(attack, def), true
	}
	return Experiment{}, false
}

// Run executes the experiment with the given ID.
func Run(id string, o Options) (Result, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("repro: unknown experiment %q (known: %v)", id, IDs())
	}
	if err := o.validate(); err != nil {
		return nil, err
	}
	return runExperiment(e, o.withEnv()), nil
}

// RunReport is the outcome of a guarded experiment run.
type RunReport struct {
	// ID is the experiment.
	ID string
	// Result is the (possibly partial) result, nil when every attempt
	// failed.
	Result Result
	// Err is the last failure, nil when the final attempt succeeded.
	Err error
	// Attempts counts runs, including the successful one.
	Attempts int
	// Degraded marks a result obtained only after retrying (under a bumped
	// seed), or no result at all.
	Degraded bool
}

// RunGuarded executes an experiment with panic isolation and bounded
// retries: a run that dies (an invariant violation under fault injection, a
// driver bug on a hostile schedule) is retried up to retries times with a
// deterministically bumped seed, so a chaotic `cplab all` completes with
// partial results instead of crashing.
func RunGuarded(id string, o Options, retries int) RunReport {
	e, ok := Lookup(id)
	if !ok {
		return RunReport{ID: id, Err: fmt.Errorf("repro: unknown experiment %q (known: %v)", id, IDs())}
	}
	if err := o.validate(); err != nil {
		return RunReport{ID: id, Err: err}
	}
	o = o.withEnv()
	rep := RunReport{ID: id}
	seed := o.seed()
	for attempt := 0; attempt <= retries; attempt++ {
		rep.Attempts = attempt + 1
		oa := o
		// Bump the seed per retry: deterministic, but a different schedule —
		// the point of a retry under injected faults.
		oa.Seed = seed + uint64(attempt)*1_000_003
		res, err := runRecovering(e, oa)
		if err == nil {
			rep.Result = res
			rep.Err = nil
			rep.Degraded = attempt > 0
			return rep
		}
		rep.Err = err
	}
	rep.Degraded = true
	return rep
}

// CampaignNote is the manifest note of a campaign over CampaignEntries(ids,
// o, retries). It pins every result-shaping option but the seed, so a
// resume under different options is refused instead of silently merging
// incomparable records. What does not shape results (the campaign width)
// is left out. `cplab campaign`, `cplab cluster` and
// cplabd all write it, which is what lets each resume the others'
// checkpoints; the defense is appended only when set, keeping pre-defense
// manifests resumable byte-identically.
func CampaignNote(o Options, retries int) string {
	note := fmt.Sprintf("paper=%t faults=%g simbudget=%s retries=%d", o.Scale == Paper, o.FaultRate, o.SimBudget, retries)
	if o.Defense != "" {
		note += " defense=" + o.Defense
	}
	return note
}

// CampaignEntries builds campaign entries for ids (every registered
// experiment, in paper order, when ids is empty) under options o: each
// entry executes through the guarded runner with the given retry budget at
// whatever base seed the campaign assigns (canonical first, bumped on
// resume of a failed entry). Unknown ids produce runner-less entries the
// campaign records as skipped.
//
// Each entry owns its telemetry: it runs in an environment of its own with
// a private registry, whose counts it returns as Attempt.Telemetry, so
// concurrent entries never share a counter. Its machines come from a pool
// it checks out of the plan's exps.PoolSet for the run.
func CampaignEntries(ids []string, o Options, retries int) []campaign.Entry {
	if len(ids) == 0 {
		for _, e := range registry {
			ids = append(ids, e.ID)
		}
	}
	ps := planPools()
	out := make([]campaign.Entry, 0, len(ids))
	for _, id := range ids {
		e, ok := Lookup(id)
		if !ok {
			out = append(out, campaign.Entry{ID: id})
			continue
		}
		exp := e
		out = append(out, campaign.Entry{ID: exp.ID, Run: func(seed uint64) campaign.Attempt {
			reg := metrics.New()
			oa := o
			oa.Seed = seed
			oa.env = o.newEnv()
			oa.env.Metrics = reg
			oa.env.Pool = ps.Get()
			defer ps.Put(oa.env.Pool)
			rep := RunGuarded(exp.ID, oa, retries)
			att := campaign.Attempt{Attempts: rep.Attempts, Degraded: rep.Degraded, Telemetry: reg.Counts()}
			if rep.Result == nil {
				att.Err = rep.Err
				return att
			}
			att.Rendered = rep.Result.String()
			att.Metrics = exp.Metrics(rep.Result)
			return att
		}})
	}
	return out
}

// planPools returns the machine-pool set one campaign plan shares: each
// entry checks a pool out exclusively for its run and returns it warm, so
// a width-N parallel campaign converges on N shell builds per machine
// configuration and every later entry reuses one instead of booting. The set's
// telemetry (kern_forks_total, pool hits/misses) reports into the registry
// ambient at plan build — never into the per-entry registries — so
// manifests do not depend on which entries shared a pool.
func planPools() *exps.PoolSet { return exps.NewPoolSet(metrics.Ambient()) }

// MicroBenchEntries builds a plan of n tiny machine-bound entries for the
// benchmark harness: each entry takes a full 16-core machine from its
// pool (reusing the shell an earlier entry shut down), runs a short attack-shaped
// workload — an ε-sleeper preempting a spinner on a shared core — and
// shuts the machine down. The per-entry simulation is a few hundred
// microseconds, so the plan's entries/sec measures the fixed per-entry
// machinery (machine acquisition, containment, telemetry) rather than
// simulation volume; it is the headline number for the machine pool.
func MicroBenchEntries(n int) []campaign.Entry {
	ps := planPools()
	out := make([]campaign.Entry, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, campaign.Entry{
			ID: fmt.Sprintf("micro@%d", i),
			Run: func(seed uint64) campaign.Attempt {
				env := exps.Default()
				env.Metrics = metrics.New()
				env.Pool = ps.Get()
				defer ps.Put(env.Pool)
				microBench(env, seed)
				return campaign.Attempt{Attempts: 1, Rendered: "ok", Telemetry: env.Metrics.Counts()}
			},
		})
	}
	return out
}

// microBench runs one micro-benchmark entry's workload under env.
func microBench(env *exps.Env, seed uint64) {
	m := env.NewMachine(exps.CFS, seed)
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		for {
			e.Burn(100 * timebase.Microsecond)
		}
	}, kern.WithPin(0))
	done := false
	m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		for i := 0; i < 3; i++ {
			e.Nanosleep(30 * timebase.Microsecond)
			e.Burn(10 * timebase.Microsecond)
		}
		done = true
	}, kern.WithPin(0))
	m.Run(m.Now().Add(5*timebase.Millisecond), func() bool { return done })
}

// RunTraced executes one experiment through RunGuarded without retries,
// with kernel trace capture: every machine it builds streams its
// scheduling events into a canonical trace.Trace (maxEventsPerMachine
// bounds each machine's share, 0 keeps everything), and the rendered result
// rides along, so replay can diff both the schedule and the artifact
// against a committed golden. A panicking experiment returns the partial
// trace with the error.
func RunTraced(id string, o Options, maxEventsPerMachine int) (Result, *trace.Trace, error) {
	o = o.withEnv()
	o.env.Trace = exps.NewTraceCapture(maxEventsPerMachine)
	rep := RunGuarded(id, o, 0)
	if rep.Attempts == 0 {
		// Unknown ID or invalid options: nothing ran, so there is no trace.
		return nil, nil, rep.Err
	}
	tr := o.env.Trace.Trace()
	tr.Exp = id
	tr.Seed = o.seed()
	if rep.Err != nil {
		return nil, tr, rep.Err
	}
	tr.Result = strings.Split(strings.TrimRight(rep.Result.String(), "\n"), "\n")
	return rep.Result, tr, nil
}

// runRecovering converts an experiment panic into an error.
func runRecovering(e Experiment, o Options) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if perr, ok := r.(error); ok {
				err = fmt.Errorf("experiment %s panicked: %w", e.ID, perr)
				return
			}
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, r)
		}
	}()
	return runExperiment(e, o), nil
}

// runExperiment runs e and then ends the machine-tier span its last machine
// opened on the ambient tracing context (exps.Env.NewMachine ends each
// earlier one), so every run's phases close when the run returns — panics
// included — rather than when some later run builds a machine.
func runExperiment(e Experiment, o Options) Result {
	defer obs.Ambient().ClosePhase()
	return e.Run(o)
}
