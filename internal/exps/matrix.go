package exps

import (
	"fmt"
	"strings"

	"repro/internal/colocate"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// The attack-vs-defense matrix: each cell runs one attack technique against
// one installed countermeasure and reports three numbers — how often the
// attack still succeeds, how much amplification it retains, and what the
// defense costs a benign workload. Cells are self-contained and
// deterministic per seed, so a campaign can sweep the grid in parallel and
// the manifest is byte-identical at any width.

// MatrixCellConfig selects one grid cell.
type MatrixCellConfig struct {
	// Attack is the technique under test: "nanosleep" (§4.2 Method 1),
	// "ptimer" (§4.2 Method 2) or "colocate" (§4.4).
	Attack string
	// Defense is the countermeasure preset name (see defense.Presets);
	// "off" runs the undefended baseline cell.
	Defense string
	// Target is the preemption-sample goal for the timer attacks.
	Target int
	// Trials is the placement-trial count for the colocation attack.
	Trials int
	// Budget is the simulated-time watchdog allowance for the attack phase.
	Budget timebase.Duration
	// Seed drives every machine in the cell.
	Seed uint64
}

// MatrixCellResult is one cell's outcome.
type MatrixCellResult struct {
	Attack  string
	Defense string
	// SuccessRate is the attack's residual success under the defense:
	// collected/target for the timer methods, the landed-and-stayed
	// fraction for colocation.
	SuccessRate float64
	// Amplification is the residual attack yield: preemptions per burst
	// for the timer methods, mean preemptions per trial for colocation.
	Amplification float64
	// Overhead is the defense's cost to a benign workload: the fractional
	// drop in retired instructions against the undefended machine under
	// the same seed (0 for the "off" column by construction).
	Overhead float64
	// Preemptions and Bursts are the attack phase's raw counters.
	Preemptions int64
	Bursts      int64
	// TimedOut marks an attack phase stopped by the watchdog.
	TimedOut bool
}

// MatrixAttacks lists the attack axis in canonical order.
func MatrixAttacks() []string { return []string{"nanosleep", "ptimer", "colocate"} }

// RunMatrixCell runs one attack-vs-defense cell. The defense is installed
// through the environment, so the attack drivers themselves stay
// oblivious — exactly how a defended run of any experiment installs it.
func RunMatrixCell(env *Env, cfg MatrixCellConfig) (*MatrixCellResult, error) {
	dcfg, err := defense.Preset(cfg.Defense)
	if err != nil {
		return nil, err
	}
	if cfg.Target <= 0 {
		cfg.Target = 1000
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 8
	}
	if cfg.Budget <= 0 {
		cfg.Budget = 10 * timebase.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	res := &MatrixCellResult{Attack: cfg.Attack, Defense: cfg.Defense}

	// One pool spans the whole cell: the defended attack machines, the
	// colocation trials and the two overhead machines each come from their
	// own per-configuration pool (the defense config is part of the pool
	// key).
	env = env.withTrialPool()

	// Attack phase, under the cell's defense. Installed even for "off", so
	// a defense the caller's env carries cannot leak into a baseline cell.
	switch cfg.Attack {
	case "nanosleep", "ptimer":
		runMatrixTimerCell(env.withDefense(dcfg), cfg, res)
	case "colocate":
		runMatrixColoCell(env.withDefense(dcfg), cfg, res)
	default:
		return nil, fmt.Errorf("matrix: unknown attack %q (known: %s)",
			cfg.Attack, strings.Join(MatrixAttacks(), ", "))
	}

	// Overhead phase: the same benign workload on an undefended and a
	// defended machine, same seed. The undefended run sets its defense too,
	// so the baseline is the true zero-defense machine whatever env holds.
	base := benignRetired(env, cfg.Seed, defense.Config{})
	defended := benignRetired(env, cfg.Seed, dcfg)
	if base > 0 {
		res.Overhead = 1 - float64(defended)/float64(base)
	}
	return res, nil
}

// runMatrixTimerCell measures the residual success of the §4.2 wake-up
// methods: loop victim and robust attacker share core 0, like the chaos
// harness rows.
func runMatrixTimerCell(env *Env, cfg MatrixCellConfig, res *MatrixCellResult) {
	m := env.NewMachine(CFS, cfg.Seed)
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))

	method := core.MethodNanosleep
	if cfg.Attack == "ptimer" {
		method = core.MethodTimer
	}
	// A sample only counts when the wake kept ε-precision: the victim's run
	// window between consecutive preemptions stayed near the requested 2µs.
	// Timer randomization defeats exactly this — the wake still preempts,
	// but tens of microseconds late (or, for coalesced pending signals,
	// uselessly early), and the side channel's resolution is gone. The
	// attacker gives up after 3×target wakes so a fully blunted cell ends
	// without burning the whole watchdog budget.
	const epsilon = 2 * timebase.Microsecond
	const precision = epsilon + 10*timebase.Microsecond
	collected, wakes := 0, 0
	var lastWake timebase.Time
	att := core.NewRobustAttacker(core.Config{
		Method:    method,
		Epsilon:   epsilon,
		Hibernate: 60 * timebase.Millisecond,
		Measure: func(e *kern.Env, s core.Sample) bool {
			wakes++
			if gap := s.WakeAt.Sub(lastWake); s.InBurst > 1 && gap >= epsilon && gap <= precision {
				collected++
			}
			lastWake = s.WakeAt
			return collected < cfg.Target && wakes < 3*cfg.Target
		},
	}, core.DefaultRetryPolicy())
	finished := false
	m.Spawn("attacker", func(e *kern.Env) {
		att.Run(e)
		finished = true
	}, kern.WithPin(0))

	wd := env.NewWatchdog(cfg.Budget)
	wd.Run(m, func() bool { return finished })

	st := att.Stats()
	res.SuccessRate = float64(collected) / float64(cfg.Target)
	res.Preemptions = st.Preemptions
	res.Bursts = int64(st.Bursts)
	if st.Bursts > 0 {
		res.Amplification = float64(st.Preemptions) / float64(st.Bursts)
	}
	res.TimedOut = wd.TimedOut
}

// runMatrixColoCell measures the residual success of the §4.4 colocation
// recipe: occupy all cores but one, let placement deliver the victim, pin
// the preemption thread after it. A cordon breaks each step.
func runMatrixColoCell(env *Env, cfg MatrixCellConfig, res *MatrixCellResult) {
	succeeded := 0
	var totalPre int64
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + uint64(trial)*7919
		m := env.NewMachine(CFS, seed)
		m.StartBalancer()
		rec := ktrace.NewRecorder()
		m.AttachTracer(rec)

		target := trial % Cores
		plan := colocate.Prepare(m, target)
		m.RunFor(5 * timebase.Millisecond)

		// The victim computes but also blocks periodically, like a real
		// service — each nap's wake is a placement decision, which is the
		// surface wake-placement noise perturbs.
		victim := m.Spawn("victim", func(e *kern.Env) {
			for {
				e.Burn(200 * timebase.Microsecond)
				e.Nanosleep(20 * timebase.Microsecond)
			}
		})
		landed := plan.VictimLandedOnTarget(victim)
		a := core.NewAttacker(core.Config{
			Epsilon:        2 * timebase.Microsecond,
			Hibernate:      60 * timebase.Millisecond,
			StopAfterBurst: true,
			Measure: func(e *kern.Env, s core.Sample) bool {
				e.Burn(12 * timebase.Microsecond)
				return true
			},
		})
		m.Spawn("attacker", a.Run, kern.WithPin(plan.TargetCore))
		m.RunFor(200 * timebase.Millisecond)

		if landed && plan.Stayed(rec.CoreLog[victim.ID()]) {
			succeeded++
		}
		totalPre += a.Stats().Preemptions
		res.Bursts++
		m.Shutdown()
	}
	res.SuccessRate = float64(succeeded) / float64(cfg.Trials)
	res.Preemptions = totalPre
	res.Amplification = float64(totalPre) / float64(cfg.Trials)
}

// benignRetired runs a defense-agnostic mixed workload — oversubscribed
// compute plus periodic sleepers, the shapes every countermeasure taxes
// differently — and returns total retired instructions after 20ms.
func benignRetired(env *Env, seed uint64, d defense.Config) int64 {
	m := env.withDefense(d).NewMachine(CFS, seed)
	defer m.Shutdown()
	m.StartBalancer()
	threads := make([]*kern.Thread, 0, Cores+6)
	for i := 0; i < Cores+2; i++ {
		t := m.Spawn("compute", func(e *kern.Env) {
			e.RunLoopForever(loopvictim.DefaultBody())
		})
		threads = append(threads, t)
	}
	for i := 0; i < 4; i++ {
		t := m.Spawn("service", func(e *kern.Env) {
			for {
				e.Nanosleep(50 * timebase.Microsecond)
				e.Burn(20 * timebase.Microsecond)
			}
		})
		threads = append(threads, t)
	}
	m.RunFor(20 * timebase.Millisecond)
	var total int64
	for _, t := range threads {
		total += t.Retired()
	}
	return total
}

// String renders the cell.
func (r *MatrixCellResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "matrix cell — %s attack vs %s defense\n", r.Attack, r.Defense)
	fmt.Fprintf(&b, "  success rate:  %s\n", fmtPct(r.SuccessRate))
	fmt.Fprintf(&b, "  amplification: %.2f (%d preemptions / %d bursts)\n",
		r.Amplification, r.Preemptions, r.Bursts)
	fmt.Fprintf(&b, "  benign overhead: %s\n", fmtPct(r.Overhead))
	if r.TimedOut {
		fmt.Fprintf(&b, "  flags: timeout\n")
	}
	return b.String()
}
