// Package exps contains one driver per paper artifact (table, figure or
// in-text measurement). Each driver builds a simulated machine, runs the
// attack, and returns a result struct that renders the same rows/series the
// paper reports; the benchmark harness, the cplab CLI and the examples all
// call into this package. The per-experiment index lives in DESIGN.md.
package exps

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Sched selects the scheduler under attack.
type Sched uint8

// Scheduler kinds.
const (
	CFS Sched = iota
	EEVDF
)

// String names the scheduler.
func (s Sched) String() string {
	if s == CFS {
		return "CFS"
	}
	return "EEVDF"
}

// Cores is the paper's machine size (i9-9900K: 16 logical cores with HT,
// which the threat model does not rely on; the scheduler tunables scale
// with this).
const Cores = 16

// MachineOption mutates machine parameters before construction.
type MachineOption func(*kern.Params, *sched.Params)

// WithSchedParams overrides scheduler tunables (ablations: gentle sleepers
// off, wakeup preemption off).
func WithSchedParams(mut func(*sched.Params)) MachineOption {
	return func(_ *kern.Params, sp *sched.Params) { mut(sp) }
}

// WithKernParams overrides kernel parameters (speculation, jitter).
func WithKernParams(mut func(*kern.Params)) MachineOption {
	return func(kp *kern.Params, _ *sched.Params) { mut(kp) }
}

// Watchdog bounds an experiment phase by a simulated-time budget, so a
// machine perturbed into unproductiveness (heavy fault injection starving
// the attacker) ends with partial results instead of running forever.
type Watchdog struct {
	// Budget is the simulated-time allowance per Run call.
	Budget timebase.Duration
	// TimedOut is latched when any Run call exhausts its budget before its
	// condition held.
	TimedOut bool
}

// Run drives m until cond holds or the budget elapses, and reports whether
// the condition was reached in time.
func (w *Watchdog) Run(m *kern.Machine, cond func() bool) bool {
	m.Run(m.Now().Add(w.Budget), cond)
	if cond() {
		return true
	}
	w.TimedOut = true
	return false
}

// InvokedVictim is a victim thread that busy-waits (accumulating vruntime,
// like any active process) until invoked, then runs its sensitive program
// once and parks in a postlude loop.
type InvokedVictim struct {
	// Thread is the spawned victim.
	Thread *kern.Thread
	// invoked is set by Invoke; done is set by the victim after the
	// sensitive program retires.
	invoked bool
	done    bool
}

// pollBody is the victim's busy prelude/postlude work.
func pollBody() []isa.Inst {
	b := isa.NewBuilder("victim-poll", 0x0048_0000, 4)
	b.ALU(32)
	return b.Build().Insts
}

// SpawnInvokedVictim starts the victim on core, running prog once invoked.
func SpawnInvokedVictim(m *kern.Machine, name string, prog *isa.Program, core int, opts ...kern.SpawnOption) *InvokedVictim {
	opts = append([]kern.SpawnOption{kern.WithPin(core)}, opts...)
	return SpawnInvokedVictimOpts(m, name, prog, opts...)
}

// SpawnInvokedVictimOpts is the placement-driven variant: with no pin
// option the scheduler places the victim (the §4.4 colocation path).
func SpawnInvokedVictimOpts(m *kern.Machine, name string, prog *isa.Program, opts ...kern.SpawnOption) *InvokedVictim {
	v := &InvokedVictim{}
	body := pollBody()
	v.Thread = m.Spawn(name, func(e *kern.Env) {
		e.RunLoopUntil(body, func() bool { return v.invoked })
		e.ExecProgram(prog)
		v.done = true
		e.RunLoopForever(body)
	}, opts...)
	return v
}

// Invoke releases the victim into its sensitive program. Call it from the
// attacker thread (the threat model lets the attacker start the victim).
func (v *InvokedVictim) Invoke() { v.invoked = true }

// Done reports whether the sensitive program finished.
func (v *InvokedVictim) Done() bool { return v.done }

// Reinvokable victims (§5.2 runs the victim twice on the same key) are
// modelled by constructing a fresh machine per run; determinism comes from
// the seed.

// fmtDur renders a duration for labels.
func fmtDur(d timebase.Duration) string { return d.String() }

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
