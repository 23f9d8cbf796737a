package exps

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/defense"
	"repro/internal/eevdf"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// Env is the explicit run environment an experiment builds its machines
// from: the harness configuration (fault injection, defense, watchdog
// budget) and the observation and acquisition sinks
// (telemetry registry, profiler, machine pool, trace capture). The driver
// that starts a run — repro.Options, a campaign entry, a test — builds one
// Env and hands it to the experiment, which passes it down to every
// NewMachine call; nothing is looked up per goroutine or read from process
// globals on the way. Concurrent runs simply use different Envs.
//
// An Env is used by one goroutine at a time, like the MachinePool and
// TraceCapture it may carry. The zero Env builds plain, unobserved,
// unpooled machines.
type Env struct {
	// Faults configures fault injection in every machine (package fault);
	// the zero value turns it off. Each machine forks its injector stream
	// off its own seed, so runs stay deterministic.
	Faults fault.Config
	// Defense installs countermeasures in every machine (package
	// defense); the zero value leaves the machine byte-for-byte undefended.
	Defense defense.Config
	// WatchdogBudget, when positive, overrides the simulated-time budget of
	// every watchdog-guarded phase (NewWatchdog).
	WatchdogBudget timebase.Duration
	// Metrics receives every machine's telemetry; nil turns it off.
	Metrics *metrics.Registry
	// Profiler, when set, attributes wall-clock cost per dispatched event
	// kind.
	Profiler *metrics.Profiler
	// Pool, when set, serves every poolable machine from a per-configuration
	// kern.Pool — byte-identical to a fresh boot, minus the boot cost.
	Pool *MachinePool
	// Trace, when set, records the kernel event stream of every machine.
	Trace *TraceCapture
}

// processPool is the machine pool the process-wide environment carries.
var processPool *MachinePool

// Default returns the process-wide environment: no faults or defense,
// default budget, plus the process-wide registry and profiler
// (metrics.SetAmbient, metrics.SetAmbientProfiler) and machine pool
// (ScopeMachinePool) as installed right now. repro.Options layers its
// settings on top of it.
func Default() *Env {
	return &Env{Metrics: metrics.Ambient(), Profiler: metrics.AmbientProfiler(), Pool: processPool}
}

// ScopeMachinePool installs mp as the process-wide machine pool that
// Default (and so NewMachine) hands out, and returns the restore function.
// Like metrics.SetAmbient it is harness state: call it from a driving
// goroutine with no experiments in flight. Concurrent runners give each
// Env its own pool instead.
func ScopeMachinePool(mp *MachinePool) (restore func()) {
	prev := processPool
	processPool = mp
	return func() { processPool = prev }
}

// NewMachine builds a machine in the process-wide environment (Default).
func NewMachine(kind Sched, seed uint64, opts ...MachineOption) *kern.Machine {
	return Default().NewMachine(kind, seed, opts...)
}

// NewMachine builds the experiment machine for the given scheduler and
// seed under env. With a pool set, the machine comes from the pool for
// this configuration, unless an option installed its own scheduler
// constructor, which always builds fresh.
func (env *Env) NewMachine(kind Sched, seed uint64, opts ...MachineOption) *kern.Machine {
	sp := sched.DefaultParams(Cores)
	// NewSched stays nil until every option ran: a non-nil constructor
	// afterwards means an option supplied a custom scheduler, which the
	// pool key cannot see — those machines bypass the pool.
	p := kern.DefaultParams(Cores, nil)
	p.Seed = seed
	p.Faults = env.Faults
	p.Defense = env.Defense
	p.Metrics = env.Metrics
	p.Profiler = env.Profiler
	if len(opts) > 0 {
		p, sp = applyOptions(p, sp, opts)
	}
	p.Sched = sp
	var m *kern.Machine
	if p.NewSched == nil && env.Pool != nil {
		m = env.Pool.get(kind, p)
	} else {
		if p.NewSched == nil {
			p.NewSched = newSched(kind, sp)
		}
		m = kern.NewMachine(p)
	}
	if env.Trace != nil {
		env.Trace.attach(m, seed, kind)
	}
	// Per-machine attribution: when an ambient span context is installed,
	// each machine opens a machine-tier span (ending the prior machine's),
	// so the timeline attributes the entry's wall and sim time per machine
	// in construction order. A nil context makes this one predicted branch.
	if c := obs.Ambient(); c.Enabled() {
		c.BeginMachinePhase(fmt.Sprintf("%s seed=%d", kind, seed), m)
		if p.Defense.Enabled() {
			c.Mark("defense "+p.Defense.Summary(), nil)
		}
	}
	return m
}

// applyOptions runs opts over copies of the parameters. It is split out so
// that only option-bearing builds move the parameters to the heap: an
// option may retain the pointers it is handed.
func applyOptions(p kern.Params, sp sched.Params, opts []MachineOption) (kern.Params, sched.Params) {
	for _, o := range opts {
		o(&p, &sp)
	}
	return p, sp
}

// newSched returns the per-core scheduler constructor for kind.
func newSched(kind Sched, sp sched.Params) func() sched.Scheduler {
	if kind == EEVDF {
		return func() sched.Scheduler { return eevdf.New(sp) }
	}
	return func() sched.Scheduler { return cfs.New(sp) }
}

// NewWatchdog returns a Watchdog honouring env's budget, falling back to
// the experiment's own default when none is set.
func (env *Env) NewWatchdog(fallback timebase.Duration) *Watchdog {
	if env.WatchdogBudget > 0 {
		return &Watchdog{Budget: env.WatchdogBudget}
	}
	return &Watchdog{Budget: fallback}
}

// withTrialPool gives a multi-trial driver a machine pool, so its
// per-iteration machines reuse one scrubbed shell instead of booting from
// scratch: env itself when it already carries one (a campaign entry's warm
// pool then serves the trials), else a copy with a throwaway pool.
func (env *Env) withTrialPool() *Env {
	if env.Pool != nil {
		return env
	}
	e := *env
	e.Pool = NewMachinePool(nil)
	return &e
}

// withDefense returns a copy of env installing d in every machine.
func (env *Env) withDefense(d defense.Config) *Env {
	e := *env
	e.Defense = d
	return &e
}

// TraceCapture records the kernel event stream of every machine an Env
// builds: a passive trace.Collector rides alongside whatever tracer the
// experiment attaches, so runs are unperturbed (collectors consume no
// randomness). Single-goroutine, like the Env carrying it.
type TraceCapture struct {
	max      int
	machines []capturedMachine
}

type capturedMachine struct {
	seed  uint64
	label string
	col   *trace.Collector
}

// NewTraceCapture returns an empty capture. maxEventsPerMachine bounds each
// machine's share (0 = unbounded); a capped recording is marked truncated.
func NewTraceCapture(maxEventsPerMachine int) *TraceCapture {
	return &TraceCapture{max: maxEventsPerMachine}
}

func (tc *TraceCapture) attach(m *kern.Machine, seed uint64, kind Sched) {
	col := trace.NewCollector(tc.max)
	m.AttachTracer(col)
	tc.machines = append(tc.machines, capturedMachine{seed: seed, label: kind.String(), col: col})
}

// Trace returns the merged recording: one EvMachine boundary event per
// machine, in construction order, followed by that machine's scheduling
// events.
func (tc *TraceCapture) Trace() *trace.Trace {
	tr := &trace.Trace{}
	for _, cm := range tc.machines {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.EvMachine, Seed: cm.seed, Label: cm.label})
		tr.Events = append(tr.Events, cm.col.Events()...)
		tr.Truncated = tr.Truncated || cm.col.Truncated()
	}
	return tr
}
