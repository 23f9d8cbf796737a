// Package kern is the simulation kernel: it owns simulated time, the
// hardware timer queue, per-core runqueues driven by a pluggable scheduler
// (CFS or EEVDF), context switching with realistic switch-in latency and
// jitter, the wakeup path the attack exploits (Scenario 2 of §2.1), the
// scheduler tick (Scenario 1), blocking system calls (Scenario 3), and the
// load balancer the colocation technique of §4.4 leans on.
//
// Threads are goroutines driven in strict lock-step: the machine resumes
// exactly one thread at a time and waits for it to yield, so the whole
// simulation is single-threaded in effect and fully deterministic.
package kern

import (
	"fmt"

	"time"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Params configure the simulated machine.
type Params struct {
	// Cores is the number of logical cores (the paper's machine has 16).
	Cores int
	// Clock converts cycles to simulated time (4 GHz).
	Clock timebase.Clock

	// NewSched builds one runqueue policy instance per core.
	NewSched func() sched.Scheduler
	// Sched are the scheduler tunables (Table 2.1), kept here for
	// well-slept classification and tick pacing.
	Sched sched.Params

	// SwitchCost is the mean context-switch-in latency (kernel path from
	// the scheduling decision to the first victim instruction); jitter is
	// its standard deviation. This window is where zero steps happen.
	SwitchCost   timebase.Duration
	SwitchJitter timebase.Duration

	// TimerIRQLat is the mean latency from hardware timer expiry to the
	// wakeup being processed; jitter is its standard deviation.
	TimerIRQLat    timebase.Duration
	TimerIRQJitter timebase.Duration

	// TimerSlackDefault is the default nanosleep slack (50µs on Linux); the
	// attack lowers it to 1ns via prctl.
	TimerSlackDefault timebase.Duration

	// SyscallEntry is the user→kernel entry cost charged before blocking.
	SyscallEntry timebase.Duration

	// SignalDeliver is the extra switch-in latency when a wakeup delivers a
	// signal to a userspace handler (wake-up Method 2).
	SignalDeliver timebase.Duration

	// InterruptCost is the time an IRQ steals from the interrupted thread
	// when the wakeup does not preempt it.
	InterruptCost timebase.Duration

	// TimestampCycles is the rdtscp overhead folded into timed loads.
	TimestampCycles int64

	// TickPeriod is the scheduler tick (1ms at HZ=1000).
	TickPeriod timebase.Duration

	// BalancePeriod is the periodic load-balance interval; 0 disables it.
	BalancePeriod timebase.Duration

	// WellSleptMin is the minimum sleep for full sleeper placement credit.
	WellSleptMin timebase.Duration

	// SpecWindow and SpecProb model speculative execution at preemption:
	// each of the victim's next SpecWindow loads is touched with
	// probability SpecProb without retiring — the smear in Figure 5.1.
	SpecWindow int
	SpecProb   float64

	// NoiseEvictionsPerWake models ambient channel noise (§4.3): the
	// aggregate LLC evictions caused by other-core traffic between two
	// attacker observations, applied as that many random-line evictions
	// at every wakeup. 0 (the default) is the paper's quiescent setup.
	NoiseEvictionsPerWake float64

	// CacheConfig overrides the cache geometry; zero value uses I9900K.
	CacheConfig cache.SystemConfig

	// Faults configures deterministic fault injection (package fault): at
	// the configured rate the kernel drops or delays timer IRQs, spikes
	// timer slack, spuriously wakes blocked threads, preempts running
	// threads with invisible interfering work, and force-migrates queued
	// threads. The zero value disables injection. The injector draws from
	// its own stream forked off Seed, so faulty runs stay reproducible and
	// fault-free runs consume no extra randomness.
	Faults fault.Config

	// Defense configures installed countermeasures (package defense):
	// timer-slack randomization, wake-placement noise, per-task
	// preemption-budget caps, and SchedGuard-style core cordoning, hooked
	// into the timer and scheduler paths. The zero value installs nothing —
	// provably inert: the hooks are nil-receiver no-ops that consume no
	// randomness, so an undefended run is byte-identical to one built
	// before the layer existed. An enabled defense draws from its own
	// stream forked off Seed, so defended runs stay reproducible per seed.
	Defense defense.Config

	// InvariantStride is the cadence, in processed events, of the full
	// kernel invariant scan (runqueue membership, thread accounting,
	// pinning, scheduler self-checks). 0 selects the default (2048);
	// negative disables all invariant checking, including the O(1)
	// per-event and sched-switch boundary checks. Production paths run the
	// default; tests vary it to show the scans are pure checking. A
	// violation panics with a structured *InvariantError carrying a
	// machine-state dump.
	InvariantStride int

	// Metrics receives the machine's telemetry (package metrics): event
	// dispatch counts, timer IRQ and context-switch counters, wake
	// preemption outcomes, queue-depth histograms, plus whatever the
	// schedulers and microarchitectural models register. nil turns
	// telemetry off and every hook collapses to one branch. Metrics are
	// write-only for the kernel — they never feed back into simulation
	// state.
	Metrics *metrics.Registry

	// Profiler attributes wall-clock cost per dispatched event kind
	// (package metrics). nil means the kernel never reads the host clock.
	Profiler *metrics.Profiler

	// Seed drives all simulation jitter.
	Seed uint64
}

// DefaultParams returns the parameters modelling the paper's test machine
// with the given scheduler factory.
func DefaultParams(cores int, newSched func() sched.Scheduler) Params {
	return Params{
		Cores:             cores,
		Clock:             timebase.DefaultClock,
		NewSched:          newSched,
		Sched:             sched.DefaultParams(cores),
		SwitchCost:        1500 * timebase.Nanosecond,
		SwitchJitter:      120 * timebase.Nanosecond,
		TimerIRQLat:       300 * timebase.Nanosecond,
		TimerIRQJitter:    60 * timebase.Nanosecond,
		TimerSlackDefault: 50 * timebase.Microsecond,
		SyscallEntry:      150 * timebase.Nanosecond,
		SignalDeliver:     400 * timebase.Nanosecond,
		InterruptCost:     600 * timebase.Nanosecond,
		TimestampCycles:   24,
		TickPeriod:        1 * timebase.Millisecond,
		BalancePeriod:     4 * timebase.Millisecond,
		WellSleptMin:      10 * timebase.Millisecond,
		SpecWindow:        2,
		SpecProb:          0.35,
		Seed:              1,
	}
}

// SchedOutReason says why a thread left the CPU, for traces.
type SchedOutReason uint8

// Sched-out reasons.
const (
	OutBlocked SchedOutReason = iota
	OutPreemptedWakeup
	OutPreemptedTick
	OutExited
	// OutPreemptedFault is an injected surprise preemption (package fault):
	// an invisible interfering thread stole the CPU.
	OutPreemptedFault
)

// String names the reason.
func (r SchedOutReason) String() string {
	switch r {
	case OutBlocked:
		return "blocked"
	case OutPreemptedWakeup:
		return "wakeup-preempt"
	case OutPreemptedTick:
		return "tick-preempt"
	case OutExited:
		return "exited"
	case OutPreemptedFault:
		return "fault-preempt"
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Tracer observes scheduling events (the reproduction's eBPF). All hooks
// run synchronously on the machine's event loop.
type Tracer interface {
	// SchedIn fires when t begins a stint on core: decided at decideAt,
	// first instruction possible at startAt.
	SchedIn(t *Thread, core int, decideAt, startAt timebase.Time)
	// SchedOut fires when t leaves the CPU at time at for the given
	// reason.
	SchedOut(t *Thread, core int, at timebase.Time, reason SchedOutReason)
	// Wake fires when t re-enters core's runqueue at time at; preempted
	// reports the Equation 2.2 outcome against curr (nil if the core was
	// idle).
	Wake(t *Thread, core int, at timebase.Time, preempted bool, curr *Thread)
}

// Core is one logical core: a runqueue, the current thread and the
// microarchitecture.
type Core struct {
	id   int
	m    *Machine
	rq   sched.Scheduler
	cpu  *cpu.Core
	curr *Thread
	// clock is the core-local committed time.
	clock timebase.Time
	// currStart is when curr's stint began (for tick policy).
	currStart timebase.Time
	// lastUpdate is when curr's vruntime was last charged.
	lastUpdate timebase.Time
	tickArmed  bool
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Curr returns the on-CPU thread, or nil.
func (c *Core) Curr() *Thread { return c.curr }

// RQ returns the core's scheduler (runqueue).
func (c *Core) RQ() sched.Scheduler { return c.rq }

// CPU returns the core's microarchitecture model.
func (c *Core) CPU() *cpu.Core { return c.cpu }

// NrRunnable counts runnable threads including the current one.
func (c *Core) NrRunnable() int {
	n := c.rq.NrQueued()
	if c.curr != nil {
		n++
	}
	return n
}

// Machine is the simulated computer.
type Machine struct {
	p       Params
	now     timebase.Time
	events  eventQueue
	cores   []*Core
	caches  *cache.System
	threads []*Thread
	// tracers are the attached observers, called in attach order after
	// the kernel's own telemetry and flight recorder (see reportSchedIn).
	tracers []Tracer
	// simRNG drives kernel-side jitter; progRNG is handed to programs.
	simRNG  *rng.RNG
	progRNG *rng.RNG
	// yieldCount increments on every thread→kernel interaction; the
	// fast-forward in Env.RunLoopForever uses it to detect disturbance.
	yieldCount int64
	nextTID    int

	// faults is the fault injector, nil when disabled.
	faults *fault.Injector
	// defense is the installed countermeasure set, nil when no defense is
	// configured (the nil set's hooks are zero-cost no-ops).
	defense *defense.Set
	// invarEvery is the full invariant-scan cadence in events (<=0 means
	// checking is disabled); sinceCheck counts events since the last scan.
	invarEvery int64
	sinceCheck int64

	// tel holds the kernel metric handles (always non-nil; no-op handles
	// when telemetry is off). reg is the registry those handles feed —
	// captured once at construction from Params.Metrics, nil when
	// telemetry is off — so everything attached to this machine reports
	// into the same namespace regardless of which goroutine it runs on.
	// prof is the sim-time profiler (nil when off). flight is the
	// crash-dump flight recorder, always on.
	tel    *machineTelemetry
	reg    *metrics.Registry
	prof   *metrics.Profiler
	flight flightRecorder

	// pool, when non-nil, is the free-pool this machine returns to on
	// Shutdown instead of being discarded (see Pool). running guards
	// against pooling a machine whose Run loop unwound via panic; inPool
	// marks a machine currently parked in its pool (double-Shutdown guard).
	pool    *Pool
	running bool
	inPool  bool
}

// NewMachine builds a machine.
func NewMachine(p Params) *Machine {
	p = normalizeParams(p)
	m := buildShell(p)
	m.init(p)
	return m
}

// normalizeParams applies the construction defaults NewMachine documents.
// It is split out so the pool path can key and build from the same
// normalized view a fresh construction would use.
func normalizeParams(p Params) Params {
	if p.Cores <= 0 {
		p.Cores = 1
	}
	if p.NewSched == nil {
		panic("kern: Params.NewSched is required")
	}
	if p.Clock.CyclesPerNano == 0 {
		p.Clock = timebase.DefaultClock
	}
	if p.CacheConfig.Cores == 0 {
		p.CacheConfig = cache.I9900K(p.Cores)
	}
	return p
}

// buildShell allocates the machine's long-lived memory — the cache system,
// the cores with their runqueue and microarchitecture instances — without
// touching seed-dependent or registry-dependent state. A shell is completed
// by init, for NewMachine and for a Pool miss.
func buildShell(p Params) *Machine {
	caches, err := cache.NewSystem(p.CacheConfig)
	if err != nil {
		panic(fmt.Sprintf("kern: invalid cache config: %v", err))
	}
	m := &Machine{caches: caches}
	m.cores = make([]*Core, p.Cores)
	for i := range m.cores {
		m.cores[i] = &Core{
			id:  i,
			m:   m,
			rq:  p.NewSched(),
			cpu: cpu.NewCore(i, m.caches),
		}
	}
	return m
}

// init brings a shell (fresh from buildShell, or scrubbed by resetForReuse)
// to the exact state NewMachine establishes: RNG streams derived from
// p.Seed in construction order, fault injector and its first check event,
// telemetry resolved against p.Metrics, defense set,
// profiler and flight recorder. Reused memory (RNG structs, the telemetry
// block, the flight ring, runqueue and arena storage) is re-seeded in place
// rather than reallocated, which is what makes a pooled Get allocation-free
// in steady state.
func (m *Machine) init(p Params) {
	m.p = p
	m.nextTID = 1
	root := rng.New(p.Seed)
	m.simRNG = reseed(m.simRNG, root.ForkState(1))
	m.progRNG = reseed(m.progRNG, root.ForkState(2))
	m.invarEvery = int64(p.InvariantStride)
	if m.invarEvery == 0 {
		m.invarEvery = defaultInvariantInterval
	}
	if p.Faults.Enabled() {
		in, err := fault.NewInjector(p.Faults, root.Fork(3))
		if err != nil {
			panic(fmt.Sprintf("kern: invalid fault config: %v", err))
		}
		m.faults = in
		m.schedule(m.newEvent(m.now.Add(m.faults.CheckPeriod()), evFault))
	}

	// Telemetry wiring. The registry is strictly write-only: nothing below
	// feeds a metric value back into sim state.
	reg := p.Metrics
	m.reg = reg
	if m.tel == nil {
		m.tel = &machineTelemetry{}
	}
	m.tel.resolve(reg)
	// Defense wiring, after telemetry so the set's event counters land in
	// the same registry. The RNG fork only happens for an enabled defense,
	// so an undefended machine consumes no extra randomness; sim/prog
	// streams were forked before any conditional fork and are unaffected
	// either way.
	if p.Defense.Enabled() {
		ds, derr := defense.New(p.Defense, p.Cores, root.Fork(4), reg)
		if derr != nil {
			panic(fmt.Sprintf("kern: invalid defense config: %v", derr))
		}
		m.defense = ds
	}
	if reg != nil {
		m.caches.InstrumentMetrics(reg)
		for _, c := range m.cores {
			c.cpu.InstrumentMetrics(reg)
			if ins, ok := c.rq.(metrics.Instrumented); ok {
				ins.InstrumentMetrics(reg)
			}
		}
	}
	m.prof = p.Profiler
	m.flight.reset()
}

// reseed resets r to state in place, allocating only when r is nil.
func reseed(r *rng.RNG, state uint64) *rng.RNG {
	if r == nil {
		return rng.New(state)
	}
	r.SetState(state)
	return r
}

// resetForReuse scrubs a shut-down machine back to shell state so init can
// rebuild it under any seed. Long-lived memory — event freelist, thread
// slice capacity, runqueue nodes, cache/TLB arena slabs, the telemetry
// block, the flight ring — is retained. The caller must have killed all
// thread goroutines first (Shutdown does).
func (m *Machine) resetForReuse() {
	m.events.reset()
	for i := range m.threads {
		m.threads[i] = nil
	}
	m.threads = m.threads[:0]
	for _, c := range m.cores {
		c.curr = nil
		c.clock = 0
		c.currStart = 0
		c.lastUpdate = 0
		c.tickArmed = false
		c.rq.(sched.Resetter).ResetState() // NewPool checked the policy
		c.cpu.Reset()
	}
	m.caches.Reset()
	clear(m.tracers)
	m.tracers = m.tracers[:0]
	m.faults = nil
	m.defense = nil
	m.reg = nil
	m.prof = nil
	m.now = 0
	m.nextTID = 1
	m.yieldCount = 0
	m.sinceCheck = 0
	// m.tel stays allocated and init re-resolves it in place; init also
	// empties the flight ring.
}

// Params returns the machine's configuration.
func (m *Machine) Params() Params { return m.p }

// Metrics returns the telemetry registry the machine reports into (nil
// when telemetry is off; package metrics instruments no-op on nil).
// Receivers and attackers running on the machine's thread goroutines take
// their instrument handles from here.
func (m *Machine) Metrics() *metrics.Registry { return m.reg }

// Now returns the last processed event time.
func (m *Machine) Now() timebase.Time { return m.now }

// Cores returns the machine's cores.
func (m *Machine) Cores() []*Core { return m.cores }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Caches returns the machine-wide cache system.
func (m *Machine) Caches() *cache.System { return m.caches }

// Threads returns all spawned threads.
func (m *Machine) Threads() []*Thread { return m.threads }

// FaultInjector returns the machine's fault injector, or nil when fault
// injection is disabled.
func (m *Machine) FaultInjector() *fault.Injector { return m.faults }

// Defense returns the machine's installed countermeasure set, or nil when
// no defense is configured (the nil set is a valid no-op).
func (m *Machine) Defense() *defense.Set { return m.defense }

// FaultCounts returns the applied-fault counters by kind name, or nil when
// fault injection is disabled.
func (m *Machine) FaultCounts() map[string]int64 {
	if m.faults == nil {
		return nil
	}
	return m.faults.Counts()
}

// AttachTracer adds a passive observer that sees every scheduling event
// from now on, after the tracers attached before it. It is the only way to
// observe the event stream: experiment recorders, trace capture and span
// slices all attach here. Attaching from inside a hook is safe; the new
// tracer sees events from the next one on.
func (m *Machine) AttachTracer(tr Tracer) {
	if tr != nil {
		m.tracers = append(m.tracers, tr)
	}
}

// reportSchedIn, reportSchedOut and reportWake are the kernel's scheduling
// hooks. Each feeds the telemetry handles (no-ops when telemetry is off)
// and the flight recorder, then every attached tracer in attach order.
func (m *Machine) reportSchedIn(t *Thread, core int, decideAt, startAt timebase.Time) {
	m.tel.schedIn.Inc()
	m.flight.record(flightEntry{kind: flightIn, at: decideAt, core: core, tid: t.id, name: t.name, startAt: startAt})
	for _, tr := range m.tracers {
		tr.SchedIn(t, core, decideAt, startAt)
	}
}

func (m *Machine) reportSchedOut(t *Thread, core int, at timebase.Time, reason SchedOutReason) {
	if int(reason) < len(m.tel.schedOut) {
		m.tel.schedOut[reason].Inc()
	}
	m.flight.record(flightEntry{kind: flightOut, at: at, core: core, tid: t.id, name: t.name, reason: reason})
	for _, tr := range m.tracers {
		tr.SchedOut(t, core, at, reason)
	}
}

func (m *Machine) reportWake(t *Thread, core int, at timebase.Time, preempted bool, curr *Thread) {
	m.tel.wakes.Inc()
	if preempted {
		m.tel.wakePreemptHit.Inc()
	} else {
		m.tel.wakePreemptMis.Inc()
	}
	if m.tel.wakeDepth != nil {
		// Queue depth as the waker saw it: the woken thread is already
		// enqueued.
		m.tel.wakeDepth.Observe(int64(m.cores[core].rq.NrQueued()))
	}
	e := flightEntry{kind: flightWake, at: at, core: core, tid: t.id, name: t.name, preempted: preempted}
	if curr != nil {
		e.currTID = curr.id
	}
	m.flight.record(e)
	for _, tr := range m.tracers {
		tr.Wake(t, core, at, preempted, curr)
	}
}

func (m *Machine) coreOf(t *Thread) *Core { return t.core }

// jitterNormal samples a non-negative normally distributed duration.
func (m *Machine) jitterNormal(mean, stddev timebase.Duration) timebase.Duration {
	if stddev == 0 {
		return mean
	}
	v := m.simRNG.Normal(float64(mean), float64(stddev))
	if v < 0 {
		v = 0
	}
	return timebase.Duration(v)
}

// SpawnOption customizes Spawn.
type SpawnOption func(*Thread)

// WithNice sets the thread's nice value.
func WithNice(nice int) SpawnOption {
	return func(t *Thread) { t.task.SetNice(nice) }
}

// WithPin pins the thread to a core.
func WithPin(core int) SpawnOption {
	return func(t *Thread) { t.pinned = core }
}

// WithEnclave marks the thread as running inside an SGX enclave: TLBs are
// flushed and the warm-up context reset on every asynchronous exit.
func WithEnclave() SpawnOption {
	return func(t *Thread) { t.enclave = true }
}

// WithITLB makes the thread's instruction fetches consult the iTLB model
// (sensitivity to the §4.3 performance degradation).
func WithITLB() SpawnOption {
	return func(t *Thread) { t.ctx.UseITLB = true }
}

// WithFetchThroughCache routes the thread's instruction fetches through the
// cache hierarchy (sensitivity to the §5.2 code-line eviction).
func WithFetchThroughCache() SpawnOption {
	return func(t *Thread) { t.ctx.FetchThroughCache = true }
}

// Spawn creates and starts a thread at the current time. Unpinned threads
// are placed on the idlest core (fewest runnable threads, idle preferred) —
// the select-idle placement the colocation technique of §4.4 exploits.
func (m *Machine) Spawn(name string, prog Func, opts ...SpawnOption) *Thread {
	t := &Thread{
		id:         m.nextTID,
		name:       name,
		m:          m,
		prog:       prog,
		pinned:     -1,
		timerSlack: m.p.TimerSlackDefault,
	}
	m.nextTID++
	t.task = sched.NewTask(t.id, name, 0)
	for _, o := range opts {
		o(t)
	}
	// SchedGuard-style cordoning: pinning onto a reserved core is rejected
	// (the affinity call fails) and the thread falls back to scheduler
	// placement among the cores it is admitted to.
	if t.pinned >= 0 && m.defense.PinBlocked(t.name, t.pinned) {
		t.pinned = -1
	}
	m.threads = append(m.threads, t)
	m.tel.spawns.Inc()
	t.start()

	var c *Core
	if t.pinned >= 0 {
		c = m.cores[t.pinned]
	} else {
		c = m.idlestCoreFor(t.name)
	}
	t.core = c
	// Bring the destination queue's accounting up to date so placement
	// sees a fresh floor/average.
	c.chargeCurr(m.now)
	// New tasks start at the runqueue's placement floor: enqueue as a
	// wakeup so CFS clamps a zero vruntime up to min_vruntime − slack and
	// EEVDF places around the average, without sleeper credit.
	t.task.WellSlept = false
	t.task.State = sched.StateRunnable
	c.rq.Enqueue(t.task, true)
	if c.curr == nil {
		c.pickAndSwitch(m.now)
	} else {
		c.armTick(m.now)
	}
	return t
}

// idlestCore returns the core with the fewest runnable threads (ties to the
// lowest index), preferring fully idle cores.
func (m *Machine) idlestCore() *Core {
	best := m.cores[0]
	bestLoad := best.NrRunnable()
	for _, c := range m.cores[1:] {
		if l := c.NrRunnable(); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// idlestCoreFor is idlestCore restricted to the cores the named thread is
// admitted to under an installed cordon; with no defense it reduces to
// exactly idlestCore (same scan order and tie-breaking). A fully cordoned
// machine cannot be constructed (defense.New refuses it), so at least one
// candidate always exists.
func (m *Machine) idlestCoreFor(name string) *Core {
	if m.defense == nil {
		return m.idlestCore()
	}
	var best *Core
	bestLoad := 0
	for _, c := range m.cores {
		if !m.defense.CoreAllowed(name, c.id) {
			continue
		}
		if l := c.NrRunnable(); best == nil || l < bestLoad {
			best, bestLoad = c, l
		}
	}
	return best
}

// schedule pushes an event.
func (m *Machine) schedule(e *event) { m.events.push(e) }

// newEvent takes a zeroed event from the queue's pool and fills the common
// fields; the caller sets any target references before scheduling it.
func (m *Machine) newEvent(at timebase.Time, kind eventKind) *event {
	e := m.events.alloc()
	e.at = at
	e.kind = kind
	return e
}

// Run processes events until cond returns true (checked after every event),
// the event queue drains, or the deadline passes. It returns the reached
// time.
//
// Execution between events can itself create earlier events (a thread
// blocking in nanosleep schedules its wake a few microseconds out while the
// next queued event is a millisecond away), so grants handed to threads are
// dynamically bounded by the live earliest event: see advanceCore.
func (m *Machine) Run(deadline timebase.Time, cond func() bool) timebase.Time {
	// running stays set across a panic unwind, so a machine whose Run loop
	// died mid-dispatch is never returned to a pool (Shutdown checks it).
	m.running = true
	for {
		ev := m.events.peek()
		if ev == nil && deadline == timebase.Never {
			// Nothing will ever happen: do not advance into infinity.
			m.running = false
			return m.now
		}
		T := deadline
		if ev != nil && ev.at < T {
			T = ev.at
		}
		// Bring every core up to T (or to any earlier event created along
		// the way).
		for _, c := range m.cores {
			m.advanceCore(c, T)
		}
		ev = m.events.peek() // the advance may have queued earlier events
		if ev == nil || ev.at > deadline {
			m.now = deadline
			m.syncAccounting()
			m.running = false
			return m.now
		}
		m.events.pop()
		if m.invarEvery > 0 && ev.at < m.now {
			panic(m.invariantError("time-monotonic",
				fmt.Sprintf("event at %s behind machine time %s", ev.at, m.now)))
		}
		m.now = ev.at
		m.dispatch(ev)
		// The event is dead once dispatched — nothing retains it (see the
		// pooling contract on type event) — so recycle it.
		m.events.release(ev)
		if m.invarEvery > 0 {
			m.sinceCheck++
			if m.sinceCheck >= m.invarEvery {
				m.sinceCheck = 0
				if err := m.CheckInvariants(); err != nil {
					panic(err)
				}
			}
		}
		if cond != nil && cond() {
			m.syncAccounting()
			m.running = false
			return m.now
		}
	}
}

// syncAccounting charges every core's current thread up to now, so that
// vruntime/SumExec reads between Run calls observe consistent state (the
// simulation otherwise charges lazily, at scheduling decisions).
func (m *Machine) syncAccounting() {
	for _, c := range m.cores {
		c.chargeCurr(m.now)
	}
}

// RunFor runs for d of simulated time.
func (m *Machine) RunFor(d timebase.Duration) timebase.Time {
	return m.Run(m.now.Add(d), nil)
}

// Shutdown unwinds all live thread goroutines. A machine forked from a Pool
// is scrubbed and returned to the pool for reuse; it must not be used after
// Shutdown either way. A machine whose Run loop unwound via panic is killed
// but never pooled, so a crashed simulation cannot poison later forks.
func (m *Machine) Shutdown() {
	if m.inPool {
		return
	}
	for _, t := range m.threads {
		t.kill()
	}
	if m.pool != nil && !m.running {
		m.resetForReuse()
		m.inPool = true
		m.pool.put(m)
	}
}

// advanceCore executes core c's current thread(s) up to time T, handling
// blocking and exits along the way. Each grant is re-bounded by the live
// earliest queued event, because handling a block can schedule an event
// (the thread's own wake, a fresh tick) earlier than T; the outer Run loop
// then dispatches that event before re-advancing.
func (m *Machine) advanceCore(c *Core, T timebase.Time) {
	for {
		bound := T
		if ev := m.events.peek(); ev != nil && ev.at < bound {
			bound = ev.at
		}
		if c.curr == nil {
			if c.clock < bound {
				c.clock = bound
			}
			return
		}
		t := c.curr
		if t.clock >= bound {
			if c.clock < bound {
				c.clock = bound
			}
			return
		}
		req := t.run(bound)
		m.yieldCount++
		switch req.kind {
		case yHorizon:
			// The grant is exhausted; the loop header decides whether a
			// fresh (possibly re-bounded) grant is due.
			continue
		case yBlock:
			c.chargeCurr(req.at)
			t.task.State = sched.StateBlocked
			t.sleepStart = req.at
			t.blockedIn = req.block
			// Snapshot EEVDF lag while the departing thread still counts
			// toward the queue average (Dequeue is a queue no-op for the
			// current thread but records VLag).
			c.rq.Dequeue(t.task)
			c.rq.SetCurr(nil)
			c.curr = nil
			c.clock = req.at
			m.reportSchedOut(t, c.id, req.at, OutBlocked)
			if req.block == blockSleep {
				m.armNanosleep(t, req.at, req.sleep)
			}
			c.pickAndSwitch(req.at)
		case yExit:
			c.chargeCurr(req.at)
			t.task.State = sched.StateDone
			t.done = true
			c.rq.SetCurr(nil)
			c.curr = nil
			c.clock = req.at
			m.reportSchedOut(t, c.id, req.at, OutExited)
			c.pickAndSwitch(req.at)
		}
	}
}

// chargeCurr charges the current thread's vruntime up to time x. Charging
// real time must never move a task's virtual time backwards; the inline
// check converts a policy bug into a structured invariant failure.
func (c *Core) chargeCurr(x timebase.Time) {
	if c.curr == nil {
		return
	}
	if d := x.Sub(c.lastUpdate); d > 0 {
		before := c.curr.task.Vruntime
		c.rq.UpdateCurr(c.curr.task, d)
		c.lastUpdate = x
		if c.m.invarEvery > 0 && c.curr.task.Vruntime < before {
			panic(c.m.invariantError("vruntime-monotonic",
				fmt.Sprintf("charging %s to task %d (%s) moved vruntime %d -> %d",
					d, c.curr.task.ID, c.curr.task.Name, before, c.curr.task.Vruntime)))
		}
	}
}

// pickAndSwitch selects the next thread from the runqueue and switches it
// in at time at. With an empty queue the core goes idle and tries a
// newly-idle balance pull.
func (c *Core) pickAndSwitch(at timebase.Time) {
	next := c.rq.PickNext()
	if next == nil {
		c.rq.SetCurr(nil)
		c.curr = nil
		if c.m.newlyIdlePull(c, at) {
			return
		}
		return
	}
	c.switchTo(c.m.threadByTask(next), at)
}

// switchTo makes t the current thread of c, applying switch-in latency.
func (c *Core) switchTo(t *Thread, at timebase.Time) {
	m := c.m
	if m.invarEvery > 0 {
		c.checkSwitchBoundary(t)
	}
	cost := m.jitterNormal(m.p.SwitchCost, m.p.SwitchJitter)
	cost += t.signalExtra
	t.signalExtra = 0
	start := at.Add(cost)
	t.task.State = sched.StateRunning
	t.clock = start
	t.ctx.ResetSchedIn()
	c.curr = t
	c.rq.SetCurr(t.task)
	c.currStart = start
	c.lastUpdate = start
	c.clock = at
	m.reportSchedIn(t, c.id, at, start)
	c.armTick(at)
}

// deschedCurr puts the current thread back on the runqueue (it stays
// runnable), applying the SGX AEX and speculative-smear effects.
func (c *Core) deschedCurr(at timebase.Time, reason SchedOutReason) timebase.Time {
	t := c.curr
	// An instruction in flight retires before the trap: the switch point
	// is wherever the thread's clock got to, if it executed at all this
	// stint.
	eff := at
	if t.ctx.Seq > 0 && t.clock > eff {
		eff = t.clock
	}
	c.chargeCurr(eff)
	t.task.State = sched.StateRunnable
	c.rq.SetCurr(nil)
	c.curr = nil
	c.rq.Enqueue(t.task, false)
	c.m.reportSchedOut(t, c.id, eff, reason)
	c.m.applySpeculation(t)
	if t.enclave {
		// Asynchronous enclave exit: the TLB entries of enclave pages are
		// flushed and the pipeline restarts cold on resume.
		c.cpu.TLBs.FlushAll()
	}
	return eff
}

// threadByTask maps a scheduler task back to its thread. An unknown task
// means a runqueue holds state the kernel never created — a structural
// invariant violation, reported with a machine dump.
func (m *Machine) threadByTask(task *sched.Task) *Thread {
	if t := m.lookupTask(task); t != nil {
		return t
	}
	panic(m.invariantError("task-thread-mapping",
		fmt.Sprintf("unknown task %d (%s)", task.ID, task.Name)))
}

// lookupTask is threadByTask without the violation panic.
func (m *Machine) lookupTask(task *sched.Task) *Thread {
	for _, t := range m.threads {
		if t.task == task {
			return t
		}
	}
	return nil
}

// applySpeculation models transient execution at preemption: some of the
// thread's upcoming loads are touched without retiring, polluting the cache
// channel (the smear visible in Figure 5.1).
func (m *Machine) applySpeculation(t *Thread) {
	if m.p.SpecWindow <= 0 || m.p.SpecProb <= 0 || t.specPeek == nil {
		return
	}
	for _, in := range t.specPeek(m.p.SpecWindow * 3) {
		if in.Kind == isa.Load {
			if m.simRNG.Bool(m.p.SpecProb) {
				m.caches.PrefetchData(t.core.id, in.Mem)
			}
		}
		if in.Kind == isa.Fence {
			// Fences (the LVI mitigation) stop the speculative window.
			break
		}
	}
}

// armTick schedules the core's scheduler tick when competition exists.
func (c *Core) armTick(at timebase.Time) {
	if c.tickArmed || c.curr == nil || c.rq.NrQueued() == 0 {
		return
	}
	c.tickArmed = true
	ev := c.m.newEvent(at.Add(c.m.p.TickPeriod), evTick)
	ev.core = c
	c.m.schedule(ev)
}

// dispatch handles one event at m.now, counting it and — only when a
// profiler is attached — attributing its wall-clock cost. The host clock is
// never read otherwise, and neither counters nor profile influence what the
// event does.
func (m *Machine) dispatch(ev *event) {
	if int(ev.kind) < len(m.tel.events) {
		m.tel.events[ev.kind].Inc()
	}
	if m.prof != nil {
		t0 := time.Now()
		m.dispatchKind(ev)
		m.prof.Observe(ev.kind.String(), time.Since(t0))
		return
	}
	m.dispatchKind(ev)
}

func (m *Machine) dispatchKind(ev *event) {
	switch ev.kind {
	case evTimerFire:
		m.handleTimerFire(ev)
	case evTick:
		m.handleTick(ev.core)
	case evBalance:
		m.periodicBalance()
	case evSignal:
		m.handleSignal(ev.thread)
	case evIOWake:
		m.handleIOWake(ev.thread)
	case evFault:
		m.handleFaultCheck()
	}
}

// handleTick runs the Scenario 1 check on a core.
func (m *Machine) handleTick(c *Core) {
	c.tickArmed = false
	if c.curr == nil {
		return
	}
	t := c.curr
	c.chargeCurr(m.now)
	// The tick interrupt itself steals a little time from the thread.
	if t.clock < m.now.Add(m.p.InterruptCost) {
		t.clock = m.now.Add(m.p.InterruptCost)
	}
	ranFor := m.now.Sub(c.currStart)
	if c.rq.TickPreempt(t.task, ranFor) {
		at := c.deschedCurr(m.now, OutPreemptedTick)
		c.pickAndSwitch(at)
	} else {
		c.armTick(m.now)
	}
}

// StartBalancer begins periodic load balancing (call once per experiment if
// migration behaviour matters).
func (m *Machine) StartBalancer() {
	if m.p.BalancePeriod > 0 {
		m.schedule(m.newEvent(m.now.Add(m.p.BalancePeriod), evBalance))
	}
}
