package kern

import (
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/timebase"
	"repro/internal/tlb"
)

// Env is the execution environment a thread body runs against: simulated
// instructions, timed memory operations (the side-channel receiver
// primitives), and the system calls the attack uses (nanosleep, prctl
// timer-slack, POSIX timers, pause).
//
// Every Env method may only be called from the owning thread's body.
type Env struct {
	t *Thread
	m *Machine
}

// Thread returns the owning thread.
func (e *Env) Thread() *Thread { return e.t }

// Machine returns the simulated machine.
func (e *Env) Machine() *Machine { return e.m }

// Metrics returns the machine's telemetry registry (nil when telemetry is
// off). Receivers constructed inside thread bodies take instrument handles
// from here: the machine's registry is the run's registry, whichever
// goroutine the body runs on.
func (e *Env) Metrics() *metrics.Registry { return e.m.reg }

// Now returns the thread's current simulated time.
func (e *Env) Now() timebase.Time { return e.t.clock }

// RNG returns a deterministic random stream for program-level randomness
// (e.g. the attacker's randomized plaintexts). Safe because threads run in
// strict lock-step.
func (e *Env) RNG() *rng.RNG { return e.m.progRNG }

// maybeYield parks the thread whenever its grant is exhausted, resuming
// with fresh horizons until time remains.
func (e *Env) maybeYield() {
	t := e.t
	for t.clock >= t.horizon {
		t.park(yieldReq{kind: yHorizon, at: t.clock})
	}
}

// advance consumes d of CPU time, yielding at grant boundaries. A park
// that switches the thread out and back in leaves end stale: the time off
// CPU counts toward d. However stale end is, the clock never falls behind
// the instant the thread was last switched in, so a thread preempted
// mid-burn and resumed much later does not run in the machine's past.
func (e *Env) advance(d timebase.Duration) {
	t := e.t
	end := t.clock.Add(d)
	for t.clock < end {
		e.maybeYield()
		t.clock = timebase.MaxTime(timebase.MinTime(end, t.horizon), t.schedIn)
	}
}

// Burn consumes exactly d of CPU time (attacker measurement cost models,
// compute-bound dummy threads).
func (e *Env) Burn(d timebase.Duration) { e.advance(d) }

// cycles converts a cycle count to simulated time.
func (e *Env) cycles(c int64) timebase.Duration {
	return e.m.p.Clock.CyclesToDuration(c)
}

// Exec executes one instruction. The instruction *starts* only once the
// grant allows it (interrupts are taken at instruction boundaries), then
// retires fully even if its latency overruns the horizon — the overrun is
// visible to the kernel as thread time ahead of the event that fired.
func (e *Env) Exec(in isa.Inst) {
	e.maybeYield()
	cyc := e.m.coreOf(e.t).cpu.Exec(&e.t.ctx, in)
	e.t.clock = e.t.clock.Add(e.cycles(cyc))
}

// execBody executes insts[*pos:] in order, keeping *pos at the index of the
// next instruction to execute at every park, so a specPeek reading it sees
// the not-yet-executed suffix. It retires exactly as one Exec per
// instruction would, but a plain run (cpu.Core.PlainRun) retires in closed
// form: its instructions all cost the same d, so of the run's n the ones
// that start before the horizon — ceil((horizon-clock)/d) of them — retire
// in one RetirePlain call, and the next loop turn parks where Exec's
// maybeYield would have.
func (e *Env) execBody(insts []isa.Inst, pos *int) {
	t := e.t
	for i := *pos; i < len(insts); i = *pos {
		e.maybeYield()
		c := e.m.coreOf(t).cpu
		n, cyc := c.PlainRun(&t.ctx, insts[i:])
		if n == 0 {
			cyc = c.Exec(&t.ctx, insts[i])
			t.clock = t.clock.Add(e.cycles(cyc))
			*pos = i + 1
			continue
		}
		d := e.cycles(cyc)
		// maybeYield left room > 0; instruction j starts at clock + j*d.
		if room := t.horizon.Sub(t.clock); d > 0 && timebase.Duration(n-1)*d >= room {
			n = int((room-1)/d) + 1
		}
		c.RetirePlain(&t.ctx, insts[i:i+n])
		t.clock = t.clock.Add(timebase.Duration(n) * d)
		*pos = i + n
	}
}

// peekAt returns a specPeek over insts that reads the next instruction's
// index from *pos.
func peekAt(insts []isa.Inst, pos *int) func(n int) []isa.Inst {
	return func(n int) []isa.Inst {
		lo, hi := *pos, *pos+n
		if hi > len(insts) {
			hi = len(insts)
		}
		if lo >= hi {
			return nil
		}
		return insts[lo:hi]
	}
}

// ExecProgram executes all instructions of p in order, exposing the
// not-yet-executed suffix to the kernel's speculative-smear model, and
// restores the previous specPeek when done. It costs what one Exec per
// instruction would, but retires plain runs in closed form (execBody).
func (e *Env) ExecProgram(p *isa.Program) {
	i := 0
	prev := e.t.specPeek
	e.t.specPeek = peekAt(p.Insts, &i)
	e.execBody(p.Insts, &i)
	e.t.specPeek = prev
}

// RunLoopForever executes body in an infinite loop, exposing the rest of
// the current iteration to the kernel's speculative-smear model.
// Steady-state iterations are fast-forwarded in O(1) up to just below the
// grant horizon (see loop), keeping preemption boundaries instruction-exact
// while making multi-second quiescent phases affordable.
func (e *Env) RunLoopForever(body []isa.Inst) {
	i := 0
	e.t.specPeek = peekAt(body, &i)
	e.loop(body, &i, nil)
}

// RunLoopUntil executes body repeatedly until stop() reports true,
// checking once per iteration. It fast-forwards steady-state iterations
// like RunLoopForever; this is safe because stop's value can only change
// while some other thread runs, which always ends the current grant first.
// Victims use it to busy-wait (accumulating vruntime, like the paper's
// busy victim processes) until the attacker invokes them. Unlike
// RunLoopForever it installs no specPeek: a poll loop feeds nothing to the
// speculation model.
func (e *Env) RunLoopUntil(body []isa.Inst, stop func() bool) {
	var i int
	e.loop(body, &i, stop)
}

// loop executes body repeatedly, from instruction 0 each time, until stop
// reports true (never, for a nil stop). An iteration that costs what the
// one before it cost, with no kernel interaction in or between them, marks
// a steady state: the whole iterations that fit strictly below the horizon,
// less one, are skipped in O(1) at that cost.
func (e *Env) loop(body []isa.Inst, pos *int, stop func() bool) {
	t := e.t
	var prevCost timebase.Duration = -1
	var prevYields int64 = -1
	for stop == nil || !stop() {
		start := t.clock
		yieldsBefore := e.m.yieldCount
		*pos = 0
		e.execBody(body, pos)
		cost := t.clock.Sub(start)
		sawKernel := e.m.yieldCount != yieldsBefore
		if !sawKernel && cost == prevCost && prevYields == yieldsBefore && cost > 0 {
			if room := t.horizon.Sub(t.clock); room > cost {
				n := int64(room/cost) - 1
				if n > 0 {
					t.clock = t.clock.Add(timebase.Duration(n) * cost)
					t.ctx.Seq += n * int64(len(body))
					t.ctx.Retired += n * int64(len(body))
				}
			}
		}
		if sawKernel {
			prevCost, prevYields = -1, -1
		} else {
			prevCost, prevYields = cost, yieldsBefore
		}
	}
}

// FlushLine clflushes the line containing addr, charging its cost.
func (e *Env) FlushLine(addr uint64) {
	e.maybeYield()
	c := e.m.coreOf(e.t).cpu
	c.Flush(addr)
	e.t.clock = e.t.clock.Add(e.cycles(c.P.Flush))
}

// TimedLoad loads addr and returns the observed latency in cycles — the
// attacker's rdtscp-wrapped reload/probe primitive.
func (e *Env) TimedLoad(addr uint64) int64 {
	e.maybeYield()
	cyc := e.m.coreOf(e.t).cpu.TimeLoad(addr)
	// The measurement itself (two rdtscp plus the load) costs a bit more
	// than the load latency.
	e.t.clock = e.t.clock.Add(e.cycles(cyc + e.m.p.TimestampCycles))
	return cyc
}

// Load loads addr without timing it (warming structures, touching eviction
// sets).
func (e *Env) Load(addr uint64) {
	e.maybeYield()
	cyc := e.m.coreOf(e.t).cpu.TimeLoad(addr)
	e.t.clock = e.t.clock.Add(e.cycles(cyc))
}

// TouchPage performs a data access used purely for its TLB fill effect
// (building TLB eviction sets, Gras et al.).
func (e *Env) TouchPage(addr uint64) {
	e.maybeYield()
	core := e.m.coreOf(e.t).cpu
	cyc := core.TLBs.TranslateData(addr)
	// Touch a line of the page too, as a real access would.
	cyc += core.TimeLoad(addr)
	e.t.clock = e.t.clock.Add(e.cycles(cyc))
}

// FetchTouch executes a tiny instruction at pc purely for its front-end
// side effects: it fills (or ages) the iTLB entry of pc's page and the
// instruction cache line. The attacker's iTLB-eviction sets are "touched"
// by executing a return stub in each eviction page (Gras et al.).
func (e *Env) FetchTouch(pc uint64) {
	e.maybeYield()
	core := e.m.coreOf(e.t).cpu
	cyc := core.TLBs.TranslateFetch(pc)
	lat, _ := core.Caches.Fetch(core.ID, pc)
	e.t.clock = e.t.clock.Add(e.cycles(cyc + lat))
}

// HitThreshold returns the cycles threshold separating cache hits from
// memory accesses for probe classification.
func (e *Env) HitThreshold() int64 { return e.m.caches.HitThreshold() }

// CacheSystem exposes the machine's cache model (set-index calculations for
// eviction-set construction; state inspection belongs in tests only).
func (e *Env) CacheSystem() *cache.System { return e.m.caches }

// ITLB returns this core's instruction TLB (the attacker consults its own
// core's geometry when building eviction sets).
func (e *Env) ITLB() *tlb.TLB { return e.m.coreOf(e.t).cpu.TLBs.ITLB }

// STLB returns this core's second-level TLB.
func (e *Env) STLB() *tlb.TLB { return e.m.coreOf(e.t).cpu.TLBs.STLB }

// SetTimerSlack models prctl(PR_SET_TIMERSLACK): the slack added to
// nanosleep expirations. The unprivileged minimum is 1ns.
func (e *Env) SetTimerSlack(d timebase.Duration) {
	if d < 1 {
		d = 1
	}
	e.t.timerSlack = d
	e.advance(e.m.p.SyscallEntry)
}

// Nanosleep blocks the thread for at least d (§4.2 Method 1). The actual
// wake-up is d plus timer slack plus interrupt-delivery jitter later; the
// thread re-enters its runqueue with the Equation 2.1 placement and runs
// the Equation 2.2 preemption check against the then-current thread.
func (e *Env) Nanosleep(d timebase.Duration) {
	t := e.t
	// Syscall entry consumes CPU before the thread blocks.
	e.advance(e.m.p.SyscallEntry)
	t.park(yieldReq{kind: yBlock, at: t.clock, block: blockSleep, sleep: d})
}

// Pause blocks until a (timer) signal arrives (§4.2 Method 2). If a signal
// is already pending it returns immediately.
func (e *Env) Pause() {
	t := e.t
	if t.pendingSignals > 0 {
		t.pendingSignals--
		return
	}
	e.advance(e.m.p.SyscallEntry)
	t.park(yieldReq{kind: yBlock, at: t.clock, block: blockPause})
	if t.pendingSignals > 0 {
		t.pendingSignals--
	}
}

// TimerCreate creates a periodic POSIX timer owned by the thread
// (timer_create + timer_settime). Each expiry sends the thread a signal:
// if the thread is paused it wakes — re-entering the runqueue exactly like
// a nanosleep wake — and the caller's handler code runs after Pause
// returns.
func (e *Env) TimerCreate(interval timebase.Duration) *PTimer {
	e.advance(e.m.p.SyscallEntry)
	// Arming a fresh timer discards signals pending from a previous one
	// (the attacker flushes its signal queue before a burst).
	e.t.pendingSignals = 0
	return e.m.newPeriodicTimer(e.t, interval)
}

// Signal sends target a userspace signal (kill/pipe-write equivalent): a
// target blocked in Pause wakes through the normal wakeup path — including
// the Equation 2.1 placement and Equation 2.2 preemption check — otherwise
// the signal stays pending. The round-robin multi-thread budget extension
// (§4.3) uses this to hand the attack to the next recharged thread.
// Delivery is asynchronous: the kernel processes it a propagation delay
// after the syscall.
func (e *Env) Signal(target *Thread) {
	e.advance(e.m.p.SyscallEntry)
	ev := e.m.newEvent(e.t.clock.Add(e.m.p.SignalDeliver), evSignal)
	ev.thread = target
	e.m.schedule(ev)
}
