package kern

import (
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// armNanosleep programs the one-shot hardware timer for a sleeping thread.
// The wake is processed at requested-expiry + timer-slack delay + interrupt
// delivery latency: with the default 50µs slack the wake time is far too
// coarse for the attack, which is why the attacker first lowers slack to
// 1ns via prctl (§4.2 Method 1).
func (m *Machine) armNanosleep(t *Thread, at timebase.Time, d timebase.Duration) {
	fire := at.Add(d)
	var slackDelay timebase.Duration
	if t.timerSlack > 1 {
		slackDelay = timebase.Duration(m.simRNG.Int63n(int64(t.timerSlack)))
	}
	irq := m.jitterNormal(m.p.TimerIRQLat, m.p.TimerIRQJitter)
	deliver := fire.Add(slackDelay + irq)
	if m.faults != nil {
		// Injected timer faults (package fault): a dropped IRQ is recovered
		// DropRetry later; delay and slack-spike faults stretch delivery.
		if _, extra, ok := m.faults.NanosleepFault(at); ok {
			deliver = deliver.Add(extra)
		}
	}
	// Installed slack randomization (package defense): the kernel refuses
	// to honour a 1ns PR_SET_TIMERSLACK precisely, stretching delivery by a
	// random bounded amount.
	deliver = deliver.Add(m.defense.NanosleepExtra(at))
	ev := m.newEvent(deliver, evTimerFire)
	ev.thread = t
	t.wakeEvent = ev
	m.tel.timerArmedNanosleep.Inc()
	m.schedule(ev)
}

// PTimer is a periodic POSIX timer (timer_create + timer_settime with an
// interval, §4.2 Method 2). Expiries are scheduled on an absolute cadence
// so the period does not drift, and "timer interrupts are handled
// immediately by the kernel" — no timer slack applies.
type PTimer struct {
	m        *Machine
	owner    *Thread
	interval timebase.Duration
	// base is the next ideal expiry.
	base    timebase.Time
	stopped bool
	// Fires counts expiries, for tests.
	Fires int64
}

// newPeriodicTimer creates and arms a periodic timer for t.
func (m *Machine) newPeriodicTimer(t *Thread, interval timebase.Duration) *PTimer {
	if interval <= 0 {
		interval = timebase.Microsecond
	}
	pt := &PTimer{m: m, owner: t, interval: interval, base: t.clock.Add(interval)}
	pt.armNext()
	return pt
}

// armNext schedules the next expiry with fresh delivery jitter. Under fault
// injection the expiry can be delayed, or dropped outright — the cadence
// continues but the expiry is never delivered (ev.dropped).
func (pt *PTimer) armNext() {
	irq := pt.m.jitterNormal(pt.m.p.TimerIRQLat, pt.m.p.TimerIRQJitter)
	ev := pt.m.newEvent(pt.base.Add(irq), evTimerFire)
	ev.thread = pt.owner
	ev.timer = pt
	if f := pt.m.faults; f != nil {
		if k, extra, ok := f.PeriodicTimerFault(pt.base); ok {
			if k == fault.DropIRQ {
				ev.dropped = true
			} else {
				ev.at = ev.at.Add(extra)
			}
		}
	}
	// Installed timer randomization (package defense) jitters the expiry
	// delivery of Method 2's channel too.
	ev.at = ev.at.Add(pt.m.defense.PeriodicExtra(pt.base))
	// A delivery delayed past the next ideal expiry (possible under DelayIRQ
	// with a short interval) fires the missed expiry immediately, as a
	// re-programmed hrtimer would — simulated time must not run backwards.
	if ev.at < pt.m.now {
		ev.at = pt.m.now
	}
	pt.m.tel.timerArmedPeriodic.Inc()
	pt.m.schedule(ev)
}

// Stop disarms the timer; pending expiries are ignored.
func (pt *PTimer) Stop() { pt.stopped = true }

// Interval returns the timer's period.
func (pt *PTimer) Interval() timebase.Duration { return pt.interval }

// handleTimerFire processes a hardware timer expiry: nanosleep wake-ups and
// periodic timer signals.
func (m *Machine) handleTimerFire(ev *event) {
	t := ev.thread
	if pt := ev.timer; pt != nil {
		if pt.stopped {
			return
		}
		pt.base = pt.base.Add(pt.interval)
		pt.armNext()
		if ev.dropped {
			// DropIRQ fault: the expiry was swallowed — no signal, no Fires
			// accounting — but the absolute cadence continues.
			m.tel.timerDropped.Inc()
			return
		}
		pt.Fires++
		m.tel.timerFired.Inc()
		if t.done || t.task.State != sched.StateBlocked || t.blockedIn != blockPause {
			// The thread is not paused (running, runnable, or inside a
			// nanosleep, which timer signals do not interrupt —
			// SA_RESTART semantics): the signal stays pending and the
			// next Pause consumes it without blocking.
			t.pendingSignals++
			return
		}
		// Waking to run a userspace signal handler costs extra.
		t.signalExtra = m.p.SignalDeliver
		t.pendingSignals++
		m.wake(t)
		return
	}
	t.wakeEvent = nil
	if t.task.State != sched.StateBlocked || t.done {
		return // stale wake
	}
	m.tel.timerFired.Inc()
	m.wake(t)
}

// handleSignal delivers a userspace signal: a thread blocked in Pause
// wakes; anyone else — including a nanosleeping thread, whose sleep is not
// interrupted (SA_RESTART semantics) — keeps it pending for the next
// Pause.
func (m *Machine) handleSignal(t *Thread) {
	if t.done {
		return
	}
	if t.task.State == sched.StateBlocked && t.blockedIn == blockPause {
		t.signalExtra = m.p.SignalDeliver
		t.pendingSignals++
		m.wake(t)
		return
	}
	t.pendingSignals++
}

// wake moves a blocked thread into its runqueue (Scenario 2): Equation 2.1
// placement, then the Equation 2.2 wakeup-preemption decision against the
// current thread — the heart of the Controlled Preemption primitive.
func (m *Machine) wake(t *Thread) {
	c := t.core
	// Installed wake-placement noise (package defense): an unpinned waking
	// thread may be re-homed on another admissible core before placement,
	// so the attacker's wakeup lands away from the victim and the same-core
	// Equation 2.2 comparison never happens. Pinned threads keep their
	// affinity contract.
	if t.pinned < 0 {
		if di, ok := m.defense.RedirectWake(t.name, c.id); ok {
			dst := m.cores[di]
			c.chargeCurr(m.now)
			dst.chargeCurr(m.now)
			// The blocked task is not queued: re-baseing its virtual time
			// against the destination queue is a Detach/Attach pair, the
			// same renormalization migrate applies to queued tasks.
			c.rq.Detach(t.task)
			t.core = dst
			dst.rq.Attach(t.task)
			c = dst
		}
	}
	// Ambient channel noise accumulated since the last observation
	// window (§4.3): external LLC pressure evicting recently filled
	// lines — the victim's and attacker's fresh fills are exactly the
	// lines a saturated cache loses to other-core traffic.
	if q := m.p.NoiseEvictionsPerWake; q > 0 {
		k := int(q)
		if m.simRNG.Float64() < q-float64(k) {
			k++
		}
		for i := 0; i < k; i++ {
			m.caches.DisturbRecentFill(int(m.simRNG.Uint32()))
		}
	}
	// Charge the current thread before placement so min_vruntime and the
	// preemption comparison see up-to-date virtual time.
	c.chargeCurr(m.now)
	t.task.WellSlept = m.now.Sub(t.sleepStart) >= m.p.WellSleptMin
	t.task.State = sched.StateRunnable
	t.blockedIn = blockNone
	c.rq.Enqueue(t.task, true)

	curr := c.curr
	preempt := curr != nil && c.rq.WakeupPreempt(curr.task, t.task)
	// Installed preemption-budget cap (package defense): a task over its
	// per-window budget still enqueues but no longer wins the Equation 2.2
	// decision — the scheduler grants, the defense vetoes. Charged only on
	// would-be wins so a capped task's budget replenishes naturally.
	if preempt && m.defense.CapPreempt(t.task.ID, m.now) {
		preempt = false
	}
	t.wakeTime = m.now
	t.wakePreempted = preempt
	m.reportWake(t, c.id, m.now, preempt, curr)

	switch {
	case curr == nil:
		// Idle core: the woken thread starts immediately. The runqueue
		// was empty (invariant), so this pick is the woken thread.
		c.rq.Dequeue(t.task)
		c.switchTo(t, m.now)
	case preempt:
		// The scheduler decides between the current and waking threads
		// only (§2.1 Scenario 2): the woken thread takes the CPU directly
		// even if a third queued thread has smaller vruntime.
		at := c.deschedCurr(m.now, OutPreemptedWakeup)
		c.rq.Dequeue(t.task)
		c.switchTo(t, at)
	default:
		// No preemption: the interrupted thread pays the IRQ cost and
		// continues; the woken thread waits for Scenario 1 or 3.
		if nc := m.now.Add(m.p.InterruptCost); curr.clock < nc {
			curr.clock = nc
		}
		c.armTick(m.now)
	}
}
