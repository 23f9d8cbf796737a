package kern

import (
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/timebase"
)

// defaultInvariantInterval is the full-scan cadence when Params leaves
// InvariantStride at zero: frequent enough to localize a corruption to a
// few thousand events, cheap enough (a linear scan over a handful of
// threads and cores) to stay invisible in profiles.
const defaultInvariantInterval = 2048

// InvariantError is a structured kernel-consistency failure: which
// invariant broke, when, what exactly was wrong, and a machine-state dump
// for diagnosis. The kernel panics with a *InvariantError instead of a bare
// string so harnesses (cplab's guarded runner, the chaos tests) can recover
// it, report it, and retry deterministically.
type InvariantError struct {
	// Name identifies the invariant ("runqueue-membership",
	// "vruntime-monotonic", "time-monotonic", ...).
	Name string
	// At is the simulated time of detection.
	At timebase.Time
	// Detail says what was violated.
	Detail string
	// Dump is the machine-state snapshot taken at detection.
	Dump string
}

// Error implements error.
func (e *InvariantError) Error() string {
	return fmt.Sprintf("kern: invariant %q violated at %s: %s\n%s", e.Name, e.At, e.Detail, e.Dump)
}

// invariantError builds a structured violation with a fresh state dump.
func (m *Machine) invariantError(name, detail string) *InvariantError {
	return &InvariantError{Name: name, At: m.now, Detail: detail, Dump: m.DumpState()}
}

// DumpState renders the machine for diagnosis: the event-queue load,
// per-core current threads and runqueues, then every thread with its
// scheduler state. Failure records carrying this dump (campaign manifests,
// chaos reports) are self-contained for postmortems.
func (m *Machine) DumpState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine @ %s (seed %d, %d cores, %d threads)\n",
		m.now, m.p.Seed, len(m.cores), len(m.threads))
	fmt.Fprintf(&b, "  events: %d queued, %d pending timers\n",
		m.events.depth(), m.events.pendingTimers())
	if m.faults != nil {
		// Canonical sorted rendering: dump bytes must not depend on map
		// iteration order.
		fmt.Fprintf(&b, "  faults: total=%d %s\n", m.faults.Total(), m.faults.CountsString())
	}
	for _, c := range m.cores {
		curr := "<idle>"
		if c.curr != nil {
			curr = c.curr.String()
		}
		fmt.Fprintf(&b, "  core %d: clock=%s curr=%s queued=[", c.id, c.clock, curr)
		for i, task := range c.rq.Queued() {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d(%s):%s vrt=%d", task.ID, task.Name, task.State, task.Vruntime)
		}
		b.WriteString("]\n")
	}
	for _, t := range m.threads {
		pin := "-"
		if t.pinned >= 0 {
			pin = fmt.Sprintf("%d", t.pinned)
		}
		core := -1
		if t.core != nil {
			core = t.core.id
		}
		fmt.Fprintf(&b, "  thread %-16s state=%-8s blocked=%-6s core=%d pin=%s vrt=%d sum=%s\n",
			t.String(), t.task.State, t.blockedIn, core, pin, t.task.Vruntime, t.task.SumExec)
	}
	b.WriteString(m.flight.dump())
	return b.String()
}

// CheckInvariants runs the full structural scan and returns the first
// violation found as a *InvariantError (nil when consistent):
//
//   - every core's current thread is StateRunning, belongs to that core,
//     and is not simultaneously queued;
//   - every queued task is StateRunnable, maps to a known thread homed on
//     that core, and appears in exactly one place machine-wide;
//   - blocked threads sit in no runqueue, know why they block, and (for
//     nanosleep) hold a pending wake event — no lost threads;
//   - done threads have unwound and left the scheduler;
//   - pinned threads are on their pinned core;
//   - each scheduler's own audit (sched.Checker) passes.
//
// The periodic in-run check calls this automatically (Params.InvariantStride);
// tests call it directly after a run.
func (m *Machine) CheckInvariants() error {
	where := make(map[int]string, len(m.threads))
	note := func(t *Thread, place string) error {
		if prev, ok := where[t.id]; ok {
			return m.invariantError("runqueue-membership",
				fmt.Sprintf("thread %s accounted twice: %s and %s", t, prev, place))
		}
		where[t.id] = place
		return nil
	}

	for _, c := range m.cores {
		if t := c.curr; t != nil {
			if t.task.State != sched.StateRunning {
				return m.invariantError("state-consistency",
					fmt.Sprintf("current thread %s of core %d is %s, want running", t, c.id, t.task.State))
			}
			if t.core != c {
				return m.invariantError("runqueue-membership",
					fmt.Sprintf("current thread %s of core %d homed on core %d", t, c.id, t.core.id))
			}
			if err := note(t, fmt.Sprintf("curr(core %d)", c.id)); err != nil {
				return err
			}
		}
		for _, task := range c.rq.Queued() {
			t := m.lookupTask(task)
			if t == nil {
				return m.invariantError("task-thread-mapping",
					fmt.Sprintf("core %d queues unknown task %d (%s)", c.id, task.ID, task.Name))
			}
			if task.State != sched.StateRunnable {
				return m.invariantError("state-consistency",
					fmt.Sprintf("queued thread %s on core %d is %s, want runnable", t, c.id, task.State))
			}
			if t.core != c {
				return m.invariantError("runqueue-membership",
					fmt.Sprintf("queued thread %s on core %d homed on core %d", t, c.id, t.core.id))
			}
			if err := note(t, fmt.Sprintf("rq(core %d)", c.id)); err != nil {
				return err
			}
		}
		if ck, ok := c.rq.(sched.Checker); ok {
			if err := ck.CheckInvariants(); err != nil {
				return m.invariantError("scheduler-self-check",
					fmt.Sprintf("core %d: %v", c.id, err))
			}
		}
	}

	for _, t := range m.threads {
		if err := sched.ValidateTask(t.task); err != nil {
			return m.invariantError("task-valid", err.Error())
		}
		if t.pinned >= 0 && t.core != nil && t.core.id != t.pinned {
			return m.invariantError("pinning",
				fmt.Sprintf("thread %s pinned to core %d but homed on core %d", t, t.pinned, t.core.id))
		}
		place, accounted := where[t.id]
		switch t.task.State {
		case sched.StateRunning, sched.StateRunnable:
			if !accounted {
				return m.invariantError("runqueue-membership",
					fmt.Sprintf("%s thread %s is in no runqueue (lost thread)", t.task.State, t))
			}
		case sched.StateBlocked:
			if accounted {
				return m.invariantError("runqueue-membership",
					fmt.Sprintf("blocked thread %s still accounted at %s", t, place))
			}
			if t.blockedIn == blockNone {
				return m.invariantError("state-consistency",
					fmt.Sprintf("blocked thread %s has no block reason", t))
			}
			if t.blockedIn == blockSleep && (t.wakeEvent == nil || t.wakeEvent.cancelled) {
				return m.invariantError("state-consistency",
					fmt.Sprintf("sleeping thread %s has no pending wake event (lost wake)", t))
			}
		case sched.StateDone:
			if accounted {
				return m.invariantError("runqueue-membership",
					fmt.Sprintf("done thread %s still accounted at %s", t, place))
			}
			if !t.done {
				return m.invariantError("state-consistency",
					fmt.Sprintf("thread %s is StateDone but its body has not unwound", t))
			}
		}
	}
	return nil
}

// checkSwitchBoundary is the O(1) handoff check run at every context switch
// regardless of the stride: sched-switch boundaries are where corrupted
// scheduler state commits to a CPU, so a bad handoff is caught on the switch
// itself even when the full scan runs thousands of events apart. It must
// stay constant-time — it sits on the hottest path in the simulator.
func (c *Core) checkSwitchBoundary(t *Thread) {
	m := c.m
	switch {
	case t.done:
		panic(m.invariantError("switch-boundary",
			fmt.Sprintf("switching unwound thread %s onto core %d", t, c.id)))
	case t.task.State == sched.StateBlocked:
		panic(m.invariantError("switch-boundary",
			fmt.Sprintf("switching blocked thread %s onto core %d", t, c.id)))
	case t.core != c:
		panic(m.invariantError("switch-boundary",
			fmt.Sprintf("switching thread %s homed on core %d onto core %d", t, t.core.id, c.id)))
	case t.pinned >= 0 && t.pinned != c.id:
		panic(m.invariantError("switch-boundary",
			fmt.Sprintf("switching thread %s pinned to core %d onto core %d", t, t.pinned, c.id)))
	}
}
