package kern

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/timebase"
)

func newTestMachine(t *testing.T, cores int) *Machine {
	t.Helper()
	p := DefaultParams(cores, func() sched.Scheduler {
		return cfs.New(sched.DefaultParams(cores))
	})
	m := NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

func loopBody(n int) []isa.Inst {
	b := isa.NewBuilder("loop", 0x400000, 4)
	b.ALU(n)
	return b.Build().Insts
}

func TestBurnAndExit(t *testing.T) {
	m := newTestMachine(t, 1)
	var endAt timebase.Time
	th := m.Spawn("worker", func(e *Env) {
		e.Burn(10 * timebase.Microsecond)
		endAt = e.Now()
	})
	m.RunFor(time1ms())
	if th.State() != sched.StateDone {
		t.Fatalf("thread state = %v, want done", th.State())
	}
	// Switch-in latency then 10µs of work.
	if endAt < timebase.Time(10*timebase.Microsecond) || endAt > timebase.Time(20*timebase.Microsecond) {
		t.Fatalf("endAt = %v, want ~10-20µs", endAt)
	}
}

func time1ms() timebase.Duration { return timebase.Millisecond }

func TestNanosleepWakesNearRequestedTime(t *testing.T) {
	m := newTestMachine(t, 1)
	var woke timebase.Time
	var slept timebase.Time
	m.Spawn("sleeper", func(e *Env) {
		e.SetTimerSlack(1)
		slept = e.Now()
		e.Nanosleep(1 * timebase.Millisecond)
		woke = e.Now()
	})
	m.RunFor(10 * timebase.Millisecond)
	if woke == 0 {
		t.Fatal("thread never woke")
	}
	lat := woke.Sub(slept)
	if lat < timebase.Millisecond || lat > timebase.Millisecond+10*timebase.Microsecond {
		t.Fatalf("sleep latency = %v, want 1ms + small wake cost", lat)
	}
}

func TestDefaultTimerSlackDelaysWake(t *testing.T) {
	m := newTestMachine(t, 1)
	var lat timebase.Duration
	m.Spawn("sleeper", func(e *Env) {
		// Default slack is 50µs: do not lower it.
		start := e.Now()
		e.Nanosleep(100 * timebase.Microsecond)
		lat = e.Now().Sub(start)
	})
	m.RunFor(10 * timebase.Millisecond)
	if lat < 100*timebase.Microsecond {
		t.Fatalf("woke before requested expiry: %v", lat)
	}
	// With the RNG seed fixed we cannot assert the exact delay, but a
	// saturated-slack wake should exceed the no-slack path at least
	// sometimes across seeds; here we only check it stayed within bounds.
	if lat > 100*timebase.Microsecond+60*timebase.Microsecond {
		t.Fatalf("slack delay too large: %v", lat)
	}
}

func TestTickPreemptsBetweenComputeThreads(t *testing.T) {
	m := newTestMachine(t, 1)
	a := m.Spawn("a", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	b := m.Spawn("b", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	m.RunFor(200 * timebase.Millisecond)
	// Fair scheduling: both threads got roughly half the CPU.
	ra, rb := a.Task().SumExec, b.Task().SumExec
	if ra == 0 || rb == 0 {
		t.Fatalf("one thread starved: a=%v b=%v", ra, rb)
	}
	ratio := float64(ra) / float64(rb)
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair split: a=%v b=%v ratio=%.2f", ra, rb, ratio)
	}
}

func TestNicePriorityGetsMoreCPU(t *testing.T) {
	m := newTestMachine(t, 1)
	hi := m.Spawn("hi", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0), WithNice(-10))
	lo := m.Spawn("lo", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0), WithNice(0))
	m.RunFor(500 * timebase.Millisecond)
	rhi, rlo := hi.Task().SumExec, lo.Task().SumExec
	if rhi <= rlo {
		t.Fatalf("high priority did not dominate: hi=%v lo=%v", rhi, rlo)
	}
	// weight(-10)/weight(0) ≈ 9.3; accept a broad band.
	ratio := float64(rhi) / float64(rlo)
	if ratio < 4 {
		t.Fatalf("priority ratio too small: %.2f", ratio)
	}
}

// testTracer counts preemptions and retired-instruction deltas.
type testTracer struct {
	victim      *Thread
	lastRetired int64
	steps       []int64
	wakes       int
	preempts    int
}

func (tr *testTracer) SchedIn(th *Thread, core int, decideAt, startAt timebase.Time) {}

func (tr *testTracer) SchedOut(th *Thread, core int, at timebase.Time, reason SchedOutReason) {
	if th == tr.victim && reason == OutPreemptedWakeup {
		r := th.Retired()
		tr.steps = append(tr.steps, r-tr.lastRetired)
		tr.lastRetired = r
	}
}

func (tr *testTracer) Wake(th *Thread, core int, at timebase.Time, preempted bool, curr *Thread) {
	tr.wakes++
	if preempted {
		tr.preempts++
	}
}

// TestControlledPreemptionLoop drives the paper's core primitive end to end
// on the raw kernel: hibernate, then nap/preempt repeatedly, and checks the
// preemption count against the ⌈(S_slack−S_preempt)/ΔI⌉ budget (§4.1).
func TestControlledPreemptionLoop(t *testing.T) {
	m := newTestMachine(t, 1)
	victim := m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	tr := &testTracer{victim: victim}
	m.AttachTracer(tr)

	const eps = 2 * timebase.Microsecond
	const measure = 10 * timebase.Microsecond
	var consecutive int
	var budgetEnded bool
	att := m.Spawn("attacker", func(e *Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(50 * timebase.Millisecond) // hibernate
		for i := 0; i < 5000; i++ {
			e.Nanosleep(eps)
			if !e.Thread().LastWakePreempted() {
				budgetEnded = true
				return
			}
			consecutive++
			e.Burn(measure)
		}
	}, WithPin(0))

	m.RunFor(2 * timebase.Second)
	if att.State() != sched.StateDone {
		t.Fatalf("attacker did not finish (state %v)", att.State())
	}
	if !budgetEnded {
		t.Fatal("budget never exhausted: fairness tripwire missing")
	}
	// ΔI ≈ measure + syscall overhead − victim stint (~0.8µs): expect a
	// few hundred preemptions, in the ballpark of 8ms/ΔI.
	sp := sched.DefaultParams(1)
	_ = sp
	params := m.Params().Sched
	lo := params.ExpectedPreemptions(measure + 8*timebase.Microsecond)
	hi := params.ExpectedPreemptions(measure - 4*timebase.Microsecond)
	if consecutive < lo/2 || consecutive > hi*2 {
		t.Fatalf("consecutive preemptions = %d, want within [%d, %d] (budget %v)",
			consecutive, lo/2, hi*2, params.PreemptionBudget())
	}
	// Temporal resolution: most steps should be small.
	if len(tr.steps) == 0 {
		t.Fatal("no victim steps recorded")
	}
	small := 0
	for _, s := range tr.steps {
		if s < 100 {
			small++
		}
	}
	if frac := float64(small) / float64(len(tr.steps)); frac < 0.9 {
		t.Fatalf("only %.0f%% of steps were <100 instructions", frac*100)
	}
}

// TestWakeupPreemptionDisabled verifies the NO_WAKEUP_PREEMPTION mitigation
// (Chapter 6): with the feature off the attacker cannot preempt mid-slice.
func TestWakeupPreemptionDisabled(t *testing.T) {
	sp := sched.DefaultParams(1)
	sp.WakeupPreemption = false
	p := DefaultParams(1, func() sched.Scheduler { return cfs.New(sp) })
	p.Sched = sp
	m := NewMachine(p)
	t.Cleanup(m.Shutdown)

	m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	preempts := 0
	m.Spawn("attacker", func(e *Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(50 * timebase.Millisecond)
		for i := 0; i < 50; i++ {
			e.Nanosleep(2 * timebase.Microsecond)
			if e.Thread().LastWakePreempted() {
				preempts++
			}
		}
	}, WithPin(0))
	m.RunFor(3 * timebase.Second)
	if preempts != 0 {
		t.Fatalf("wakeup preemptions happened despite mitigation: %d", preempts)
	}
}

func TestSpawnPlacementPrefersIdleCore(t *testing.T) {
	m := newTestMachine(t, 4)
	for i := 0; i < 3; i++ {
		m.Spawn("dummy", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(i))
	}
	m.RunFor(time1ms())
	v := m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) })
	if v.CoreID() != 3 {
		t.Fatalf("victim placed on core %d, want idle core 3", v.CoreID())
	}
}

func TestPeriodicTimerSignalsPause(t *testing.T) {
	m := newTestMachine(t, 1)
	fires := 0
	m.Spawn("timerthread", func(e *Env) {
		pt := e.TimerCreate(100 * timebase.Microsecond)
		defer pt.Stop()
		for i := 0; i < 10; i++ {
			e.Pause()
			fires++
		}
	})
	m.RunFor(10 * timebase.Millisecond)
	if fires != 10 {
		t.Fatalf("handler ran %d times, want 10", fires)
	}
}

func TestZeroStepsOccurWithTinyEpsilon(t *testing.T) {
	m := newTestMachine(t, 1)
	victim := m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	tr := &testTracer{victim: victim}
	m.AttachTracer(tr)
	m.Spawn("attacker", func(e *Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(50 * timebase.Millisecond)
		for i := 0; i < 300; i++ {
			// ε far below the switch-in cost: the timer usually fires
			// while the victim is still being switched in.
			e.Nanosleep(200 * timebase.Nanosecond)
			if !e.Thread().LastWakePreempted() {
				return
			}
			e.Burn(10 * timebase.Microsecond)
		}
	}, WithPin(0))
	m.RunFor(time1ms() * 100)
	if len(tr.steps) < 50 {
		t.Fatalf("too few preemptions recorded: %d", len(tr.steps))
	}
	zeros := 0
	for _, s := range tr.steps {
		if s == 0 {
			zeros++
		}
	}
	if frac := float64(zeros) / float64(len(tr.steps)); frac < 0.5 {
		t.Fatalf("zero-step fraction = %.2f, want most preemptions to be zero steps", frac)
	}
}

// TestThreadPanicReachesKernelGoroutine checks that a panic in a thread
// body surfaces from Machine.Run on the caller's goroutine, where a recover
// contains it, instead of killing the process from the body goroutine. The
// thread is done afterwards, so Shutdown does not wait on its exited
// goroutine while still unwinding the machine's other threads.
func TestThreadPanicReachesKernelGoroutine(t *testing.T) {
	m := newTestMachine(t, 1)
	m.Spawn("spinner", func(e *Env) {
		for {
			e.Burn(50 * timebase.Microsecond)
		}
	})
	bad := m.Spawn("bad", func(e *Env) {
		e.Burn(10 * timebase.Microsecond)
		panic("body exploded")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		m.RunFor(50 * timebase.Millisecond)
		return nil
	}()
	if got != "body exploded" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	if !bad.done {
		t.Fatal("a panicked thread must be marked done")
	}
	done := make(chan struct{})
	go func() {
		m.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown blocked after a thread body panic")
	}
}
