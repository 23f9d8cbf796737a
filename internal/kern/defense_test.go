package kern

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/defense"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// newDefendedMachine builds a CFS machine with the given defense installed.
func newDefendedMachine(t *testing.T, cores int, d defense.Config, mut ...func(*Params)) *Machine {
	t.Helper()
	p := DefaultParams(cores, func() sched.Scheduler {
		return cfs.New(sched.DefaultParams(cores))
	})
	p.Defense = d
	for _, f := range mut {
		f(&p)
	}
	m := NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

// sleepOnce spawns a 1ns-slack sleeper and returns its measured wake
// latency after the machine ran.
func sleepOnce(m *Machine, d timebase.Duration) *timebase.Duration {
	lat := new(timebase.Duration)
	m.Spawn("sleeper", func(e *Env) {
		e.SetTimerSlack(1)
		start := e.Now()
		e.Nanosleep(d)
		*lat = e.Now().Sub(start)
	})
	return lat
}

// TestDefenseSlackRandDelaysNanosleep checks the slack-randomization
// countermeasure stretches a precision nanosleep wake, deterministically
// per seed, while the undefended machine under the same seed is untouched.
func TestDefenseSlackRandDelaysNanosleep(t *testing.T) {
	d := defense.Config{SlackRandMax: 40 * timebase.Microsecond}
	plain := newTestMachine(t, 1)
	defended := newDefendedMachine(t, 1, d)
	defended2 := newDefendedMachine(t, 1, d)
	latPlain := sleepOnce(plain, timebase.Millisecond)
	latDef := sleepOnce(defended, timebase.Millisecond)
	latDef2 := sleepOnce(defended2, timebase.Millisecond)
	for _, m := range []*Machine{plain, defended, defended2} {
		m.RunFor(10 * timebase.Millisecond)
	}
	if *latDef <= *latPlain {
		t.Fatalf("defended wake latency %v not above undefended %v", *latDef, *latPlain)
	}
	if *latDef != *latDef2 {
		t.Fatalf("defended runs diverged under the same seed: %v vs %v", *latDef, *latDef2)
	}
	if *latDef > *latPlain+40*timebase.Microsecond {
		t.Fatalf("randomized delay %v exceeds the configured bound", *latDef-*latPlain)
	}
}

// TestDefensePeriodicJitterDelaysTimer checks Method 2's channel is
// randomized too: periodic expiries arrive later than the undefended
// cadence.
func TestDefensePeriodicJitterDelaysTimer(t *testing.T) {
	run := func(m *Machine) timebase.Time {
		var third timebase.Time
		m.Spawn("timed", func(e *Env) {
			pt := e.TimerCreate(100 * timebase.Microsecond)
			for i := 0; i < 3; i++ {
				e.Pause()
			}
			third = e.Now()
			pt.Stop()
		}, WithPin(0))
		m.RunFor(10 * timebase.Millisecond)
		return third
	}
	plain := run(newTestMachine(t, 1))
	defended := run(newDefendedMachine(t, 1, defense.Config{PeriodicJitterMax: 50 * timebase.Microsecond}))
	if plain == 0 || defended == 0 {
		t.Fatal("a timer consumer never completed")
	}
	if defended <= plain {
		t.Fatalf("defended third expiry at %v not after undefended %v", defended, plain)
	}
}

// wakePreemptCounter counts Equation 2.2 wins, as a tracer.
type wakePreemptCounter struct{ wins int }

func (c *wakePreemptCounter) Wake(t *Thread, core int, at timebase.Time, preempted bool, curr *Thread) {
	if preempted {
		c.wins++
	}
}
func (c *wakePreemptCounter) SchedIn(*Thread, int, timebase.Time, timebase.Time)   {}
func (c *wakePreemptCounter) SchedOut(*Thread, int, timebase.Time, SchedOutReason) {}

// TestDefensePreemptCapLimitsWins runs the attack's nap loop against a
// compute victim and checks the budget cap vetoes the excess wins.
func TestDefensePreemptCapLimitsWins(t *testing.T) {
	run := func(d defense.Config) int {
		p := DefaultParams(1, func() sched.Scheduler { return cfs.New(sched.DefaultParams(1)) })
		p.Defense = d
		m := NewMachine(p)
		defer m.Shutdown()
		ctr := &wakePreemptCounter{}
		m.AttachTracer(ctr)
		m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
		m.Spawn("attacker", func(e *Env) {
			e.SetTimerSlack(1)
			e.Nanosleep(5 * timebase.Millisecond) // hibernate: open the budget
			for i := 0; i < 200; i++ {
				e.Burn(timebase.Microsecond) // the measurement
				e.Nanosleep(2 * timebase.Microsecond)
			}
		}, WithPin(0))
		m.RunFor(20 * timebase.Millisecond)
		return ctr.wins
	}
	uncapped := run(defense.Config{})
	capped := run(defense.Config{PreemptCap: 2, PreemptWindow: timebase.Millisecond})
	if uncapped < 20 {
		t.Fatalf("undefended attack only won %d preemptions; test premise broken", uncapped)
	}
	if capped >= uncapped/2 {
		t.Fatalf("cap did not bite: %d wins capped vs %d uncapped", capped, uncapped)
	}
}

// TestDefenseCordonRejectsPinAndPlacement checks SchedGuard-style
// cordoning: a foreign pin onto the reserved core fails (the thread falls
// back to placement elsewhere) while an admitted victim still lands there.
func TestDefenseCordonRejectsPinAndPlacement(t *testing.T) {
	reg := metrics.New()
	m := newDefendedMachine(t, 2,
		defense.Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}},
		func(p *Params) { p.Metrics = reg })
	att := m.Spawn("attacker", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
	if att.Pinned() != -1 {
		t.Fatalf("foreign pin onto the cordoned core survived: pinned=%d", att.Pinned())
	}
	if att.CoreID() == 0 {
		t.Fatalf("foreign thread placed on the cordoned core")
	}
	vic := m.Spawn("victim", func(e *Env) { e.RunLoopForever(loopBody(64)) })
	if vic.CoreID() != 0 {
		t.Fatalf("victim placed on core %d, want the reserved core 0", vic.CoreID())
	}
	if reg.Counter("defense_pin_rejected_total").Value() != 1 {
		t.Errorf("pin rejection not counted")
	}
	m.RunFor(timebase.Millisecond)
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated: %v", err)
	}
}

// TestDefenseCordonRefusesIdlePull checks the balancer side: a cordoned
// core that goes idle must not steal foreign queued work, even though an
// undefended machine pulls it immediately.
func TestDefenseCordonRefusesIdlePull(t *testing.T) {
	run := func(d defense.Config) (*Machine, *Thread) {
		m := newDefendedMachine(t, 2, d)
		vic := m.Spawn("victim", func(e *Env) {
			e.Nanosleep(5 * timebase.Millisecond)
			e.RunLoopForever(loopBody(64))
		})
		for i := 0; i < 3; i++ {
			m.Spawn("work", func(e *Env) { e.RunLoopForever(loopBody(64)) })
		}
		m.RunFor(2 * timebase.Millisecond)
		return m, vic
	}
	m, vic := run(defense.Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}})
	if vic.CoreID() != 0 {
		t.Fatalf("victim homed on core %d, want 0", vic.CoreID())
	}
	// The victim is asleep: its reserved core sits idle and must stay so.
	if curr := m.Core(0).Curr(); curr != nil {
		t.Fatalf("cordoned core stole %v while the victim slept", curr)
	}
	if got := m.Core(1).NrRunnable(); got != 3 {
		t.Fatalf("foreign work not kept on core 1: NrRunnable=%d", got)
	}
	mPlain, _ := run(defense.Config{})
	if mPlain.Core(0).Curr() == nil {
		t.Fatal("undefended newly-idle pull did not happen; contrast premise broken")
	}
}

// TestDefenseWakeNoiseRedirectsWake checks wake-placement noise re-homes an
// unpinned sleeper (deterministically per seed) without violating kernel
// invariants, and never onto a cordoned core.
func TestDefenseWakeNoiseRedirectsWake(t *testing.T) {
	d := defense.Config{
		WakeNoiseProb: 1,
		CordonCores:   []int{1},
		CordonAllow:   []string{"victim"},
	}
	wokeOn := make([]int, 0, 8)
	m := newDefendedMachine(t, 4, d)
	m.Spawn("sleeper", func(e *Env) {
		for i := 0; i < 8; i++ {
			e.Nanosleep(200 * timebase.Microsecond)
			wokeOn = append(wokeOn, e.Thread().CoreID())
		}
	})
	m.RunFor(10 * timebase.Millisecond)
	if len(wokeOn) != 8 {
		t.Fatalf("sleeper completed %d/8 naps", len(wokeOn))
	}
	moved := false
	for i, c := range wokeOn {
		if c == 1 {
			t.Fatalf("wake %d redirected onto the cordoned core", i)
		}
		if i > 0 && c != wokeOn[i-1] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("probability-1 wake noise never moved the sleeper")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after redirects: %v", err)
	}
	// Determinism: an identical machine replays the same core walk.
	wokeOn2 := make([]int, 0, 8)
	m2 := newDefendedMachine(t, 4, d)
	m2.Spawn("sleeper", func(e *Env) {
		for i := 0; i < 8; i++ {
			e.Nanosleep(200 * timebase.Microsecond)
			wokeOn2 = append(wokeOn2, e.Thread().CoreID())
		}
	})
	m2.RunFor(10 * timebase.Millisecond)
	for i := range wokeOn {
		if wokeOn2[i] != wokeOn[i] {
			t.Fatalf("defended runs diverged under the same seed: %v vs %v", wokeOn, wokeOn2)
		}
	}
}

// TestDefenseCordonRefusesInjectedMigration checks the chaos layer honours
// the cordon: a forced migration whose destination is reserved is refused
// (and counted) rather than applied.
func TestDefenseCordonRefusesInjectedMigration(t *testing.T) {
	reg := metrics.New()
	p := DefaultParams(2, func() sched.Scheduler { return cfs.New(sched.DefaultParams(2)) })
	p.Defense = defense.Config{CordonCores: []int{0}, CordonAllow: []string{"victim"}}
	p.Faults = fault.Config{Rate: 1, Kinds: []fault.Kind{fault.Migrate}, CheckPeriod: 50 * timebase.Microsecond}
	p.Metrics = reg
	m := NewMachine(p)
	defer m.Shutdown()
	// Two foreign compute threads: both land on core 1 (core 0 is
	// reserved), so one is always queued — a standing migration candidate
	// whose only destination is the cordoned core.
	for i := 0; i < 2; i++ {
		m.Spawn("work", func(e *Env) { e.RunLoopForever(loopBody(64)) })
	}
	m.RunFor(5 * timebase.Millisecond)
	if got := m.FaultInjector().Count(fault.Migrate); got != 0 {
		t.Fatalf("%d forced migrations landed on the cordoned core", got)
	}
	if reg.Counter("defense_migration_denied_total").Value() == 0 {
		t.Fatal("refused migrations not counted")
	}
	if m.Core(0).Curr() != nil || m.Core(0).NrRunnable() != 0 {
		t.Fatal("foreign work reached the cordoned core")
	}
}
