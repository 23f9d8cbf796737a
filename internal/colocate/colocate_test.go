package colocate

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/defense"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/timebase"
)

func newMachine(t *testing.T, cores int) *kern.Machine {
	t.Helper()
	sp := sched.DefaultParams(cores)
	m := kern.NewMachine(kern.DefaultParams(cores, func() sched.Scheduler { return cfs.New(sp) }))
	t.Cleanup(m.Shutdown)
	return m
}

func newCordonedMachine(t *testing.T, cores int, d defense.Config) *kern.Machine {
	t.Helper()
	sp := sched.DefaultParams(cores)
	p := kern.DefaultParams(cores, func() sched.Scheduler { return cfs.New(sp) })
	p.Defense = d
	m := kern.NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

func loop() []isa.Inst {
	b := isa.NewBuilder("loop", 0x40_0000, 4)
	b.ALU(32)
	return b.Build().Insts
}

func TestPrepareSpawnsDummies(t *testing.T) {
	m := newMachine(t, 8)
	p := Prepare(m, 3)
	if len(p.Dummies) != 7 {
		t.Fatalf("dummies = %d, want 7", len(p.Dummies))
	}
	for _, d := range p.Dummies {
		if d.Pinned() == 3 {
			t.Fatal("dummy pinned to the reserved core")
		}
	}
	m.RunFor(2 * timebase.Millisecond)
	// Every non-reserved core is busy.
	for i, c := range m.Cores() {
		if i == 3 {
			if c.Curr() != nil {
				t.Fatal("reserved core not idle")
			}
			continue
		}
		if c.Curr() == nil {
			t.Fatalf("core %d idle", i)
		}
	}
}

func TestVictimLandsOnReservedCore(t *testing.T) {
	for _, target := range []int{0, 2, 7} {
		m := newMachine(t, 8)
		p := Prepare(m, target)
		m.RunFor(2 * timebase.Millisecond)
		v := m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(loop()) })
		if !p.VictimLandedOnTarget(v) {
			t.Fatalf("victim landed on %d, want %d", v.CoreID(), target)
		}
		m.Shutdown()
	}
}

func TestVictimStaysDuringAttack(t *testing.T) {
	m := newMachine(t, 8)
	m.StartBalancer()
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)
	p := Prepare(m, 5)
	m.RunFor(2 * timebase.Millisecond)
	v := m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(loop()) })
	// The attacker naps on the same core; the balancer keeps running.
	m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(20 * timebase.Millisecond)
		for i := 0; i < 200; i++ {
			e.Nanosleep(2 * timebase.Microsecond)
			e.Burn(10 * timebase.Microsecond)
		}
	}, kern.WithPin(5))
	m.RunFor(100 * timebase.Millisecond)
	if !p.Stayed(rec.CoreLog[v.ID()]) {
		t.Fatalf("victim migrated: core log %v", rec.CoreLog[v.ID()])
	}
}

// TestCordonRejectsDummyPins checks the §4.4 setup fails against a
// cordoned core: Prepare's dummy aimed at the reserved core loses its pin
// and is placed elsewhere, so the reservation survives the occupation step.
func TestCordonRejectsDummyPins(t *testing.T) {
	m := newCordonedMachine(t, 4, Cordon(1, "victim"))
	p := Prepare(m, 3) // dummies target cores 0, 1, 2
	m.RunFor(2 * timebase.Millisecond)
	for _, d := range p.Dummies {
		if d.CoreID() == 1 {
			t.Fatalf("%s occupies the cordoned core", d.Name())
		}
		if d.Name() == "dummy-1" && d.Pinned() != -1 {
			t.Fatalf("pin onto the cordoned core survived: pinned=%d", d.Pinned())
		}
	}
	if c := m.Cores()[1]; c.Curr() != nil || c.NrRunnable() != 0 {
		t.Fatal("cordoned core not empty after Prepare")
	}
}

// TestCordonBlocksAttackerFollow checks the pin-the-preemption-thread step:
// once the victim runs on the reserved core, the attacker cannot pin there,
// while the admitted victim stays put under an active balancer.
func TestCordonBlocksAttackerFollow(t *testing.T) {
	m := newCordonedMachine(t, 4, Cordon(2, "victim"))
	m.StartBalancer()
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)
	// Busy background on every non-reserved core: the victim's idlest
	// admissible core is the cordoned one.
	for i := 0; i < 3; i++ {
		m.Spawn("worker", func(e *kern.Env) { e.RunLoopForever(loop()) })
	}
	m.RunFor(timebase.Millisecond)
	v := m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(loop()) })
	if v.CoreID() != 2 {
		t.Fatalf("victim placed on %d, want reserved core 2", v.CoreID())
	}
	att := m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		for i := 0; i < 50; i++ {
			e.Nanosleep(2 * timebase.Microsecond)
			e.Burn(10 * timebase.Microsecond)
		}
	}, kern.WithPin(2))
	if att.Pinned() != -1 || att.CoreID() == 2 {
		t.Fatalf("attacker reached the cordoned core: pinned=%d core=%d",
			att.Pinned(), att.CoreID())
	}
	m.RunFor(20 * timebase.Millisecond)
	for _, c := range rec.CoreLog[att.ID()] {
		if c == 2 {
			t.Fatal("attacker scheduled on the cordoned core")
		}
	}
	p := &Plan{TargetCore: 2}
	if !p.Stayed(rec.CoreLog[v.ID()]) {
		t.Fatalf("victim migrated off the reserved core: %v", rec.CoreLog[v.ID()])
	}
}

// TestCordonRefusesBalancerMigration checks migration refusal: with the
// machine oversubscribed everywhere else, the balancer never pulls foreign
// work onto the reserved core, even across periodic balance passes.
func TestCordonRefusesBalancerMigration(t *testing.T) {
	m := newCordonedMachine(t, 2, Cordon(0, "victim"))
	m.StartBalancer()
	rec := ktrace.NewRecorder()
	m.AttachTracer(rec)
	workers := make([]*kern.Thread, 0, 4)
	for i := 0; i < 4; i++ {
		w := m.Spawn("worker", func(e *kern.Env) { e.RunLoopForever(loop()) })
		workers = append(workers, w)
	}
	m.RunFor(20 * timebase.Millisecond)
	for _, w := range workers {
		for _, c := range rec.CoreLog[w.ID()] {
			if c == 0 {
				t.Fatal("foreign worker migrated onto the cordoned core")
			}
		}
	}
	if c := m.Cores()[0]; c.Curr() != nil || c.NrRunnable() != 0 {
		t.Fatal("cordoned core hosts foreign work")
	}
}

func TestStayedHelper(t *testing.T) {
	p := &Plan{TargetCore: 2}
	if p.Stayed(nil) {
		t.Fatal("empty log should not count as stayed")
	}
	if !p.Stayed([]int{2, 2, 2}) {
		t.Fatal("constant log should count")
	}
	if p.Stayed([]int{2, 3, 2}) {
		t.Fatal("migration missed")
	}
}
