package ktrace

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
)

func newMachine(t *testing.T) *kern.Machine {
	t.Helper()
	sp := sched.DefaultParams(1)
	m := kern.NewMachine(kern.DefaultParams(1, func() sched.Scheduler { return cfs.New(sp) }))
	t.Cleanup(m.Shutdown)
	return m
}

func body() []isa.Inst {
	b := isa.NewBuilder("loop", 0x40_0000, 4)
	b.ALU(32)
	return b.Build().Insts
}

func runAttack(t *testing.T, m *kern.Machine, rec *Recorder) (victim, attacker *kern.Thread) {
	t.Helper()
	victim = m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(body()) }, kern.WithPin(0))
	m.AttachTracer(rec)
	attacker = m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(30 * timebase.Millisecond)
		for i := 0; i < 100; i++ {
			e.Nanosleep(2 * timebase.Microsecond)
			if !e.Thread().LastWakePreempted() {
				return
			}
			e.Burn(10 * timebase.Microsecond)
		}
	}, kern.WithPin(0))
	m.RunFor(500 * timebase.Millisecond)
	return victim, attacker
}

func TestRecorderStintsAndSteps(t *testing.T) {
	m := newMachine(t)
	rec := NewRecorder()
	victim, _ := runAttack(t, m, rec)

	steps := rec.StepsOf(victim)
	if len(steps) < 90 {
		t.Fatalf("steps = %d, want ~100", len(steps))
	}
	// Stints must be well-formed.
	for _, s := range rec.Stints {
		if s.End < s.Start {
			t.Fatalf("stint ends before it starts: %+v", s)
		}
		if s.Retired < 0 {
			t.Fatalf("negative retirement: %+v", s)
		}
	}
}

func TestRecorderWakesAndBursts(t *testing.T) {
	m := newMachine(t)
	rec := NewRecorder()
	_, attacker := runAttack(t, m, rec)

	if n := rec.PreemptionsOf(attacker); n < 90 {
		t.Fatalf("preemptions = %d", n)
	}
	bursts := rec.PreemptionBursts(attacker)
	if len(bursts) != 1 || bursts[0] < 90 {
		t.Fatalf("bursts = %v", bursts)
	}
	// Wake records carry vruntime snapshots.
	for _, w := range rec.Wakes {
		if w.Thread == attacker && w.Preempted {
			if w.CurrVruntime-w.WokenVruntime <= 0 {
				t.Fatal("preempting wake without positive vruntime gap")
			}
		}
	}
}

func TestVSamplesOnlyWhenEnabled(t *testing.T) {
	m := newMachine(t)
	rec := NewRecorder()
	runAttack(t, m, rec)
	if len(rec.VSamples) != 0 {
		t.Fatal("vruntime samples collected while disabled")
	}

	m2 := newMachine(t)
	rec2 := NewRecorder()
	rec2.SampleVruntime = true
	victim, _ := runAttack(t, m2, rec2)
	if len(rec2.VSamples) == 0 {
		t.Fatal("no vruntime samples")
	}
	series := rec2.VSeriesOf(victim.ID())
	if len(series) == 0 {
		t.Fatal("no victim series")
	}
	for i := 1; i < len(series); i++ {
		if series[i].Vruntime < series[i-1].Vruntime {
			t.Fatal("victim vruntime decreased")
		}
	}
}

func TestInterleavePattern(t *testing.T) {
	m := newMachine(t)
	rec := NewRecorder()
	victim, attacker := runAttack(t, m, rec)
	pat := rec.InterleavePattern(map[int]byte{victim.ID(): 'V', attacker.ID(): 'A'})
	if len(pat) < 100 {
		t.Fatalf("pattern too short: %d", len(pat))
	}
	// During the burst the pattern alternates VAVA...
	mid := pat[20:60]
	for i := 1; i < len(mid); i++ {
		if mid[i] == mid[i-1] {
			t.Fatalf("pattern not alternating at %d: %q", i, mid)
		}
	}
}

func TestReset(t *testing.T) {
	m := newMachine(t)
	rec := NewRecorder()
	runAttack(t, m, rec)
	rec.Reset()
	if len(rec.Stints) != 0 || len(rec.Wakes) != 0 || len(rec.CoreLog) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestMigrationsOf(t *testing.T) {
	if kern.MigrationsOf([]int{0, 0, 1, 1, 0}) != 2 {
		t.Fatal("migration count")
	}
	if kern.MigrationsOf(nil) != 0 {
		t.Fatal("empty log")
	}
}
