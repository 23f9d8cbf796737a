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

// runAttack runs one burst of about 100 preemptions of a loop victim,
// handing both threads' events to their follows.
func runAttack(t *testing.T, m *kern.Machine, victim, attacker *Follow) {
	t.Helper()
	m.AttachTracer(victim)
	m.AttachTracer(attacker)
	m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(body()) }, kern.WithPin(0), victim.Bind())
	m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		e.Nanosleep(30 * timebase.Millisecond)
		for i := 0; i < 100; i++ {
			e.Nanosleep(2 * timebase.Microsecond)
			if !e.Thread().LastWakePreempted() {
				return
			}
			e.Burn(10 * timebase.Microsecond)
		}
	}, kern.WithPin(0), attacker.Bind())
	m.RunFor(500 * timebase.Millisecond)
}

func TestFollowStintsAndSteps(t *testing.T) {
	var stints []Stint
	var steps []int64
	victim := &Follow{OnStint: func(s Stint) {
		stints = append(stints, s)
		if s.Reason == kern.OutPreemptedWakeup {
			steps = append(steps, s.Retired)
		}
	}}
	runAttack(t, newMachine(t), victim, &Follow{})

	if len(steps) < 90 {
		t.Fatalf("steps = %d, want ~100", len(steps))
	}
	// Stints must be well-formed.
	for _, s := range stints {
		if s.End < s.Start {
			t.Fatalf("stint ends before it starts: %+v", s)
		}
		if s.Retired < 0 {
			t.Fatalf("negative retirement: %+v", s)
		}
	}
}

func TestFollowWakesAndBursts(t *testing.T) {
	var bursts Bursts
	var preemptions int64
	attacker := &Follow{OnWake: func(w WakeRec) {
		bursts.Add(w)
		if w.Preempted {
			preemptions++
			// Wake records carry vruntime snapshots.
			if w.CurrVruntime-w.WokenVruntime <= 0 {
				t.Fatal("preempting wake without positive vruntime gap")
			}
		}
	}}
	runAttack(t, newMachine(t), &Follow{}, attacker)

	if preemptions < 90 {
		t.Fatalf("preemptions = %d", preemptions)
	}
	if runs := bursts.Runs(); len(runs) != 1 || runs[0] < 90 {
		t.Fatalf("bursts = %v", runs)
	}
}

func TestFollowVruntimeSeries(t *testing.T) {
	var series []VSample
	victim := &Follow{OnVruntime: func(s VSample) { series = append(series, s) }}
	runAttack(t, newMachine(t), victim, &Follow{})
	if len(series) == 0 {
		t.Fatal("no victim series")
	}
	for i := 1; i < len(series); i++ {
		if series[i].Vruntime < series[i-1].Vruntime {
			t.Fatal("victim vruntime decreased")
		}
	}
}

// TestInterleavePattern: two follows appending to one list see the
// threads' stints in scheduling order, VAVA... during the burst.
func TestInterleavePattern(t *testing.T) {
	var pat []byte
	label := func(l byte) *Follow { return &Follow{OnStint: func(Stint) { pat = append(pat, l) }} }
	runAttack(t, newMachine(t), label('V'), label('A'))
	if len(pat) < 100 {
		t.Fatalf("pattern too short: %d", len(pat))
	}
	mid := pat[20:60]
	for i := 1; i < len(mid); i++ {
		if mid[i] == mid[i-1] {
			t.Fatalf("pattern not alternating at %d: %q", i, mid)
		}
	}
}
