package core

import (
	"testing"

	"repro/internal/cfs"
	"repro/internal/eevdf"
	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

func newCFSMachine(t *testing.T, seed uint64) *kern.Machine {
	t.Helper()
	sp := sched.DefaultParams(1)
	p := kern.DefaultParams(1, func() sched.Scheduler { return cfs.New(sp) })
	p.Sched = sp
	p.Seed = seed
	m := kern.NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

func newEEVDFMachine(t *testing.T, seed uint64) *kern.Machine {
	t.Helper()
	sp := sched.DefaultParams(1)
	p := kern.DefaultParams(1, func() sched.Scheduler { return eevdf.New(sp) })
	p.Sched = sp
	p.Seed = seed
	m := kern.NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

func spawnLoopVictim(m *kern.Machine, core int) *kern.Thread {
	return m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(core))
}

func TestAttackerBudgetMatchesFormula(t *testing.T) {
	m := newCFSMachine(t, 3)
	spawnLoopVictim(m, 0)
	const measure = 12 * timebase.Microsecond
	a := NewAttacker(Config{
		Method:         MethodNanosleep,
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      60 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s Sample) bool {
			e.Burn(measure)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.RunFor(2 * timebase.Second)

	st := a.Stats()
	if len(st.BurstLengths) != 1 {
		t.Fatalf("bursts = %d, want 1", len(st.BurstLengths))
	}
	got := st.BurstLengths[0]
	// ΔI ≈ measure + overheads − victim stint; sanity band around the
	// paper's formula.
	want := m.Params().Sched.ExpectedPreemptions(measure)
	if got < int64(want)/2 || got > int64(want)*2 {
		t.Fatalf("burst length = %d, want ≈%d", got, want)
	}
	if st.FailedWakes != 1 {
		t.Fatalf("failed wakes = %d, want 1", st.FailedWakes)
	}
}

func TestBurstScalesInverselyWithDeltaI(t *testing.T) {
	burstFor := func(measure timebase.Duration) int64 {
		m := newCFSMachine(t, 5)
		spawnLoopVictim(m, 0)
		a := NewAttacker(Config{
			Epsilon:        2 * timebase.Microsecond,
			Hibernate:      60 * timebase.Millisecond,
			StopAfterBurst: true,
			Measure: func(e *kern.Env, s Sample) bool {
				e.Burn(measure)
				return true
			},
		})
		m.Spawn("attacker", a.Run, kern.WithPin(0))
		m.RunFor(3 * timebase.Second)
		if len(a.Stats().BurstLengths) == 0 {
			t.Fatal("no burst recorded")
		}
		return a.Stats().BurstLengths[0]
	}
	short := burstFor(10 * timebase.Microsecond)
	long := burstFor(40 * timebase.Microsecond)
	if short <= long {
		t.Fatalf("burst(10µs)=%d not larger than burst(40µs)=%d", short, long)
	}
	ratio := float64(short) / float64(long)
	if ratio < 2.0 || ratio > 8.0 {
		t.Fatalf("burst ratio = %.2f, want ≈4 (inverse in ΔI)", ratio)
	}
}

func TestMethodTimerAlsoPreempts(t *testing.T) {
	m := newCFSMachine(t, 7)
	victim := spawnLoopVictim(m, 0)
	var steps []int64
	m.AttachTracer(&ktrace.Follow{Thread: victim, OnStint: func(s ktrace.Stint) {
		if s.Reason == kern.OutPreemptedWakeup {
			steps = append(steps, s.Retired)
		}
	}})
	a := NewAttacker(Config{
		Method:         MethodTimer,
		Epsilon:        20 * timebase.Microsecond, // covers the 8µs measurement
		Hibernate:      60 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s Sample) bool {
			e.Burn(8 * timebase.Microsecond)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.RunFor(2 * timebase.Second)
	st := a.Stats()
	if st.Preemptions < 100 {
		t.Fatalf("timer method achieved %d preemptions", st.Preemptions)
	}
	if len(steps) < 100 {
		t.Fatalf("steps recorded = %d", len(steps))
	}
}

func TestMultipleBurstsRehibernate(t *testing.T) {
	m := newCFSMachine(t, 9)
	spawnLoopVictim(m, 0)
	a := NewAttacker(Config{
		Epsilon:   2 * timebase.Microsecond,
		Hibernate: 50 * timebase.Millisecond,
		MaxBursts: 3,
		Measure: func(e *kern.Env, s Sample) bool {
			e.Burn(30 * timebase.Microsecond)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.RunFor(3 * timebase.Second)
	st := a.Stats()
	if st.Bursts != 3 || len(st.BurstLengths) != 3 {
		t.Fatalf("bursts = %d (%d lengths), want 3", st.Bursts, len(st.BurstLengths))
	}
	for i, b := range st.BurstLengths {
		if b < 50 {
			t.Fatalf("burst %d too short: %d", i, b)
		}
	}
}

func TestEEVDFTransferability(t *testing.T) {
	// §4.5: median 219 repeated preemptions at ΔI∈[10,15]µs. Individual
	// bursts vary with where the victim is in its virtual-deadline slice,
	// so check the median over several seeds; the exact paper number is
	// checked by the sec4.5 experiment.
	var lens []int64
	for seed := uint64(11); seed < 21; seed++ {
		m := newEEVDFMachine(t, seed)
		spawnLoopVictim(m, 0)
		a := NewAttacker(Config{
			Epsilon:        2 * timebase.Microsecond,
			Hibernate:      60 * timebase.Millisecond,
			StopAfterBurst: true,
			Measure: func(e *kern.Env, s Sample) bool {
				e.Burn(12 * timebase.Microsecond)
				return true
			},
		})
		m.Spawn("attacker", a.Run, kern.WithPin(0))
		m.RunFor(2 * timebase.Second)
		st := a.Stats()
		if len(st.BurstLengths) == 0 {
			t.Fatal("no burst recorded")
		}
		lens = append(lens, st.BurstLengths[0])
	}
	// This helper builds a 1-core machine, so the scaled tunables (base
	// slice 0.75ms instead of the 16-core 3ms) shrink the budget ~4×
	// relative to the paper's machine; the paper-scale median (219) is
	// asserted by the sec4.5 experiment on the 16-core configuration.
	med := stats.MedianInt64(lens)
	if med < 40 || med > 800 {
		t.Fatalf("EEVDF median burst = %d (%v), want tens-to-hundreds", med, lens)
	}
}

func TestRoundRobinExtendsBudget(t *testing.T) {
	m := newCFSMachine(t, 13)
	spawnLoopVictim(m, 0)
	const want = 3000
	cfg := Config{
		Epsilon:   2 * timebase.Microsecond,
		Hibernate: 60 * timebase.Millisecond,
		Measure: func(e *kern.Env, s Sample) bool {
			e.Burn(12 * timebase.Microsecond)
			return s.Index < want-1
		},
	}
	rr := NewRoundRobin(cfg, 8)
	rr.SpawnAll(m, 0)
	m.RunFor(5 * timebase.Second)
	if rr.Preemptions() < want {
		t.Fatalf("round-robin achieved %d preemptions, want ≥%d", rr.Preemptions(), want)
	}
	if rr.Handoffs() < 2 {
		t.Fatalf("handoffs = %d, want several", rr.Handoffs())
	}
	// A single burst is ~600 preemptions; 3000 requires the extension.
	single := m.Params().Sched.ExpectedPreemptions(12 * timebase.Microsecond)
	if want <= single {
		t.Fatalf("test misconfigured: want %d should exceed single budget %d", want, single)
	}
}

func TestRechargeBaselineBurstsEqualThreadCount(t *testing.T) {
	m := newCFSMachine(t, 15)
	spawnLoopVictim(m, 0)
	ra := &RechargeAttack{
		Threads:        6,
		Cooldown:       40 * timebase.Millisecond,
		MaxPreemptions: 30,
		Measure: func(e *kern.Env, s Sample) bool {
			e.Burn(10 * timebase.Microsecond)
			return true
		},
	}
	ra.SpawnAll(m, 0)
	m.RunFor(5 * timebase.Second)
	ts := ra.PreemptTimes()
	if len(ts) < 12 {
		t.Fatalf("recharge attack achieved only %d preemptions", len(ts))
	}
	bursts := BurstsFromTimes(ts, timebase.Millisecond)
	// Prior-work pattern: bursts of ≈ thread-count preemptions separated
	// by cooldown gaps.
	if len(bursts) < 2 {
		t.Fatalf("no cooldown gaps observed: bursts=%v", bursts)
	}
	for _, b := range bursts[:len(bursts)-1] {
		if b > int64(ra.Threads) {
			t.Fatalf("burst of %d exceeds thread count %d", b, ra.Threads)
		}
	}
}

func TestBurstsFromTimes(t *testing.T) {
	us := func(x int64) timebase.Time { return timebase.Time(x * int64(timebase.Microsecond)) }
	ts := []timebase.Time{us(0), us(10), us(20), us(5000), us(5010)}
	got := BurstsFromTimes(ts, timebase.Millisecond)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Fatalf("bursts = %v, want [3 2]", got)
	}
	if BurstsFromTimes(nil, timebase.Millisecond) != nil {
		t.Fatal("empty input should give nil")
	}
}
