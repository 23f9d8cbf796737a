package exps

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/timebase"
)

// smallFig43 runs a shrunken fig4.3a (one ε, few samples) and fingerprints
// the outcome.
func smallFig43(env *Env, seed uint64) string {
	r := RunFig43(env, Fig43Config{
		Variant:  Fig43a,
		Epsilons: []timebase.Duration{2 * timebase.Microsecond},
		Samples:  300,
		Seed:     seed,
	})
	return r.String()
}

// TestDriversSurviveEachFaultKind runs the fig4.1 and fig4.3 drivers under
// every fault kind in isolation, across seeds: no panic, and the outcome is
// identical when re-run with the same seed.
func TestDriversSurviveEachFaultKind(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep is slow")
	}
	for _, k := range fault.Kinds() {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", k, seed), func(t *testing.T) {
				env := &Env{Faults: fault.Config{Rate: 0.05, Kinds: []fault.Kind{k}}}
				a41 := RunFig41(env, seed).String()
				b41 := RunFig41(env, seed).String()
				if a41 != b41 {
					t.Errorf("fig4.1 under %s faults not deterministic", k)
				}
				a43 := smallFig43(env, seed)
				b43 := smallFig43(env, seed)
				if a43 != b43 {
					t.Errorf("fig4.3 under %s faults not deterministic", k)
				}
			})
		}
	}
}

// TestDriversSurviveAllFaultsTogether mixes every kind at once.
func TestDriversSurviveAllFaultsTogether(t *testing.T) {
	env := &Env{Faults: fault.Config{Rate: 0.05}}
	if got := RunFig41(env, 1).String(); got == "" {
		t.Fatal("empty fig4.1 result")
	}
	if got := smallFig43(env, 1); got == "" {
		t.Fatal("empty fig4.3 result")
	}
}

// TestRunChaosSweep the chaos experiment itself: rows for every rate, a
// clean baseline at rate 0, deterministic re-run.
func TestRunChaosSweep(t *testing.T) {
	cfg := ChaosConfig{
		Rates:  []float64{0, 0.1},
		Target: 300,
		Budget: 10 * timebase.Second,
		Seed:   1,
	}
	r1 := RunChaos(&Env{}, cfg)
	if len(r1.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(r1.Rows))
	}
	base := r1.Rows[0]
	if base.Rate != 0 || base.Faults != 0 {
		t.Fatalf("baseline row injected faults: %+v", base)
	}
	if base.SuccessRate < 1 {
		t.Fatalf("baseline success %.2f, want 1.0", base.SuccessRate)
	}
	noisy := r1.Rows[1]
	if noisy.Faults == 0 {
		t.Fatalf("no faults injected at rate 0.1: %+v", noisy)
	}
	if noisy.Collected == 0 {
		t.Fatalf("attack collected nothing at rate 0.1: %+v", noisy)
	}
	r2 := RunChaos(&Env{}, cfg)
	if r1.String() != r2.String() {
		t.Fatalf("chaos sweep not deterministic:\n%s\nvs\n%s", r1, r2)
	}
}

// TestWatchdogTimesOut an impossible condition must end at the budget with
// TimedOut latched.
func TestWatchdogTimesOut(t *testing.T) {
	m := (&Env{}).NewMachine(CFS, 1)
	defer m.Shutdown()
	wd := &Watchdog{Budget: timebase.Millisecond}
	start := m.Now()
	if wd.Run(m, func() bool { return false }) {
		t.Fatal("impossible condition reported reached")
	}
	if !wd.TimedOut {
		t.Fatal("TimedOut not latched")
	}
	if got := m.Now().Sub(start); got != timebase.Millisecond {
		t.Fatalf("ran %v, want exactly the 1ms budget", got)
	}
}
