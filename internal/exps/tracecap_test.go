package exps

import (
	"testing"

	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// record runs fn under an env capturing traces and returns the merged trace.
func record(t *testing.T, max int, fn func(env *Env)) *trace.Trace {
	t.Helper()
	env := &Env{Trace: NewTraceCapture(max)}
	fn(env)
	return env.Trace.Trace()
}

// TestTraceCaptureRecordsMachines checks that an env's capture sees every
// machine an experiment builds, without the experiment opting in.
func TestTraceCaptureRecordsMachines(t *testing.T) {
	tr := record(t, 0, func(env *Env) { RunFig41(env, 1) })
	if len(tr.Events) == 0 {
		t.Fatal("capture recorded nothing")
	}
	machines := 0
	for _, e := range tr.Events {
		if e.Kind == trace.EvMachine {
			machines++
		}
	}
	if machines == 0 {
		t.Fatal("no machine boundary events")
	}
	if tr.Truncated {
		t.Fatal("unbounded capture marked truncated")
	}
	if len(tr.Events) != cap(tr.Events) {
		t.Fatalf("%d events merged into a slice sized for %d", len(tr.Events), cap(tr.Events))
	}
}

// TestTraceCaptureDeterministic is the golden-trace property: two recordings
// of the same experiment at the same seed are structurally identical.
func TestTraceCaptureDeterministic(t *testing.T) {
	a := record(t, 0, func(env *Env) { RunFig41(env, 3) })
	b := record(t, 0, func(env *Env) { RunFig41(env, 3) })
	a.Exp, b.Exp = "fig4.1", "fig4.1"
	a.Seed, b.Seed = 3, 3
	if d := trace.Diff(a, b); d != nil {
		t.Fatalf("same-seed recordings diverge:\n%s", d)
	}
}

// TestTraceCaptureDetectsPerturbation perturbs a scheduler constant and
// checks Diff pins the first divergent event — the regression gate the
// golden files rely on.
func TestTraceCaptureDetectsPerturbation(t *testing.T) {
	runPerturbed := func(mut func(*sched.Params)) *trace.Trace {
		tr := record(t, 0, func(env *Env) {
			m := env.NewMachine(CFS, 5, WithSchedParams(mut))
			defer m.Shutdown()
			m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(pollBody()) }, kern.WithPin(0))
			m.Spawn("attacker", func(e *kern.Env) {
				e.SetTimerSlack(1)
				for i := 0; i < 50; i++ {
					e.Nanosleep(100 * timebase.Microsecond)
					e.Burn(10 * timebase.Microsecond)
				}
			}, kern.WithPin(0))
			m.RunFor(50 * timebase.Millisecond)
		})
		tr.Seed = 5
		return tr
	}
	base := runPerturbed(func(*sched.Params) {})
	skewed := runPerturbed(func(sp *sched.Params) { sp.WakeupGranularity = timebase.Second })
	d := trace.Diff(skewed, base)
	if d == nil {
		t.Fatal("disabling wakeup preemption produced an identical schedule")
	}
	if d.Kind != "event" && d.Kind != "event-count" {
		t.Fatalf("unexpected divergence kind %q", d.Kind)
	}
	if d.Kind == "event" && d.State == "" {
		t.Fatal("event divergence carries no reconstructed state")
	}
}

// TestTraceCaptureCap checks the per-machine cap truncates and flags.
func TestTraceCaptureCap(t *testing.T) {
	tr := record(t, 5, func(env *Env) { RunFig41(env, 1) })
	if !tr.Truncated {
		t.Fatal("capped capture not marked truncated")
	}
	perMachine := 0
	for _, e := range tr.Events {
		if e.Kind == trace.EvMachine {
			perMachine = 0
			continue
		}
		perMachine++
		if perMachine > 5 {
			t.Fatal("cap exceeded")
		}
	}
}
