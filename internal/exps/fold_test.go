package exps

import (
	"reflect"
	"testing"

	"repro/internal/kern"
	"repro/internal/ktrace"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// TestFoldsMatchRecorder: the folding tracers report exactly what a
// ktrace.Recorder riding the same machine retains — every victim stint
// (length, reason, retired instructions, in order) and the attacker's
// preemption bursts, including a still-open trailing run when the machine
// stops mid-burst.
func TestFoldsMatchRecorder(t *testing.T) {
	type stint struct {
		d       timebase.Duration
		reason  kern.SchedOutReason
		retired int64
	}
	for _, tc := range []struct {
		name     string
		runFor   timebase.Duration
		wantOpen bool
	}{
		{"three closed bursts", 2 * timebase.Second, false},
		{"stopped mid-burst", 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := (&Env{}).NewMachine(CFS, 3)
			defer m.Shutdown()
			victim := m.Spawn("victim", func(e *kern.Env) {
				e.RunLoopForever(loopvictim.DefaultBody())
			}, kern.WithPin(0))
			rec := ktrace.NewRecorder()
			m.AttachTracer(rec)
			var folded []stint
			m.AttachTracer(&stintFold{thread: victim, fn: func(d timebase.Duration, reason kern.SchedOutReason, retired int64) {
				folded = append(folded, stint{d, reason, retired})
			}})
			bf := &burstFold{}
			m.AttachTracer(bf)
			att := m.Spawn("attacker", ablationAttack(0), kern.WithPin(0))
			bf.thread = att
			if tc.wantOpen {
				// Step until the first burst is under way, then a little
				// further into it.
				for steps := 0; !bf.active && steps < 500; steps++ {
					m.RunFor(timebase.Millisecond)
				}
				m.RunFor(timebase.Millisecond)
			} else {
				m.RunFor(tc.runFor)
			}

			var want []stint
			for _, s := range rec.Stints {
				if s.Thread == victim {
					want = append(want, stint{s.End.Sub(s.Start), s.Reason, s.Retired})
				}
			}
			if len(want) < 10 || !reflect.DeepEqual(folded, want) {
				t.Fatalf("stint fold saw %d stints, recorder %d; first differing or empty:\nfold %v\nrec  %v",
					len(folded), len(want), head(folded), head(want))
			}
			wantBursts := rec.PreemptionBursts(att)
			if got := bf.bursts(); len(wantBursts) == 0 || !reflect.DeepEqual(got, wantBursts) {
				t.Fatalf("burst fold %v, recorder %v", got, wantBursts)
			}
			if bf.active != tc.wantOpen {
				t.Fatalf("trailing run open = %t, want %t (bursts %v)", bf.active, tc.wantOpen, wantBursts)
			}
		})
	}
}

func head[T any](xs []T) []T {
	if len(xs) > 5 {
		return xs[:5]
	}
	return xs
}
