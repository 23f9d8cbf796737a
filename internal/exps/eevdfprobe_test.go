package exps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/kern"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// TestProbeEEVDFBudget is a white-box diagnostic of the EEVDF wake
// placement: it logs the vruntime gap, deadlines and lag at the first nap
// and asserts the burst is in the budget's ballpark.
func TestProbeEEVDFBudget(t *testing.T) {
	m := (&Env{}).NewMachine(EEVDF, 77)
	defer m.Shutdown()
	victim := m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0))
	var first bool = true
	a := core.NewAttacker(core.Config{
		Epsilon:        2 * timebase.Microsecond,
		Hibernate:      70 * timebase.Millisecond,
		StopAfterBurst: true,
		Measure: func(e *kern.Env, s core.Sample) bool {
			if first {
				first = false
				at := e.Thread().Task()
				vt := victim.Task()
				t.Logf("wake: vA=%d vV=%d gap=%v dA=%d dV=%d vlagA=%d wellslept=%v",
					at.Vruntime, vt.Vruntime, timebase.Duration(vt.Vruntime-at.Vruntime), at.Deadline, vt.Deadline, at.VLag, at.WellSlept)
			}
			e.Burn(12 * timebase.Microsecond)
			return true
		},
	})
	m.Spawn("attacker", a.Run, kern.WithPin(0))
	m.RunFor(3 * timebase.Second)
	t.Logf("burst=%v", a.Stats().BurstLengths)
	if len(a.Stats().BurstLengths) == 0 || a.Stats().BurstLengths[0] < 50 {
		t.Fatalf("EEVDF burst out of ballpark: %v", a.Stats().BurstLengths)
	}
}
