package kern

import (
	"fmt"
	"testing"

	"repro/internal/cfs"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// TestDenseFaultPreemptionsKeepTimeMonotonic runs an attack-shaped mix — a
// slack-1 sleeper that burns between naps, preempting a loading victim on
// core 0 — under scheduler fault checks every 1 or 10 ns, alone and with
// two balancer-spread hogs. Injected preemptions then land inside the
// sleeper's burns, and it resumes long after its burn's end: its clock
// must restart at its switch-in, not at that stale end in the machine's
// past, or its next nanosleep arms a wake behind machine time and the
// time-monotonic invariant fires.
func TestDenseFaultPreemptionsKeepTimeMonotonic(t *testing.T) {
	// Before the fix each of these panicked by 3.76ms (10ns, no hogs),
	// 3.84ms (1ns, hogs) and 11.22ms (10ns, hogs). The 1ns runs stop
	// sooner: they dispatch an event per simulated nanosecond.
	for _, tc := range []struct{ period, horizon timebase.Duration }{
		{1, 5 * timebase.Millisecond},
		{10, 12 * timebase.Millisecond},
	} {
		for _, hogs := range []bool{false, true} {
			t.Run(fmt.Sprintf("period=%s/hogs=%v", tc.period, hogs), func(t *testing.T) {
				p := DefaultParams(16, func() sched.Scheduler { return cfs.New(sched.DefaultParams(16)) })
				p.Faults = fault.Config{Rate: 0.05, CheckPeriod: tc.period}
				m := NewMachine(p)
				t.Cleanup(m.Shutdown)
				body := isa.NewBuilder("victim", 0x0048_0000, 4).ALU(16).Load(0x1000_0000).ALU(16).Load(0x1004_0000).Build().Insts
				m.Spawn("victim", func(e *Env) { e.RunLoopForever(body) }, WithPin(0))
				m.Spawn("attacker", func(e *Env) {
					e.SetTimerSlack(1)
					for {
						e.Nanosleep(30 * timebase.Microsecond)
						e.Burn(10 * timebase.Microsecond)
					}
				}, WithPin(0))
				if hogs {
					for i := 0; i < 2; i++ {
						m.Spawn("hog", func(e *Env) {
							for {
								e.Burn(50 * timebase.Microsecond)
							}
						})
					}
					m.StartBalancer()
				}
				if now := m.RunFor(tc.horizon); now != timebase.Time(tc.horizon) {
					t.Fatalf("run stopped at %s, want %s", now, tc.horizon)
				}
				if n := m.FaultCounts()["preempt"]; n == 0 {
					t.Fatal("no preemption was injected")
				}
			})
		}
	}
}
