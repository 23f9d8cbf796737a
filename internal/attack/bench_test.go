package attack

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
	"repro/internal/victim/loopvictim"
)

// BenchmarkTLBEvict times TLBEvictor.Evict, the §4.3 iTLB+sTLB eviction
// the fig4.3b and fig4.7 attackers run before every preemption: a WithITLB
// loop victim shares core 0 with an attacker that alternates Evict with a
// 1 µs Burn. ns/evict is the wall time spent inside Evict alone; ns/op
// adds the attacker's Burn and the victim's share of the core.
func BenchmarkTLBEvict(b *testing.B) {
	sp := sched.DefaultParams(1)
	m := kern.NewMachine(kern.DefaultParams(1, func() sched.Scheduler { return cfs.New(sp) }))
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		e.RunLoopForever(loopvictim.DefaultBody())
	}, kern.WithPin(0), kern.WithITLB())
	var inEvict time.Duration
	done := false
	m.Spawn("attacker", func(e *kern.Env) {
		te := NewTLBEvictor(e, loopvictim.DefaultBase)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			te.Evict(e)
			inEvict += time.Since(start)
			e.Burn(timebase.Microsecond)
		}
		done = true
	}, kern.WithPin(0))
	m.Run(timebase.Never, func() bool { return done })
	b.ReportMetric(float64(inEvict.Nanoseconds())/float64(b.N), "ns/evict")
}
