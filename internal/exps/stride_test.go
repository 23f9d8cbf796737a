package exps

import (
	"fmt"
	"testing"

	"repro/internal/kern"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// TestInvariantStrideInert is the "invariant scans are pure checking"
// property: an attack-shaped machine — a spinning victim and an ε-sleeper
// attacker sharing core 0 — records the same kernel event stream whether
// the full invariant scan runs every event, at the kernel default, at a
// heavily relaxed cadence or never, and whether the machine is booted
// fresh or served by a machine pool.
func TestInvariantStrideInert(t *testing.T) {
	const seed = 7
	run := func(stride int, pooled bool) *trace.Trace {
		env := &Env{Trace: NewTraceCapture(0)}
		if pooled {
			env.Pool = NewMachinePool(nil)
		}
		m := env.NewMachine(CFS, seed, WithKernParams(func(p *kern.Params) { p.InvariantStride = stride }))
		defer m.Shutdown()
		m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(pollBody()) }, kern.WithPin(0))
		m.Spawn("attacker", func(e *kern.Env) {
			e.SetTimerSlack(1)
			for i := 0; i < 3000; i++ {
				e.Nanosleep(30 * timebase.Microsecond)
				e.Burn(10 * timebase.Microsecond)
			}
		}, kern.WithPin(0))
		m.RunFor(150 * timebase.Millisecond)
		tr := env.Trace.Trace()
		tr.Seed = seed
		return tr
	}

	// The default-stride fresh boot is the reference; it must run long
	// enough for the default cadence (2048 events) to scan several times.
	want := run(0, false)
	if n := len(want.Events); n < 4*2048 {
		t.Fatalf("reference recorded only %d events; too few to cross the default scan cadence", n)
	}
	for _, stride := range []int{1, 0, 65536, -1} {
		for _, pooled := range []bool{false, true} {
			t.Run(fmt.Sprintf("stride=%d/pooled=%t", stride, pooled), func(t *testing.T) {
				if d := trace.Diff(run(stride, pooled), want); d != nil {
					t.Fatalf("event stream depends on the invariant stride:\n%s", d)
				}
			})
		}
	}
}
