package kern

import (
	"testing"

	"repro/internal/timebase"
)

// TestSteadyStateDispatchZeroAllocs is the allocation gate on the event
// engine: once the pooled event freelist, the lazily carved cache/TLB sets
// and the scheduler's node freelist have settled, dispatching events —
// timer fires, ticks, wakeups, context switches — must not touch the heap
// at all. A regression here (an event literal that bypasses the pool, a
// tracer hook that boxes, a fmt call on the hot path) turns sim-time
// throughput directly into GC pressure, which is exactly what this PR's
// benchmarks gate against.
func TestSteadyStateDispatchZeroAllocs(t *testing.T) {
	m := newTestMachine(t, 2)
	m.Spawn("spinner", func(e *Env) {
		for {
			e.Burn(50 * timebase.Microsecond)
			e.Nanosleep(200 * timebase.Microsecond)
		}
	})
	// Warm up: the first milliseconds allocate event chunks, carve cache
	// and TLB sets, grow the thread goroutine's stack and size the heap's
	// internal structures. Steady state must not.
	m.RunFor(20 * timebase.Millisecond)
	if avg := testing.AllocsPerRun(10, func() {
		m.RunFor(2 * timebase.Millisecond)
	}); avg != 0 {
		t.Fatalf("steady-state dispatch allocates %v/run, want 0", avg)
	}
}
