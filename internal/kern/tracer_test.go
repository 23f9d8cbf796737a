package kern

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/timebase"
)

// streamTracer records every hook invocation with its arguments.
type streamTracer struct{ events []string }

func (s *streamTracer) SchedIn(t *Thread, core int, decideAt, startAt timebase.Time) {
	s.events = append(s.events, fmt.Sprintf("in %s core%d %d %d", t, core, decideAt, startAt))
}
func (s *streamTracer) SchedOut(t *Thread, core int, at timebase.Time, reason SchedOutReason) {
	s.events = append(s.events, fmt.Sprintf("out %s core%d %d %s", t, core, at, reason))
}
func (s *streamTracer) Wake(t *Thread, core int, at timebase.Time, preempted bool, curr *Thread) {
	s.events = append(s.events, fmt.Sprintf("wake %s core%d %d %t %v", t, core, at, preempted, curr))
}

// TestAttachTracerFanOut checks that two tracers attached to the same
// machine see identical event streams, and that a tracer attached between
// runs sees exactly the events from then on — the property ambient trace
// capture relies on when an experiment attaches its own recorder after it.
func TestAttachTracerFanOut(t *testing.T) {
	m := newTestMachine(t, 1)
	a, b := &streamTracer{}, &streamTracer{}
	m.AttachTracer(a)
	m.AttachTracer(b)
	m.AttachTracer(nil) // ignored

	work := func(name string) {
		m.Spawn(name, func(e *Env) {
			for i := 0; i < 3; i++ {
				e.Nanosleep(10 * timebase.Microsecond)
				e.Burn(5 * timebase.Microsecond)
			}
		})
		m.RunFor(5 * timebase.Millisecond)
	}
	work("worker")
	if len(a.events) == 0 {
		t.Fatal("attached tracer saw no events")
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("attached tracers saw different streams:\n%v\n%v", a.events, b.events)
	}

	before := len(a.events)
	late := &streamTracer{}
	m.AttachTracer(late)
	work("again")
	if !reflect.DeepEqual(late.events, a.events[before:]) || len(late.events) == 0 {
		t.Fatalf("late tracer saw %d events, want the %d since it was attached", len(late.events), len(a.events)-before)
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatal("earlier tracers diverged after a later attach")
	}
}

// TestDumpStateReportsEventQueue checks the machine dump includes the
// event-queue depth and pending-timer count, so invariant-failure
// postmortems show whether the machine died busy or drained.
func TestDumpStateReportsEventQueue(t *testing.T) {
	m := newTestMachine(t, 1)
	m.Spawn("sleeper", func(e *Env) {
		e.SetTimerSlack(1)
		e.TimerCreate(100 * timebase.Microsecond)
		e.RunLoopForever(loopBody(16))
	})
	m.RunFor(timebase.Millisecond)

	dump := m.DumpState()
	if !strings.Contains(dump, "queued") || !strings.Contains(dump, "pending timers") {
		t.Fatalf("dump missing event-queue line:\n%s", dump)
	}
	// A machine with an armed periodic timer must report at least one
	// pending timer and a non-empty queue.
	if m.events.depth() == 0 {
		t.Fatalf("live machine reports empty event queue:\n%s", dump)
	}
	if m.events.pendingTimers() == 0 {
		t.Fatalf("armed periodic timer not counted:\n%s", dump)
	}
}
