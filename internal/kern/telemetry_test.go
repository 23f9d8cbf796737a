package kern

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// telemetryWorkload drives a small mixed workload that exercises sleeps
// (wakes + timer fires), bursts (sched in/out) and multiple threads.
func telemetryWorkload(m *Machine) {
	m.Spawn("sleeper", func(e *Env) {
		e.SetTimerSlack(1)
		for i := 0; i < 50; i++ {
			e.Nanosleep(20 * timebase.Microsecond)
			e.Burn(5 * timebase.Microsecond)
		}
	})
	m.Spawn("spin", func(e *Env) {
		for j := 0; j < 500; j++ {
			e.Burn(20 * timebase.Microsecond)
		}
	})
	m.RunFor(5 * timebase.Millisecond)
}

// orderTracer appends its name to a shared log on every SchedIn.
type orderTracer struct {
	name string
	log  *[]string
}

func (o *orderTracer) SchedIn(t *Thread, core int, decideAt, startAt timebase.Time) {
	*o.log = append(*o.log, o.name)
}
func (o *orderTracer) SchedOut(*Thread, int, timebase.Time, SchedOutReason) {}
func (o *orderTracer) Wake(*Thread, int, timebase.Time, bool, *Thread)      {}

// TestTracerFanOutOrderingThreeTracers attaches three tracers and checks
// every scheduling event reaches all three in attach order.
func TestTracerFanOutOrderingThreeTracers(t *testing.T) {
	m := newTestMachine(t, 1)
	var log []string
	for _, name := range []string{"a", "b", "c"} {
		m.AttachTracer(&orderTracer{name: name, log: &log})
	}

	telemetryWorkload(m)

	if len(log) == 0 || len(log)%3 != 0 {
		t.Fatalf("want a multiple of 3 fan-out entries, got %d", len(log))
	}
	want := []string{"a", "b", "c"}
	for i := 0; i < len(log); i += 3 {
		if got := log[i : i+3]; !reflect.DeepEqual(got, want) {
			t.Fatalf("fan-out order at event %d: got %v, want %v", i/3, got, want)
		}
	}
}

// TestTelemetryIndependentOfAttachedTracers runs the same seeded workload
// with no tracers and with three attached, as traced experiments have, and
// expects identical kernel telemetry: the kernel feeds its counters itself,
// whatever else observes the stream.
func TestTelemetryIndependentOfAttachedTracers(t *testing.T) {
	run := func(tracers int) *metrics.Registry {
		reg := metrics.New()
		p := DefaultParams(1, func() sched.Scheduler { return cfs.New(sched.DefaultParams(1)) })
		p.Metrics = reg
		m := NewMachine(p)
		defer m.Shutdown()
		for i := 0; i < tracers; i++ {
			m.AttachTracer(&streamTracer{})
		}
		telemetryWorkload(m)
		return reg
	}
	bareReg, tracedReg := run(0), run(3)
	for _, base := range []string{"kern_events_total", "kern_sched_in_total", "kern_sched_out_total", "kern_wake_total", "kern_timer_fired_total"} {
		if tracedReg.Total(base) == 0 {
			t.Errorf("metric %s is zero after a traced workload", base)
		}
	}
	bare, traced := bareReg.Flatten(), tracedReg.Flatten()
	if !reflect.DeepEqual(bare, traced) {
		t.Fatalf("attaching tracers changed telemetry:\n--- none\n%v\n--- three\n%v", bare, traced)
	}
}

// TestKernTelemetryDeterministic runs the same seeded workload twice with
// fresh registries and expects identical flattened metrics — telemetry is a
// pure function of the deterministic event stream.
func TestKernTelemetryDeterministic(t *testing.T) {
	run := func() map[string]int64 {
		reg := metrics.New()
		p := DefaultParams(2, func() sched.Scheduler { return cfs.New(sched.DefaultParams(2)) })
		p.Seed = 42
		p.Metrics = reg
		m := NewMachine(p)
		defer m.Shutdown()
		telemetryWorkload(m)
		return reg.Flatten()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed telemetry differs:\n--- run1\n%v\n--- run2\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("telemetry empty after workload")
	}
}

// TestInvariantDumpContainsFlightTail induces an invariant violation and
// checks the machine dump carries the flight recorder's tail of recent
// scheduling events.
func TestInvariantDumpContainsFlightTail(t *testing.T) {
	m := newTestMachine(t, 1)
	m.Spawn("a", func(e *Env) {
		for j := 0; j < 100; j++ {
			e.Burn(10 * timebase.Microsecond)
		}
	})
	m.Spawn("b", func(e *Env) {
		for j := 0; j < 100; j++ {
			e.Burn(10 * timebase.Microsecond)
		}
	})
	m.RunFor(200 * timebase.Microsecond)

	var victim *Thread
	for _, th := range m.Threads() {
		if th.State() == sched.StateRunning {
			victim = th
			break
		}
	}
	if victim == nil {
		t.Fatal("no running thread")
	}
	victim.task.State = sched.StateBlocked
	err := m.CheckInvariants()
	victim.task.State = sched.StateRunning // heal before Shutdown
	if err == nil {
		t.Fatal("corruption not detected")
	}
	ie, ok := err.(*InvariantError)
	if !ok {
		t.Fatalf("want *InvariantError, got %T: %v", err, err)
	}
	if !strings.Contains(ie.Dump, "flight recorder") {
		t.Fatalf("invariant dump missing flight-recorder tail:\n%s", ie.Dump)
	}
	// The tail must hold real entries, oldest to newest, numbered.
	if !strings.Contains(ie.Dump, "#0000") {
		t.Fatalf("flight-recorder tail has no entries:\n%s", ie.Dump)
	}
}

// TestFlightRecorderWraps checks the always-on ring keeps only the newest
// flightDepth entries.
func TestFlightRecorderWraps(t *testing.T) {
	m := newTestMachine(t, 1)
	telemetryWorkload(m)
	fr := &m.flight
	if fr.held() != flightDepth {
		t.Fatalf("ring holds %d entries, want %d", fr.held(), flightDepth)
	}
	if fr.n <= flightDepth {
		t.Fatalf("workload recorded only %d events; test needs wrap-around", fr.n)
	}
	dump := m.DumpState()
	if want := fmt.Sprintf("last %d of %d", flightDepth, fr.n); !strings.Contains(dump, want) {
		t.Fatalf("dump header missing %q:\n%s", want, dump)
	}
}
