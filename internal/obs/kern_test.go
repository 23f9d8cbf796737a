package obs

import (
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
)

func newTestMachine(t *testing.T) *kern.Machine {
	t.Helper()
	p := kern.DefaultParams(1, func() sched.Scheduler {
		return cfs.New(sched.DefaultParams(1))
	})
	m := kern.NewMachine(p)
	t.Cleanup(m.Shutdown)
	return m
}

func spin(m *kern.Machine, name string) {
	m.Spawn(name, func(e *kern.Env) {
		for i := 0; i < 3; i++ {
			e.Nanosleep(10 * timebase.Microsecond)
			e.Burn(5 * timebase.Microsecond)
		}
	})
	m.RunFor(5 * timebase.Millisecond)
}

// TestBeginMachinePhaseRecordsBothClocks drives a real machine under a
// traced context and checks the machine-tier span carries the sim window
// alongside wall time, and that starting the next phase closes the prior
// one.
func TestBeginMachinePhaseRecordsBothClocks(t *testing.T) {
	tr, path := newTestTracer(t, "cplab")
	c := &Ctx{Tracer: tr}

	m := newTestMachine(t)
	c.BeginMachinePhase("fig4.1 seed=1", m)
	spin(m, "worker")

	// A second machine in the same entry rotates the phase.
	m2 := newTestMachine(t)
	c.BeginMachinePhase("fig4.1 seed=1 (b)", m2)
	spin(m2, "worker")
	c.ClosePhase()
	c.ClosePhase() // idempotent
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := ReadLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	var phases []*Span
	for _, s := range lg.Spans {
		if s.Tier == TierMachine {
			phases = append(phases, s)
		}
	}
	if len(phases) != 2 {
		t.Fatalf("got %d machine phases, want 2", len(phases))
	}
	for _, ph := range phases {
		if ph.SimEnd <= ph.SimStart {
			t.Fatalf("phase %q sim window empty: %+v", ph.Name, ph)
		}
		if ph.End <= ph.Start {
			t.Fatalf("phase %q wall window empty: %+v", ph.Name, ph)
		}
	}
}

// TestSliceFanOutCoexistsWithFlightRecorder attaches the slice tracer to a
// machine whose flight recorder is always on and checks both observers
// see the same run: slices flow under the machine phase, and the machine
// dump still ends with the recorder's tail.
func TestSliceFanOutCoexistsWithFlightRecorder(t *testing.T) {
	tr, path := newTestTracer(t, "cplab")
	c := &Ctx{Tracer: tr, Slices: true}

	m := newTestMachine(t)
	c.BeginMachinePhase("fig4.1 seed=1", m)
	spin(m, "worker")
	before := tr.Spans()
	spin(m, "worker2")
	if tr.Spans() <= before {
		t.Fatal("slice tracer stopped emitting")
	}
	if dump := m.DumpState(); !strings.Contains(dump, "flight recorder") {
		t.Fatalf("machine dump lost the flight-recorder tail:\n%s", dump)
	}

	c.ClosePhase()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	lg, err := ReadLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	var slices, wakes int
	var phase *Span
	for _, s := range lg.Spans {
		switch s.Tier {
		case TierSlice:
			slices++
			if s.SimEnd < s.SimStart || s.Attrs["core"] == "" || s.Attrs["reason"] == "" {
				t.Fatalf("malformed slice: %+v", s)
			}
			if phase == nil {
				phase = findParent(lg, s)
			}
		case TierMark:
			wakes++
		}
	}
	if slices == 0 || wakes == 0 {
		t.Fatalf("slice fan-out recorded %d slices, %d wakes; want both > 0", slices, wakes)
	}
	if phase == nil || phase.Tier != TierMachine {
		t.Fatalf("slices must parent under the machine phase, got %+v", phase)
	}
}

// TestDisabledContextLeavesMachineUntraced is the side-effect-free
// guarantee at the machine tier: a disabled context must not attach
// anything to the machine.
func TestDisabledContextLeavesMachineUntraced(t *testing.T) {
	var c *Ctx
	m := newTestMachine(t)
	c.BeginMachinePhase("fig4.1 seed=1", m)
	spin(m, "worker")
	// Nothing to assert on the machine side beyond not crashing; the
	// ambient-disabled alloc test pins the cost, this pins the behavior.
	enabled := &Ctx{}
	enabled.BeginMachinePhase("still disabled", m) // Tracer nil → no-op
	if enabled.phase != nil {
		t.Fatal("disabled ctx must not open a phase")
	}
}

// findParent resolves s's in-process parent in lg, or nil.
func findParent(lg *Log, s *Span) *Span {
	for _, p := range lg.Spans {
		if p.Proc == s.Proc && p.ID == s.Parent {
			return p
		}
	}
	return nil
}
