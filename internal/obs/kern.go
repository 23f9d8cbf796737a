package obs

import (
	"fmt"
	"strconv"

	"repro/internal/kern"
	"repro/internal/timebase"
)

// kernTime keeps the kern.Tracer hook signatures readable below.
type kernTime = timebase.Time

// BeginMachinePhase opens a machine-tier span for a freshly constructed
// machine and makes it the context's current phase, ending the previous
// phase first (experiments build machines back-to-back inside one entry;
// each machine's lifetime is one phase). When the context opts into
// slices, a slice tracer is attached so every scheduler stint becomes a
// slice span carrying both clocks.
//
// Nil-safe on a nil/disabled context, and called only from the goroutine
// that owns the context (the one running the entry) — the same contract
// as metrics.Profiler phases.
func (c *Ctx) BeginMachinePhase(label string, m *kern.Machine) {
	if !c.Enabled() || m == nil {
		return
	}
	sp := c.Tracer.Start(label, TierMachine, c.Parent)
	sp.SimStart = int64(m.Now())
	c.beginPhase(sp, func() int64 { return int64(m.Now()) })
	if c.Slices {
		m.AttachTracer(&sliceTracer{tr: c.Tracer, parent: sp})
	}
}

// sliceTracer implements kern.Tracer, turning the machine's event stream
// into slice spans: one span per scheduler stint (SchedIn..SchedOut on a
// core), plus instant marks for wakes. It is one of the machine's attached
// tracers, next to the experiment's own recorder and trace capture.
//
// All hooks fire on the machine's driving goroutine, so the per-core book
// needs no locking; only Tracer.emit synchronizes.
type sliceTracer struct {
	tr     *Tracer
	parent *Span
	open   map[int]openStint
}

type openStint struct {
	name   string
	tid    int
	simIn  int64
	wallIn int64
}

func (s *sliceTracer) SchedIn(t *kern.Thread, core int, decideAt, startAt kernTime) {
	if s.open == nil {
		s.open = make(map[int]openStint, 8)
	}
	s.open[core] = openStint{
		name:   t.Name(),
		tid:    t.ID(),
		simIn:  int64(startAt),
		wallIn: s.tr.now(),
	}
}

func (s *sliceTracer) SchedOut(t *kern.Thread, core int, at kernTime, reason kern.SchedOutReason) {
	st, ok := s.open[core]
	if !ok {
		return // machine started mid-stint relative to attach; skip the torn head
	}
	delete(s.open, core)
	sp := s.tr.Start(st.name, TierSlice, s.parent)
	sp.Start = st.wallIn
	sp.SimStart = st.simIn
	sp.SimEnd = int64(at)
	sp.SetAttr("core", strconv.Itoa(core))
	sp.SetAttr("thread", strconv.Itoa(st.tid))
	sp.SetAttr("reason", reason.String())
	sp.Finish()
}

func (s *sliceTracer) Wake(t *kern.Thread, core int, at kernTime, preempted bool, curr *kern.Thread) {
	sp := s.tr.Start(fmt.Sprintf("wake %s", t.Name()), TierMark, s.parent)
	sp.SimStart = int64(at)
	sp.SimEnd = int64(at)
	sp.SetAttr("core", strconv.Itoa(core))
	if preempted {
		sp.SetAttr("preempted", "true")
	}
	sp.Finish()
}
