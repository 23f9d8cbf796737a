package trace

import (
	"repro/internal/kern"
	"repro/internal/timebase"
)

// Collector is a passive kern.Tracer that accumulates canonical events
// (free-form strings in their sanitized form, as Decode stores them). It
// consumes no randomness and never feeds back into the simulation, so
// attaching one does not perturb the run being recorded.
type Collector struct {
	max       int // 0 = unbounded
	truncated bool
	events    []Event
}

// NewCollector returns a collector keeping at most max events (0 keeps
// everything). A full collector drops further events and marks itself
// truncated; the cap keeps golden traces of long experiments committable.
func NewCollector(max int) *Collector {
	return &Collector{max: max}
}

// add appends an event, honouring the cap.
func (c *Collector) add(e Event) {
	if c.max > 0 && len(c.events) >= c.max {
		c.truncated = true
		return
	}
	c.events = append(c.events, e)
}

// SchedIn implements kern.Tracer.
func (c *Collector) SchedIn(t *kern.Thread, core int, decideAt, startAt timebase.Time) {
	c.add(Event{Kind: EvSchedIn, Thread: t.ID(), Name: sanitize(t.Name()), Core: core,
		At: decideAt, Start: startAt, Vruntime: t.Task().Vruntime})
}

// SchedOut implements kern.Tracer.
func (c *Collector) SchedOut(t *kern.Thread, core int, at timebase.Time, reason kern.SchedOutReason) {
	c.add(Event{Kind: EvSchedOut, Thread: t.ID(), Name: sanitize(t.Name()), Core: core,
		At: at, Reason: sanitize(reason.String()), Retired: t.Retired(), Vruntime: t.Task().Vruntime})
}

// Wake implements kern.Tracer.
func (c *Collector) Wake(t *kern.Thread, core int, at timebase.Time, preempted bool, curr *kern.Thread) {
	e := Event{Kind: EvWake, Thread: t.ID(), Name: sanitize(t.Name()), Core: core,
		At: at, Preempted: preempted, Curr: -1, Vruntime: t.Task().Vruntime}
	if curr != nil {
		e.Curr = curr.ID()
		e.CurrVruntime = curr.Task().Vruntime
	}
	c.add(e)
}

// Events returns the collected events.
func (c *Collector) Events() []Event { return c.events }

// Truncated reports whether the cap dropped events.
func (c *Collector) Truncated() bool { return c.truncated }
