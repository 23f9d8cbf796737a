package kern

import (
	"repro/internal/timebase"
)

// eventKind discriminates queued kernel events.
type eventKind uint8

const (
	evTimerFire eventKind = iota // one-shot or periodic hardware timer
	evTick                       // per-core scheduler tick
	evBalance                    // periodic load balancing
	evSignal                     // userspace signal delivery (Env.Signal)
	evIOWake                     // blocking-IO completion (pipe write)
	evFault                      // fault-injection scheduler check (package fault)

	numEventKinds = int(evFault) + 1
)

// String names the event kind (telemetry labels, flight-recorder lines).
func (k eventKind) String() string {
	switch k {
	case evTimerFire:
		return "timer-fire"
	case evTick:
		return "tick"
	case evBalance:
		return "balance"
	case evSignal:
		return "signal"
	case evIOWake:
		return "io-wake"
	case evFault:
		return "fault-check"
	}
	return "unknown"
}

// event is one entry in the machine's time-ordered event queue. Events are
// pooled: they come out of eventQueue.alloc and go back on the freelist when
// dispatched (machine.Run) or popped as cancelled, so steady-state dispatch
// does not touch the heap allocator. Nothing may hold an *event past its
// dispatch except Thread.wakeEvent, which is cleared on fire and on cancel.
type event struct {
	at   timebase.Time
	seq  int64 // insertion order, for deterministic tie-breaking
	kind eventKind

	// thread is the target of evTimerFire.
	thread *Thread
	// timer is the periodic timer that fired, nil for nanosleep wakeups.
	timer *PTimer
	// core is the target of evTick.
	core *Core
	// cancelled events are skipped on pop.
	cancelled bool
	// dropped marks a periodic-timer expiry swallowed by a DropIRQ fault:
	// the cadence continues but the expiry is not delivered.
	dropped bool
}

// eventChunk is how many events one arena growth allocates. A machine's
// steady state keeps only a handful of events in flight (one wake or tick
// per core plus the odd balance/fault check), so a single chunk normally
// serves the whole run.
const eventChunk = 64

// eventQueue is a min-heap over (at, seq) backed by a pooled event arena.
// live and liveTimers are maintained incrementally so depth/pendingTimers
// are O(1) — they used to scan the heap and are called from invariant dumps.
type eventQueue struct {
	heap []*event
	free []*event // released events, served LIFO
	seq  int64

	live       int // queued, non-cancelled events
	liveTimers int // queued, non-cancelled evTimerFire events
}

// alloc returns a zeroed event from the freelist, growing the arena by one
// chunk when it is empty. Chunks are never returned to the allocator: the
// pool only grows to the high-water mark of in-flight events.
func (q *eventQueue) alloc() *event {
	if n := len(q.free); n > 0 {
		e := q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		*e = event{}
		return e
	}
	chunk := make([]event, eventChunk)
	for i := 1; i < len(chunk); i++ {
		q.free = append(q.free, &chunk[i])
	}
	return &chunk[0]
}

// release returns a dispatched (or cancelled-and-popped) event to the pool.
func (q *eventQueue) release(e *event) {
	q.free = append(q.free, e)
}

func (q *eventQueue) push(e *event) {
	q.seq++
	e.seq = q.seq
	q.live++
	if e.kind == evTimerFire {
		q.liveTimers++
	}
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
}

// cancel marks a queued event dead and adjusts the live counters. The event
// stays in the heap until it surfaces (lazy deletion) and is pooled then.
func (q *eventQueue) cancel(e *event) {
	if e.cancelled {
		return
	}
	e.cancelled = true
	q.live--
	if e.kind == evTimerFire {
		q.liveTimers--
	}
}

func (q *eventQueue) empty() bool {
	q.skipCancelled()
	return len(q.heap) == 0
}

func (q *eventQueue) peek() *event {
	q.skipCancelled()
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// pop removes and returns the earliest live event. The caller owns it until
// it calls release; nothing else may retain the pointer past that.
func (q *eventQueue) pop() *event {
	q.skipCancelled()
	if len(q.heap) == 0 {
		return nil
	}
	e := q.popHead()
	q.live--
	if e.kind == evTimerFire {
		q.liveTimers--
	}
	return e
}

func (q *eventQueue) skipCancelled() {
	for len(q.heap) > 0 && q.heap[0].cancelled {
		q.release(q.popHead())
	}
}

// popHead removes heap[0] without touching the live counters.
func (q *eventQueue) popHead() *event {
	h := q.heap
	e := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	q.heap = h[:n]
	if n > 0 {
		q.down(0)
	}
	return e
}

func (q *eventQueue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) up(i int) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *eventQueue) down(i int) {
	h := q.heap
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && q.less(r, l) {
			min = r
		}
		if !q.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// reset empties the queue in place: every queued event (live or lazily
// cancelled) returns to the freelist and the counters rewind, so a pooled
// machine's next life starts from an empty queue without dropping the
// event arena.
func (q *eventQueue) reset() {
	for i, e := range q.heap {
		q.heap[i] = nil
		*e = event{}
		q.free = append(q.free, e)
	}
	q.heap = q.heap[:0]
	q.seq = 0
	q.live = 0
	q.liveTimers = 0
}

// depth counts live (non-cancelled) queued events.
func (q *eventQueue) depth() int { return q.live }

// pendingTimers counts live pending hardware-timer expiries (nanosleep
// wakes and periodic-timer fires).
func (q *eventQueue) pendingTimers() int { return q.liveTimers }
