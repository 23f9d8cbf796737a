package kern

import (
	"fmt"
	"strings"

	"repro/internal/timebase"
)

// flightDepth is the flight recorder's ring size.
const flightDepth = 64

type flightKind uint8

const (
	flightIn flightKind = iota
	flightOut
	flightWake
)

// flightEntry is one recorded scheduling event. Entries are plain values in
// a preallocated ring: recording allocates nothing and copies one struct.
type flightEntry struct {
	kind      flightKind
	at        timebase.Time
	core      int
	tid       int
	name      string
	startAt   timebase.Time  // flightIn: first-instruction time
	reason    SchedOutReason // flightOut
	preempted bool           // flightWake: Equation 2.2 outcome
	currTID   int            // flightWake: incumbent (0 if the core was idle)
}

// flightRecorder is a fixed-size ring over the kernel's scheduling event
// stream (the reproduction's crash-dump flight recorder). Every machine
// carries one, fed directly by the scheduling hooks, and DumpState appends
// its tail to each InvariantError machine dump, so every crash report ships
// the scheduling history that led up to it. The ring is part of the
// machine, so recording allocates nothing, including on pool forks.
type flightRecorder struct {
	buf  [flightDepth]flightEntry
	next int   // ring write position
	n    int64 // total events ever recorded
}

func (f *flightRecorder) record(e flightEntry) {
	f.buf[f.next] = e
	f.next = (f.next + 1) % flightDepth
	f.n++
}

// reset empties the recorder in place. Stale entries beyond the write
// position are unreachable (held and dump derive everything from the total
// count), so they are not scrubbed.
func (f *flightRecorder) reset() {
	f.next = 0
	f.n = 0
}

// held returns how many events are currently held (≤ flightDepth).
func (f *flightRecorder) held() int {
	return int(min(f.n, flightDepth))
}

// dump renders the retained tail oldest→newest, one line per event,
// numbered by absolute event sequence. Returns "" when nothing was
// recorded.
func (f *flightRecorder) dump() string {
	held := f.held()
	if held == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder (last %d of %d sched events):\n", held, f.n)
	start := 0
	if f.n >= flightDepth {
		start = f.next
	}
	for i := 0; i < held; i++ {
		e := f.buf[(start+i)%flightDepth]
		seq := f.n - int64(held) + int64(i) + 1
		fmt.Fprintf(&b, "  #%06d %12s core%d ", seq, e.at, e.core)
		switch e.kind {
		case flightIn:
			fmt.Fprintf(&b, "in   T%d %s (start %s)", e.tid, e.name, e.startAt)
		case flightOut:
			fmt.Fprintf(&b, "out  T%d %s (%s)", e.tid, e.name, e.reason)
		case flightWake:
			outcome := "miss"
			if e.preempted {
				outcome = "hit"
			}
			if e.currTID != 0 {
				fmt.Fprintf(&b, "wake T%d %s (preempt %s vs T%d)", e.tid, e.name, outcome, e.currTID)
			} else {
				fmt.Fprintf(&b, "wake T%d %s (idle core)", e.tid, e.name)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
