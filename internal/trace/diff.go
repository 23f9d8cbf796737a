package trace

import (
	"fmt"
	"strings"
)

// contextLines is how many neighbouring events a divergence report shows on
// each side of the first diverging event.
const contextLines = 3

// Divergence is the first structural difference between two traces. Kind
// says where it was found ("header", "event", "event-count", "result",
// "result-count"); Index is the diverging event or result-line index.
type Divergence struct {
	Kind  string
	Index int
	// Got and Want are the diverging records, rendered canonically ("" when
	// one side ran out of events).
	Got, Want string
	// ContextGot and ContextWant are the surrounding events of each trace,
	// rendered with their indices.
	ContextGot, ContextWant []string
	// State is the machine state implied by the recorded prefix: which
	// thread each core was running and every thread's last observed
	// vruntime, reconstructed from the golden side up to the divergence.
	State string
}

// String renders the first-divergence report.
func (d *Divergence) String() string {
	var b strings.Builder
	switch d.Kind {
	case "header":
		fmt.Fprintf(&b, "trace header mismatch:\n  got:  %s\n  want: %s\n", d.Got, d.Want)
		return b.String()
	case "event-count", "result-count":
		fmt.Fprintf(&b, "trace %s mismatch at index %d:\n  got:  %s\n  want: %s\n",
			d.Kind, d.Index, orEnd(d.Got), orEnd(d.Want))
	default:
		fmt.Fprintf(&b, "trace diverges at %s %d:\n  got:  %s\n  want: %s\n",
			d.Kind, d.Index, orEnd(d.Got), orEnd(d.Want))
	}
	writeContext := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "%s:\n", title)
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	writeContext("context (got)", d.ContextGot)
	writeContext("context (want)", d.ContextWant)
	if d.State != "" {
		fmt.Fprintf(&b, "machine state at divergence (reconstructed from golden prefix):\n%s", d.State)
	}
	return b.String()
}

// orEnd substitutes a marker for an exhausted side.
func orEnd(s string) string {
	if s == "" {
		return "<no more events>"
	}
	return s
}

// Diff structurally compares a re-recorded trace against a golden one and
// returns the first divergence, or nil when they match. When either trace is
// truncated (hit its recording cap) only the common event prefix is
// compared; rendered results are always compared in full.
func Diff(got, want *Trace) *Divergence {
	if got.Exp != "" && want.Exp != "" && got.Exp != want.Exp {
		return &Divergence{Kind: "header",
			Got:  fmt.Sprintf("exp=%s seed=%d", got.Exp, got.Seed),
			Want: fmt.Sprintf("exp=%s seed=%d", want.Exp, want.Seed)}
	}
	if got.Seed != want.Seed {
		return &Divergence{Kind: "header",
			Got:  fmt.Sprintf("exp=%s seed=%d", got.Exp, got.Seed),
			Want: fmt.Sprintf("exp=%s seed=%d", want.Exp, want.Seed)}
	}
	n := len(got.Events)
	if len(want.Events) < n {
		n = len(want.Events)
	}
	for i := 0; i < n; i++ {
		if got.Events[i] != want.Events[i] {
			return eventDivergence(got, want, i)
		}
	}
	if len(got.Events) != len(want.Events) {
		// A shorter truncated side is expected: it stopped recording, it did
		// not diverge. A shorter complete side is missing events.
		if len(got.Events) < len(want.Events) && !got.Truncated {
			d := eventDivergence(got, want, n)
			d.Kind = "event-count"
			return d
		}
		if len(want.Events) < len(got.Events) && !want.Truncated {
			d := eventDivergence(got, want, n)
			d.Kind = "event-count"
			return d
		}
	}
	rn := len(got.Result)
	if len(want.Result) < rn {
		rn = len(want.Result)
	}
	for i := 0; i < rn; i++ {
		if got.Result[i] != want.Result[i] {
			return &Divergence{Kind: "result", Index: i,
				Got: got.Result[i], Want: want.Result[i]}
		}
	}
	if len(got.Result) != len(want.Result) {
		d := &Divergence{Kind: "result-count", Index: rn}
		if rn < len(got.Result) {
			d.Got = got.Result[rn]
		}
		if rn < len(want.Result) {
			d.Want = want.Result[rn]
		}
		return d
	}
	return nil
}

// eventDivergence builds the report for a divergence at event index i.
func eventDivergence(got, want *Trace, i int) *Divergence {
	d := &Divergence{Kind: "event", Index: i}
	if i < len(got.Events) {
		d.Got = got.Events[i].String()
	}
	if i < len(want.Events) {
		d.Want = want.Events[i].String()
	}
	d.ContextGot = renderContext(got.Events, i)
	d.ContextWant = renderContext(want.Events, i)
	d.State = stateAt(want.Events, i)
	return d
}

// renderContext renders events[i-contextLines, i+contextLines] with indices.
func renderContext(events []Event, i int) []string {
	lo := i - contextLines
	if lo < 0 {
		lo = 0
	}
	hi := i + contextLines + 1
	if hi > len(events) {
		hi = len(events)
	}
	out := make([]string, 0, hi-lo)
	for j := lo; j < hi; j++ {
		marker := " "
		if j == i {
			marker = ">"
		}
		out = append(out, fmt.Sprintf("%s[%6d] %s", marker, j, events[j].String()))
	}
	return out
}

// stateAt replays the first n events and renders the scheduler-visible
// machine state they imply: the open machine, each core's current thread,
// and every thread's last observed vruntime and core.
func stateAt(events []Event, n int) string {
	if n > len(events) {
		n = len(events)
	}
	type threadState struct {
		id       int
		name     string
		core     int
		vruntime int64
	}
	var machine Event
	curr := map[int]int{} // core -> thread id (running)
	threads := map[int]*threadState{}
	order := []int{}
	note := func(id int, name string, core int, vrt int64) *threadState {
		ts, ok := threads[id]
		if !ok {
			ts = &threadState{id: id}
			threads[id] = ts
			order = append(order, id)
		}
		ts.name, ts.core, ts.vruntime = name, core, vrt
		return ts
	}
	for _, e := range events[:n] {
		switch e.Kind {
		case EvMachine:
			// A new machine resets the reconstruction.
			machine = e
			curr = map[int]int{}
			threads = map[int]*threadState{}
			order = order[:0]
		case EvSchedIn:
			note(e.Thread, e.Name, e.Core, e.Vruntime)
			curr[e.Core] = e.Thread
		case EvSchedOut:
			note(e.Thread, e.Name, e.Core, e.Vruntime)
			if curr[e.Core] == e.Thread {
				delete(curr, e.Core)
			}
		case EvWake:
			note(e.Thread, e.Name, e.Core, e.Vruntime)
		}
	}
	var b strings.Builder
	if machine.Kind == EvMachine {
		fmt.Fprintf(&b, "  machine seed=%d label=%s\n", machine.Seed, machine.Label)
	}
	for _, id := range order {
		ts := threads[id]
		running := ""
		if curr[ts.core] == id {
			running = fmt.Sprintf(" RUNNING on core %d", ts.core)
		}
		fmt.Fprintf(&b, "  thread %d:%s core=%d vrt=%d%s\n", ts.id, ts.name, ts.core, ts.vruntime, running)
	}
	return b.String()
}
