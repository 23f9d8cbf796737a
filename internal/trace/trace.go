// Package trace serializes the kernel event stream (stints, wakes, vruntime
// samples) into a canonical compact text form, so an experiment's schedule
// can be committed as a golden file and mechanically re-checked: Diff
// structurally compares a re-recorded trace against the committed one and
// reports the first divergence — event index, both events, and the machine
// state reconstructed from the trace prefix — turning "the simulation
// silently drifted" into a failing test.
//
// The format ("cptrace v1") is line-oriented and deterministic:
//
//	cptrace v1 exp=fig4.1 seed=1 events=4211 results=17 truncated=0
//	M seed=1 label=CFS
//	I th=1:victim core=0 at=0 start=1462 vrt=0
//	O th=1:victim core=0 at=70000000 reason=wakeup-preempt ret=186000 vrt=3500000
//	W th=2:attacker core=0 at=70000000 pre=1 curr=1 wvrt=-8500000 cvrt=3500000
//	R fig4.1 — vruntime gap Δ = τ_victim − τ_attacker over one budget
//
// One M line opens each machine the experiment built; I/O/W lines are
// sched-in, sched-out and wake events with the acting thread's vruntime
// attached; R lines carry the rendered result, so even experiments that
// build no machine (pure-computation tables) have a golden to diff.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/durable"

	"repro/internal/timebase"
)

// Kind discriminates trace events.
type Kind uint8

// Event kinds.
const (
	// EvMachine opens the event stream of one simulated machine.
	EvMachine Kind = iota
	// EvSchedIn is a thread beginning an on-CPU stint.
	EvSchedIn
	// EvSchedOut is a thread leaving the CPU.
	EvSchedOut
	// EvWake is a thread re-entering a runqueue, with the wakeup-preemption
	// outcome.
	EvWake
)

// letter returns the one-byte line tag of the kind.
func (k Kind) letter() byte {
	switch k {
	case EvMachine:
		return 'M'
	case EvSchedIn:
		return 'I'
	case EvSchedOut:
		return 'O'
	default:
		return 'W'
	}
}

// Event is one canonical trace record. Only the fields meaningful for the
// kind are set; the struct is comparable, so Diff uses plain equality.
type Event struct {
	Kind Kind

	// Seed and Label describe the machine (EvMachine only).
	Seed  uint64
	Label string

	// Thread and Name identify the acting thread; Core is where it acted.
	Thread int
	Name   string
	Core   int

	// At is the event time (the scheduling decision for EvSchedIn).
	At timebase.Time
	// Start is the first-instruction time (EvSchedIn).
	Start timebase.Time
	// Reason is the sched-out reason (EvSchedOut).
	Reason string
	// Retired is the instructions retired during the stint (EvSchedOut).
	Retired int64
	// Vruntime is the acting thread's vruntime at the hook.
	Vruntime int64
	// Preempted is the Equation 2.2 outcome (EvWake).
	Preempted bool
	// Curr is the thread that was current at the wake, -1 if idle (EvWake).
	Curr int
	// CurrVruntime is the current thread's vruntime at the wake (EvWake).
	CurrVruntime int64
}

// String renders the event as its canonical trace line.
func (e Event) String() string {
	var b strings.Builder
	b.WriteByte(e.Kind.letter())
	switch e.Kind {
	case EvMachine:
		fmt.Fprintf(&b, " seed=%d label=%s", e.Seed, sanitize(e.Label))
		return b.String()
	case EvSchedIn:
		fmt.Fprintf(&b, " th=%d:%s core=%d at=%d start=%d vrt=%d",
			e.Thread, sanitize(e.Name), e.Core, int64(e.At), int64(e.Start), e.Vruntime)
	case EvSchedOut:
		fmt.Fprintf(&b, " th=%d:%s core=%d at=%d reason=%s ret=%d vrt=%d",
			e.Thread, sanitize(e.Name), e.Core, int64(e.At), sanitize(e.Reason), e.Retired, e.Vruntime)
	case EvWake:
		pre := 0
		if e.Preempted {
			pre = 1
		}
		fmt.Fprintf(&b, " th=%d:%s core=%d at=%d pre=%d curr=%d wvrt=%d cvrt=%d",
			e.Thread, sanitize(e.Name), e.Core, int64(e.At), pre, e.Curr, e.Vruntime, e.CurrVruntime)
	}
	return b.String()
}

// canonical returns e as Encode renders it: only the fields its kind
// carries, free-form strings sanitized. Decode stores events in this form,
// so Decode(Encode(t)) equals any decoded t.
func (e Event) canonical() Event {
	if e.Kind == EvMachine {
		return Event{Kind: EvMachine, Seed: e.Seed, Label: sanitize(e.Label)}
	}
	c := Event{Kind: e.Kind, Thread: e.Thread, Name: sanitize(e.Name), Core: e.Core, At: e.At, Vruntime: e.Vruntime}
	switch e.Kind {
	case EvSchedIn:
		c.Start = e.Start
	case EvSchedOut:
		c.Reason, c.Retired = sanitize(e.Reason), e.Retired
	case EvWake:
		c.Preempted, c.Curr, c.CurrVruntime = e.Preempted, e.Curr, e.CurrVruntime
	}
	return c
}

// sanitize makes a free-form label safe for the space-separated key=value
// line format. It is idempotent: its output is the canonical form Decode
// and Collector store.
func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.Map(func(r rune) rune {
		if r == ' ' || r == '=' || r == '\n' || r == '\t' {
			return '_'
		}
		return r
	}, s)
}

// Trace is one experiment run's canonical history: the scheduling events of
// every machine it built, in construction order, plus the rendered result.
type Trace struct {
	// Exp is the experiment ID ("" when recorded outside the registry).
	Exp string
	// Seed is the experiment's base seed.
	Seed uint64
	// Truncated marks a recording that hit its per-machine event cap; Diff
	// then only compares the common prefix.
	Truncated bool
	// Events is the merged event stream.
	Events []Event
	// Result is the experiment's rendered output, line by line.
	Result []string
}

// Encode writes the trace in the canonical text format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	trunc := 0
	if t.Truncated {
		trunc = 1
	}
	fmt.Fprintf(bw, "cptrace v1 exp=%s seed=%d events=%d results=%d truncated=%d\n",
		sanitize(t.Exp), t.Seed, len(t.Events), len(t.Result), trunc)
	for _, e := range t.Events {
		bw.WriteString(e.String())
		bw.WriteByte('\n')
	}
	for _, r := range t.Result {
		bw.WriteString("R ")
		bw.WriteString(r)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// WriteFile durably writes the trace to path through the shared atomic
// protocol (tmp + fsync + rename + fsync dir); failures at any step leave
// no *.tmp litter behind. The cptrace byte format is unchanged.
func (t *Trace) WriteFile(path string) error {
	var buf bytes.Buffer
	if err := t.Encode(&buf); err != nil {
		return err
	}
	return durable.WriteFileAtomic(durable.OS(), path, buf.Bytes(), 0o644)
}

// ReadFile reads a trace file written by WriteFile/Encode.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// Decode parses a canonical trace.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	t := &Trace{}
	header := sc.Text()
	fields := strings.Fields(header)
	if len(fields) < 2 || fields[0] != "cptrace" || fields[1] != "v1" {
		return nil, fmt.Errorf("trace: bad header %q (want \"cptrace v1 ...\")", header)
	}
	for _, f := range fields[2:] {
		k, v, err := splitKV(f)
		if err != nil {
			return nil, fmt.Errorf("trace: header: %w", err)
		}
		switch k {
		case "exp":
			if v = sanitize(v); v != "-" {
				t.Exp = v
			}
		case "seed":
			if t.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
				return nil, fmt.Errorf("trace: header seed: %w", err)
			}
		case "truncated":
			t.Truncated = v == "1"
		}
	}
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Text()
		if raw == "" {
			continue
		}
		if strings.HasPrefix(raw, "R ") || raw == "R" {
			// The scanner strips one trailing CR per line; strip them all,
			// so a re-encoded result line reads back the same.
			r := strings.TrimPrefix(strings.TrimPrefix(raw, "R"), " ")
			t.Result = append(t.Result, strings.TrimRight(r, "\r"))
			continue
		}
		e, err := parseEvent(raw)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// parseEvent parses one canonical event line.
func parseEvent(raw string) (Event, error) {
	fields := strings.Fields(raw)
	if len(fields) == 0 {
		return Event{}, fmt.Errorf("empty event line")
	}
	var e Event
	switch fields[0] {
	case "M":
		e.Kind = EvMachine
	case "I":
		e.Kind = EvSchedIn
	case "O":
		e.Kind = EvSchedOut
	case "W":
		e.Kind = EvWake
	default:
		return Event{}, fmt.Errorf("unknown event tag %q", fields[0])
	}
	for _, f := range fields[1:] {
		k, v, err := splitKV(f)
		if err != nil {
			return Event{}, err
		}
		switch k {
		case "seed":
			e.Seed, err = strconv.ParseUint(v, 10, 64)
		case "label":
			e.Label = v
		case "th":
			id, name, ok := strings.Cut(v, ":")
			if !ok {
				return Event{}, fmt.Errorf("bad thread field %q", v)
			}
			if e.Thread, err = strconv.Atoi(id); err == nil {
				e.Name = name
			}
		case "core":
			e.Core, err = strconv.Atoi(v)
		case "at":
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			e.At = timebase.Time(n)
		case "start":
			var n int64
			n, err = strconv.ParseInt(v, 10, 64)
			e.Start = timebase.Time(n)
		case "reason":
			e.Reason = v
		case "ret":
			e.Retired, err = strconv.ParseInt(v, 10, 64)
		case "vrt", "wvrt":
			e.Vruntime, err = strconv.ParseInt(v, 10, 64)
		case "pre":
			e.Preempted = v == "1"
		case "curr":
			e.Curr, err = strconv.Atoi(v)
		case "cvrt":
			e.CurrVruntime, err = strconv.ParseInt(v, 10, 64)
		default:
			return Event{}, fmt.Errorf("unknown field %q", k)
		}
		if err != nil {
			return Event{}, fmt.Errorf("field %q: %w", f, err)
		}
	}
	return e.canonical(), nil
}

// splitKV splits a "key=value" token.
func splitKV(f string) (string, string, error) {
	k, v, ok := strings.Cut(f, "=")
	if !ok {
		return "", "", fmt.Errorf("bad key=value token %q", f)
	}
	return k, v, nil
}
