package ktrace

// ref_test.go keeps the history-keeping Recorder the folds replaced, as the
// reference FuzzTraceFolds holds them to: it retains every stint, wake,
// vruntime sample and core switch of every thread, and answers the same
// questions by scanning that history after the run.

import (
	"repro/internal/kern"
	"repro/internal/timebase"
)

// Recorder implements kern.Tracer and accumulates scheduling history.
type Recorder struct {
	// Stints are completed on-CPU intervals, in order.
	Stints []Stint
	// Wakes are wakeups with preemption outcomes, in order.
	Wakes []WakeRec
	// VSamples are vruntime samples at every sched-in/out, in order.
	VSamples []VSample
	// CoreLog maps thread ID to the sequence of cores it ran on.
	CoreLog map[int][]int

	// SampleVruntime enables VSamples collection (off by default: the
	// vruntime figures need it, the histogram figures do not).
	SampleVruntime bool

	// open holds per-thread open stints by value — a pointer per stint
	// would make every sched-in an allocation on the simulator's hot path.
	open map[int]Stint
	base map[int]int64 // retired count at stint start
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		CoreLog: make(map[int][]int),
		open:    make(map[int]Stint),
		base:    make(map[int]int64),
	}
}

// SchedIn implements kern.Tracer.
func (r *Recorder) SchedIn(t *kern.Thread, core int, decideAt, startAt timebase.Time) {
	r.open[t.ID()] = Stint{Thread: t, Core: core, Start: startAt}
	r.base[t.ID()] = t.Retired()
	r.CoreLog[t.ID()] = append(r.CoreLog[t.ID()], core)
	if r.SampleVruntime {
		r.VSamples = append(r.VSamples, VSample{At: decideAt, ThreadID: t.ID(), Vruntime: t.Task().Vruntime})
	}
}

// SchedOut implements kern.Tracer.
func (r *Recorder) SchedOut(t *kern.Thread, core int, at timebase.Time, reason kern.SchedOutReason) {
	if s, ok := r.open[t.ID()]; ok {
		s.End = at
		s.Reason = reason
		s.Retired = t.Retired() - r.base[t.ID()]
		r.Stints = append(r.Stints, s)
		delete(r.open, t.ID())
	}
	if r.SampleVruntime {
		r.VSamples = append(r.VSamples, VSample{At: at, ThreadID: t.ID(), Vruntime: t.Task().Vruntime})
	}
}

// Wake implements kern.Tracer.
func (r *Recorder) Wake(t *kern.Thread, core int, at timebase.Time, preempted bool, curr *kern.Thread) {
	rec := WakeRec{Thread: t, Core: core, At: at, Preempted: preempted, Curr: curr,
		WokenVruntime: t.Task().Vruntime}
	if curr != nil {
		rec.CurrVruntime = curr.Task().Vruntime
	}
	r.Wakes = append(r.Wakes, rec)
}

// StepsOf returns the instructions-retired-per-preemption samples for
// thread t: the retired deltas of t's stints that ended in a wakeup
// preemption. This is the quantity histogrammed in Figures 4.3 and 4.7.
func (r *Recorder) StepsOf(t *kern.Thread) []int64 {
	var out []int64
	for _, s := range r.Stints {
		if s.Thread == t && s.Reason == kern.OutPreemptedWakeup {
			out = append(out, s.Retired)
		}
	}
	return out
}

// PreemptionBursts splits thread t's wake outcomes into runs of consecutive
// successful preemptions, each run terminated by a failed preemption (the
// fairness tripwire firing). A still-open trailing run is included, so
// callers running one burst per trial can take the first element.
func (r *Recorder) PreemptionBursts(t *kern.Thread) []int64 {
	var bursts []int64
	var cur int64
	active := false
	for _, w := range r.Wakes {
		if w.Thread != t {
			continue
		}
		if w.Preempted {
			cur++
			active = true
		} else if active {
			bursts = append(bursts, cur)
			cur = 0
			active = false
		}
	}
	if active {
		bursts = append(bursts, cur)
	}
	return bursts
}

// PreemptionsOf counts thread t's successful wakeup preemptions.
func (r *Recorder) PreemptionsOf(t *kern.Thread) int64 {
	var n int64
	for _, w := range r.Wakes {
		if w.Thread == t && w.Preempted {
			n++
		}
	}
	return n
}

// VSeriesOf returns the vruntime progression samples of a thread ID.
func (r *Recorder) VSeriesOf(id int) []VSample {
	var out []VSample
	for _, s := range r.VSamples {
		if s.ThreadID == id {
			out = append(out, s)
		}
	}
	return out
}

// InterleavePattern renders the sched-in order of the given threads as a
// string of their labels (e.g. "VAVANA..."), for the ((V|N)A)+ analysis of
// Figure 4.6.
func (r *Recorder) InterleavePattern(labels map[int]byte) string {
	var b []byte
	for _, s := range r.Stints {
		if l, ok := labels[s.Thread.ID()]; ok {
			b = append(b, l)
		}
	}
	return string(b)
}
