// Package ktrace is the reproduction's stand-in for the paper's eBPF
// instrumentation (§4.3). Like eBPF it keeps no event log: a Follow hands
// one thread's scheduling events to the caller as they happen — its stints
// with instructions retired, its wakeups with the Equation 2.2 outcome, its
// vruntime at kernel exits and the cores it runs on — and the caller folds
// them into what it measures: temporal resolution (instructions retired per
// preemption), consecutive-preemption bursts, vruntime progressions
// (Figure 4.6) or whether a thread ever left its core.
package ktrace

import (
	"repro/internal/kern"
	"repro/internal/timebase"
)

// Stint is one on-CPU interval of a thread.
type Stint struct {
	Thread  *kern.Thread
	Core    int
	Start   timebase.Time // first-instruction time
	End     timebase.Time
	Reason  kern.SchedOutReason
	Retired int64 // instructions retired during the stint
}

// WakeRec is one wakeup (Scenario 2) with its preemption outcome.
type WakeRec struct {
	Thread    *kern.Thread
	Core      int
	At        timebase.Time
	Preempted bool
	// Curr is the thread that was running at the wake, nil if idle.
	Curr *kern.Thread
	// WokenVruntime is the woken thread's post-placement vruntime
	// (Equation 2.1's τ_wakeup); CurrVruntime is the current thread's at
	// the Equation 2.2 check.
	WokenVruntime int64
	CurrVruntime  int64
}

// VSample is a (time, thread, vruntime) sample taken at kernel exits.
type VSample struct {
	At       timebase.Time
	ThreadID int
	Vruntime int64
}

// Follow is a kern.Tracer that streams Thread's scheduling events to its
// funcs as they happen; nil funcs are skipped. It keeps only the thread's
// open stint.
type Follow struct {
	Thread *kern.Thread
	// OnCore receives the core of each stint as it begins, so a stint still
	// open when the run stops counts.
	OnCore func(core int)
	// OnVruntime receives the thread's vruntime at each sched-in, stamped
	// with the scheduling decision's time, and at each sched-out.
	OnVruntime func(VSample)
	// OnStint receives each stint as it ends. A sched-out with no sched-in
	// before it (the tracer attached mid-stint) ends no stint.
	OnStint func(Stint)
	// OnWake receives each wakeup with its preemption outcome.
	OnWake func(WakeRec)

	open  bool
	stint Stint
	base  int64 // retired count at stint start
}

// Bind returns a spawn option that points f at the thread being spawned,
// so f also sees the sched-in Spawn makes when it places the thread on an
// idle core.
func (f *Follow) Bind() kern.SpawnOption {
	return func(t *kern.Thread) { f.Thread = t }
}

// SchedIn implements kern.Tracer.
func (f *Follow) SchedIn(t *kern.Thread, core int, decideAt, startAt timebase.Time) {
	if t != f.Thread {
		return
	}
	f.open, f.stint, f.base = true, Stint{Thread: t, Core: core, Start: startAt}, t.Retired()
	if f.OnCore != nil {
		f.OnCore(core)
	}
	if f.OnVruntime != nil {
		f.OnVruntime(VSample{At: decideAt, ThreadID: t.ID(), Vruntime: t.Task().Vruntime})
	}
}

// SchedOut implements kern.Tracer.
func (f *Follow) SchedOut(t *kern.Thread, _ int, at timebase.Time, reason kern.SchedOutReason) {
	if t != f.Thread {
		return
	}
	if f.open {
		f.open = false
		if f.OnStint != nil {
			s := f.stint
			s.End, s.Reason, s.Retired = at, reason, t.Retired()-f.base
			f.OnStint(s)
		}
	}
	if f.OnVruntime != nil {
		f.OnVruntime(VSample{At: at, ThreadID: t.ID(), Vruntime: t.Task().Vruntime})
	}
}

// Wake implements kern.Tracer.
func (f *Follow) Wake(t *kern.Thread, core int, at timebase.Time, preempted bool, curr *kern.Thread) {
	if t != f.Thread || f.OnWake == nil {
		return
	}
	w := WakeRec{Thread: t, Core: core, At: at, Preempted: preempted, Curr: curr,
		WokenVruntime: t.Task().Vruntime}
	if curr != nil {
		w.CurrVruntime = curr.Task().Vruntime
	}
	f.OnWake(w)
}

// Bursts splits a thread's wake outcomes into runs of consecutive
// successful preemptions, each ended by a failed preemption (the fairness
// tripwire firing). Feed it from a Follow's OnWake.
type Bursts struct {
	runs   []int64
	cur    int64
	active bool
}

// Add folds one wake outcome.
func (b *Bursts) Add(w WakeRec) {
	if w.Preempted {
		b.cur++
		b.active = true
	} else if b.active {
		b.runs = append(b.runs, b.cur)
		b.cur, b.active = 0, false
	}
}

// Runs returns the runs so far, a still-open trailing run included, so
// callers running one burst per trial can take the first element.
func (b *Bursts) Runs() []int64 {
	if b.active {
		return append(b.runs[:len(b.runs):len(b.runs)], b.cur)
	}
	return b.runs
}
