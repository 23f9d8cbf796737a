package exps

import (
	"repro/internal/kern"
	"repro/internal/timebase"
)

// Folding tracers: the histogram and ablation drivers read only a sliver of
// a ktrace.Recorder's history — one thread's stints, another's wake
// outcomes — so they fold those events as they happen instead of retaining
// every stint, wake and core switch of the run.

// stintFold is a kern.Tracer that hands each on-CPU stint of one thread to
// fn as it ends, with the stint's length (first-instruction time to
// sched-out), sched-out reason and retired instructions: the fields of the
// ktrace.Stint a Recorder would have appended.
type stintFold struct {
	thread *kern.Thread
	fn     func(d timebase.Duration, reason kern.SchedOutReason, retired int64)
	open   bool
	start  timebase.Time
	base   int64
}

func (f *stintFold) SchedIn(t *kern.Thread, _ int, _, startAt timebase.Time) {
	if t == f.thread {
		f.open, f.start, f.base = true, startAt, t.Retired()
	}
}

func (f *stintFold) SchedOut(t *kern.Thread, _ int, at timebase.Time, reason kern.SchedOutReason) {
	if t == f.thread && f.open {
		f.open = false
		f.fn(at.Sub(f.start), reason, t.Retired()-f.base)
	}
}

func (f *stintFold) Wake(*kern.Thread, int, timebase.Time, bool, *kern.Thread) {}

// burstFold is a kern.Tracer that splits one thread's wake outcomes into
// runs of consecutive successful preemptions, each ended by a failed one —
// ktrace.Recorder.PreemptionBursts, folded.
type burstFold struct {
	thread *kern.Thread
	runs   []int64
	cur    int64
	active bool
}

func (f *burstFold) SchedIn(*kern.Thread, int, timebase.Time, timebase.Time) {}

func (f *burstFold) SchedOut(*kern.Thread, int, timebase.Time, kern.SchedOutReason) {}

func (f *burstFold) Wake(t *kern.Thread, _ int, _ timebase.Time, preempted bool, _ *kern.Thread) {
	if t != f.thread {
		return
	}
	if preempted {
		f.cur++
		f.active = true
	} else if f.active {
		f.runs = append(f.runs, f.cur)
		f.cur, f.active = 0, false
	}
}

// bursts returns the runs so far, a still-open trailing run included.
func (f *burstFold) bursts() []int64 {
	if f.active {
		return append(f.runs[:len(f.runs):len(f.runs)], f.cur)
	}
	return f.runs
}
