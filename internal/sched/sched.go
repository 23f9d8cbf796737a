// Package sched defines the scheduling abstractions shared by the CFS and
// EEVDF models: tasks with nice-derived weights, virtual-runtime arithmetic,
// the Scheduler interface the simulation kernel drives, and the tunables of
// Table 2.1 (S_bnd, S_min, S_slack, S_preempt) with their core-count
// scaling.
package sched

import (
	"fmt"

	"repro/internal/timebase"
)

// NiceMin and NiceMax bound the nice range, as on Linux.
const (
	NiceMin = -20
	NiceMax = 19
)

// Nice0Load is the load weight of a nice-0 task (NICE_0_LOAD).
const Nice0Load int64 = 1024

// niceToWeight is Linux's sched_prio_to_weight table: each step changes CPU
// share by ~1.25x.
var niceToWeight = [40]int64{
	88761, 71755, 56483, 46273, 36291,
	29154, 23254, 18705, 14949, 11916,
	9548, 7620, 6100, 4904, 3906,
	3121, 2501, 1991, 1586, 1277,
	1024, 820, 655, 526, 423,
	335, 272, 215, 172, 137,
	110, 87, 70, 56, 45,
	36, 29, 23, 18, 15,
}

// WeightOf returns the load weight for a nice value, clamping to the valid
// range.
func WeightOf(nice int) int64 {
	if nice < NiceMin {
		nice = NiceMin
	}
	if nice > NiceMax {
		nice = NiceMax
	}
	return niceToWeight[nice-NiceMin]
}

// CalcDeltaFair converts delta real time into weighted virtual time for a
// task of the given weight: delta * NICE_0_LOAD / weight. A nice-0 task's
// vruntime advances at wall-clock rate (the paper's α=1); higher-priority
// tasks advance slower (α<1).
func CalcDeltaFair(delta timebase.Duration, weight int64) timebase.Duration {
	if weight == Nice0Load {
		return delta
	}
	return timebase.Duration(int64(delta) * Nice0Load / weight)
}

// State is the schedulability state of a task.
type State uint8

// Task states.
const (
	// StateBlocked means the task sits in the waitqueue (sleeping or
	// waiting on IO).
	StateBlocked State = iota
	// StateRunnable means the task sits in a runqueue but is not on-CPU.
	StateRunnable
	// StateRunning means the task is the current task of some core.
	StateRunning
	// StateDone means the task has exited.
	StateDone
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Task is the scheduler-visible state of a thread. The simulation kernel
// owns lifecycle and timing; schedulers own the virtual-time fields.
type Task struct {
	// ID is the simulated PID.
	ID int
	// Name labels the task in traces.
	Name string
	// Nice is the task's nice value; Weight is derived from it.
	Nice   int
	Weight int64

	// State is maintained by the kernel.
	State State

	// Vruntime is the task's virtual runtime in (weighted) nanoseconds. It
	// is preserved while the task sleeps (the τ_sleep of Equation 2.1).
	Vruntime int64

	// Deadline is the EEVDF virtual deadline.
	Deadline int64
	// VLag is the EEVDF lag snapshot taken at dequeue.
	VLag int64
	// Slice is the EEVDF base slice request in virtual time.
	Slice int64

	// SumExec is total CPU time consumed, for accounting and traces.
	SumExec timebase.Duration
	// LastWakePlacedLeft records whether the most recent wakeup placement
	// took the left-hand argument of Equation 2.1's max (τ_min − S_slack).
	// Exposed for traces and tests.
	LastWakePlacedLeft bool
	// WellSlept is set by the kernel before a wakeup enqueue when the task
	// slept long enough to earn full sleeper credit (EEVDF placement).
	WellSlept bool
}

// NewTask returns a task with the given identity and nice value.
func NewTask(id int, name string, nice int) *Task {
	return &Task{ID: id, Name: name, Nice: nice, Weight: WeightOf(nice)}
}

// SetNice updates the task's nice value and weight.
func (t *Task) SetNice(nice int) {
	t.Nice = nice
	t.Weight = WeightOf(nice)
}

// Scheduler is one per-core runqueue policy. The kernel guarantees:
//   - the current task is never in the queue (it is dequeued by PickNext and
//     put back by Enqueue with wakeup=false when preempted),
//   - UpdateCurr is called before any decision involving the current task.
type Scheduler interface {
	// Name identifies the policy ("cfs" or "eevdf").
	Name() string
	// SetCurr informs the runqueue which task is on-CPU (nil when the core
	// idles). Schedulers that aggregate over all runnable tasks (EEVDF's
	// average vruntime) need the current task even though it is dequeued.
	SetCurr(t *Task)
	// Enqueue adds t to the runqueue. wakeup reports whether t is arriving
	// from the waitqueue (Scenario 2), which triggers placement (Eq. 2.1 on
	// CFS, lag placement on EEVDF).
	Enqueue(t *Task, wakeup bool)
	// Dequeue removes t from the runqueue (Scenario 3 or migration).
	Dequeue(t *Task)
	// PickNext removes and returns the task to run now, or nil if the queue
	// is empty.
	PickNext() *Task
	// UpdateCurr charges delta of real execution time to the current task
	// curr (which is not in the queue).
	UpdateCurr(curr *Task, delta timebase.Duration)
	// WakeupPreempt reports whether freshly enqueued woken should preempt
	// curr (Equation 2.2 on CFS; eligibility+deadline on EEVDF). woken is
	// already in the queue; curr is not.
	WakeupPreempt(curr, woken *Task) bool
	// TickPreempt reports whether curr, which has been on-CPU for ranFor,
	// should be descheduled at a scheduler tick (Scenario 1).
	TickPreempt(curr *Task, ranFor timebase.Duration) bool
	// Detach renormalizes a task's virtual time to be queue-relative when
	// it migrates away (vruntime −= reference), and Attach rebases it onto
	// the destination queue (vruntime += reference). The kernel calls them
	// in Detach-then-Attach pairs around migrations.
	Detach(t *Task)
	Attach(t *Task)
	// NrQueued returns the number of runnable tasks in the queue (excluding
	// the current task).
	NrQueued() int
	// Queued returns the queued tasks (excluding current), for the load
	// balancer and traces. The slice must not be mutated.
	Queued() []*Task
}

// Checker is an optional Scheduler extension: policies that can audit their
// own internal consistency implement it, and the simulation kernel's
// periodic invariant scan invokes it (see kern.Machine.CheckInvariants).
type Checker interface {
	// CheckInvariants returns the first internal inconsistency found, or
	// nil when the runqueue state is coherent.
	CheckInvariants() error
}

// Resetter is an optional Scheduler extension: policies whose runqueues can
// be scrubbed in place implement it, and kern.Pool requires it to reuse a
// shut-down machine. Both built-in policies (cfs, eevdf) implement it.
type Resetter interface {
	// ResetState returns the runqueue to its freshly constructed state —
	// empty queue, zeroed virtual-time bookkeeping, detached telemetry —
	// retaining backing storage where possible so a pooled machine can be
	// rewarmed without allocating.
	ResetState()
}

// ValidateTask checks the policy-independent task invariants: a derived
// weight, a known state, and non-negative accumulated execution time.
func ValidateTask(t *Task) error {
	if t == nil {
		return fmt.Errorf("sched: nil task")
	}
	if t.Weight <= 0 {
		return fmt.Errorf("sched: task %d (%s) has non-positive weight %d", t.ID, t.Name, t.Weight)
	}
	if t.State > StateDone {
		return fmt.Errorf("sched: task %d (%s) has unknown state %d", t.ID, t.Name, uint8(t.State))
	}
	if t.SumExec < 0 {
		return fmt.Errorf("sched: task %d (%s) has negative SumExec %s", t.ID, t.Name, t.SumExec)
	}
	return nil
}

// Params holds the scheduler tunables of Table 2.1, after core-count
// scaling.
type Params struct {
	// Latency is sysctl_sched_latency: the fair-scheduling bound S_bnd.
	Latency timebase.Duration
	// MinGranularity is sysctl_sched_min_granularity: the minimum time
	// slice S_min.
	MinGranularity timebase.Duration
	// WakeupGranularity is sysctl_sched_wakeup_granularity: the wakeup
	// preemption threshold S_preempt.
	WakeupGranularity timebase.Duration
	// BaseSlice is the EEVDF per-request slice (sysctl_sched_base_slice).
	BaseSlice timebase.Duration
	// GentleFairSleepers halves the sleeper credit (S_slack = S_bnd/2); it
	// is the default scheduler feature on the evaluated system.
	GentleFairSleepers bool
	// WakeupPreemption enables waking threads to preempt the current
	// thread before its minimum slice. Disabling it is the mitigation the
	// Linux security team recommended (NO_WAKEUP_PREEMPTION, Chapter 6).
	WakeupPreemption bool
}

// ScalingFactor returns Linux's tunable scaling for a machine with ncores
// logical cores: min(1 + log2(ncores), 4).
func ScalingFactor(ncores int) int {
	f := 1
	for n := ncores; n > 1; n >>= 1 {
		f++
	}
	if f > 4 {
		f = 4
	}
	return f
}

// DefaultParams returns the Table 2.1 defaults for a machine with ncores
// logical cores. On the paper's 16-core machine: S_bnd=24ms, S_min=3ms,
// S_preempt=4ms, S_slack=12ms.
func DefaultParams(ncores int) Params {
	f := timebase.Duration(ScalingFactor(ncores))
	return Params{
		Latency:            6 * timebase.Millisecond * f,
		MinGranularity:     timebase.Duration(0.75 * float64(timebase.Millisecond) * float64(f)),
		WakeupGranularity:  1 * timebase.Millisecond * f,
		BaseSlice:          timebase.Duration(0.75 * float64(timebase.Millisecond) * float64(f)),
		GentleFairSleepers: true,
		WakeupPreemption:   true,
	}
}

// SleeperSlack returns S_slack: the maximum vruntime lag granted to a waking
// thread (Equation 2.1), S_bnd/2 under GENTLE_FAIR_SLEEPERS and S_bnd
// otherwise.
func (p Params) SleeperSlack() timebase.Duration {
	if p.GentleFairSleepers {
		return p.Latency / 2
	}
	return p.Latency
}

// PreemptionBudget returns S_slack − S_preempt: the total attacker-over-
// victim vruntime credit a single hibernation grants (§4.1). With the
// paper's parameters this is 8 ms.
func (p Params) PreemptionBudget() timebase.Duration {
	return p.SleeperSlack() - p.WakeupGranularity
}

// ExpectedPreemptions returns the paper's budget formula
// ⌈(S_slack−S_preempt)/(I_attacker−I_victim)⌉ (§4.1).
func (p Params) ExpectedPreemptions(dI timebase.Duration) int {
	if dI <= 0 {
		return 0
	}
	b := p.PreemptionBudget()
	return int((b + dI - 1) / dI)
}
