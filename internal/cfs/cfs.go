// Package cfs models the Linux Completely Fair Scheduler as described in
// the paper's §2.1 (Linux 6.5 semantics): per-core runqueues kept in a
// red-black tree ordered by virtual runtime (with a cached leftmost node,
// as in the kernel), monotonic min_vruntime, the wakeup placement rule of
// Equation 2.1
//
//	τ_wakeup = max(τ_min − S_slack, τ_sleep)
//
// and the wakeup preemption rule of Equation 2.2
//
//	preempt ⇔ τ_curr − τ_wakeup > S_preempt.
//
// The S_slack > S_preempt gap between these two rules is the preemption
// budget that Controlled Preemption spends (§4.1).
package cfs

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/rbtree"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// rqItem adapts a task to the runqueue tree's ordering: by vruntime, ties
// by PID. A task's vruntime only changes while it is the current task —
// never while enqueued — so the key is stable.
type rqItem struct {
	t *sched.Task
}

func (i rqItem) Key() int64 { return i.t.Vruntime }
func (i rqItem) ID() int    { return i.t.ID }

// CFS is one per-core CFS runqueue.
type CFS struct {
	p    sched.Params
	tree *rbtree.Tree[rqItem]
	curr *sched.Task
	// minVruntime is the monotonically increasing floor used for wakeup
	// placement (cfs_rq->min_vruntime).
	minVruntime int64
	minInit     bool

	// tel holds scheduling-policy metric handles; nil handles (the
	// default) make every increment a no-op. Per-core queues share metric
	// names, aggregating machine-wide.
	tel struct {
		placeClamped *metrics.Counter
		placeKept    *metrics.Counter
		wakeGrant    *metrics.Counter
		wakeDeny     *metrics.Counter
		tickPreempt  *metrics.Counter
		budgetLead   *metrics.Histogram
	}
}

// The policy's metric names, interned once: every core's runqueue
// instruments itself at each machine construction and pool fork.
var (
	namePlaceClamped = metrics.Intern(`cfs_wake_place_total{placement="clamped"}`)
	namePlaceKept    = metrics.Intern(`cfs_wake_place_total{placement="kept"}`)
	nameWakeGrant    = metrics.Intern(`cfs_wakeup_preempt_total{decision="grant"}`)
	nameWakeDeny     = metrics.Intern(`cfs_wakeup_preempt_total{decision="deny"}`)
	nameTickPreempt  = metrics.Intern("cfs_tick_preempt_total")
	nameBudgetLead   = metrics.Intern("cfs_preempt_lead_vruntime")
)

// InstrumentMetrics wires the policy's decision points into a telemetry
// registry: Equation 2.1 placements (clamped to the floor vs kept),
// Equation 2.2 outcomes, tick preemptions, and a histogram of the vruntime
// lead a woken task had over the incumbent on granted preemptions — the
// preemption budget the attack spends (§4.1).
func (c *CFS) InstrumentMetrics(r *metrics.Registry) {
	c.tel.placeClamped = r.CounterOf(namePlaceClamped)
	c.tel.placeKept = r.CounterOf(namePlaceKept)
	c.tel.wakeGrant = r.CounterOf(nameWakeGrant)
	c.tel.wakeDeny = r.CounterOf(nameWakeDeny)
	c.tel.tickPreempt = r.CounterOf(nameTickPreempt)
	c.tel.budgetLead = r.HistogramOf(nameBudgetLead, metrics.DurationBuckets)
}

// ShareMetrics gives c the handles peer's InstrumentMetrics resolved, as
// instrumenting c into peer's registry would, and reports whether peer is
// a CFS queue; otherwise c is left alone.
func (c *CFS) ShareMetrics(peer sched.Scheduler) bool {
	p, ok := peer.(*CFS)
	if ok {
		c.tel = p.tel
	}
	return ok
}

// New returns an empty runqueue with the given tunables.
func New(p sched.Params) *CFS { return &CFS{p: p, tree: rbtree.New[rqItem]()} }

// Name implements sched.Scheduler.
func (c *CFS) Name() string { return "cfs" }

// Params returns the runqueue's tunables.
func (c *CFS) Params() sched.Params { return c.p }

// MinVruntime exposes the placement floor for traces and tests.
func (c *CFS) MinVruntime() int64 { return c.minVruntime }

// SetCurr informs the runqueue which task is on-CPU (nil when idle).
func (c *CFS) SetCurr(t *sched.Task) {
	c.curr = t
	if t != nil {
		c.observeMin()
	}
}

// observeMin advances min_vruntime toward min(curr, leftmost), never
// backwards.
func (c *CFS) observeMin() {
	have := false
	var m int64
	if c.curr != nil {
		m = c.curr.Vruntime
		have = true
	}
	if lm, ok := c.tree.Min(); ok {
		v := lm.Key()
		if !have || v < m {
			m = v
		}
		have = true
	}
	if !have {
		return
	}
	if !c.minInit {
		c.minVruntime = m
		c.minInit = true
		return
	}
	if m > c.minVruntime {
		c.minVruntime = m
	}
}

// Enqueue implements sched.Scheduler. With wakeup=true it applies the
// Equation 2.1 placement; with wakeup=false the task keeps its vruntime
// (preempted task going back on the queue).
func (c *CFS) Enqueue(t *sched.Task, wakeup bool) {
	if wakeup {
		slack := int64(sched.CalcDeltaFair(c.p.SleeperSlack(), sched.Nice0Load))
		floor := c.minVruntime - slack
		if t.Vruntime < floor {
			t.Vruntime = floor
			t.LastWakePlacedLeft = true
			c.tel.placeClamped.Inc()
		} else {
			t.LastWakePlacedLeft = false
			c.tel.placeKept.Inc()
		}
	}
	c.tree.Insert(rqItem{t})
	c.observeMin()
}

// Dequeue implements sched.Scheduler.
func (c *CFS) Dequeue(t *sched.Task) {
	c.tree.Delete(rqItem{t})
}

// PickNext implements sched.Scheduler: the leftmost (smallest-vruntime)
// task wins; ties break by task ID through the tree's key.
func (c *CFS) PickNext() *sched.Task {
	m, ok := c.tree.Min()
	if !ok {
		return nil
	}
	c.tree.Delete(m)
	return m.t
}

// UpdateCurr implements sched.Scheduler: charge delta of real time to the
// running task's virtual runtime at its weight-derived rate.
func (c *CFS) UpdateCurr(curr *sched.Task, delta timebase.Duration) {
	if delta <= 0 {
		return
	}
	curr.Vruntime += int64(sched.CalcDeltaFair(delta, curr.Weight))
	curr.SumExec += delta
	c.observeMin()
}

// WakeupPreempt implements Equation 2.2: a freshly woken task preempts the
// current task iff τ_curr − τ_wakeup exceeds S_preempt (scaled by the waking
// task's weight, as wakeup_gran is in the kernel). With the
// NO_WAKEUP_PREEMPTION mitigation this always returns false.
func (c *CFS) WakeupPreempt(curr, woken *sched.Task) bool {
	if !c.p.WakeupPreemption {
		c.tel.wakeDeny.Inc()
		return false
	}
	if curr == nil {
		c.tel.wakeGrant.Inc()
		return true
	}
	gran := int64(sched.CalcDeltaFair(c.p.WakeupGranularity, woken.Weight))
	lead := curr.Vruntime - woken.Vruntime
	if lead > gran {
		c.tel.wakeGrant.Inc()
		c.tel.budgetLead.Observe(lead)
		return true
	}
	c.tel.wakeDeny.Inc()
	return false
}

// TickPreempt implements the Scenario 1 check: the current task is
// protected for S_min, then descheduled once it exceeds its fair slice or
// leads the leftmost queued task by more than the slice (check_preempt_tick
// semantics; the paper describes the same policy with the S_bnd invariant).
func (c *CFS) TickPreempt(curr *sched.Task, ranFor timebase.Duration) bool {
	if c.tree.Len() == 0 {
		return false
	}
	slice := c.sliceFor(curr)
	if ranFor > slice {
		c.tel.tickPreempt.Inc()
		return true
	}
	if ranFor < c.p.MinGranularity {
		return false
	}
	lm, _ := c.tree.Min()
	leftmost := lm.Key()
	if curr.Vruntime-leftmost > int64(slice) {
		c.tel.tickPreempt.Inc()
		return true
	}
	return false
}

// sliceFor computes sched_slice: the share of the latency period owed to t
// at its weight.
func (c *CFS) sliceFor(t *sched.Task) timebase.Duration {
	nr := c.tree.Len() + 1
	period := c.p.Latency
	if maxNr := int(c.p.Latency / c.p.MinGranularity); nr > maxNr {
		period = timebase.Duration(nr) * c.p.MinGranularity
	}
	total := t.Weight
	c.tree.Each(func(i rqItem) bool {
		total += i.t.Weight
		return true
	})
	return timebase.Duration(int64(period) * t.Weight / total)
}

// Detach implements sched.Scheduler: migrating tasks carry their vruntime
// relative to the source queue's floor.
func (c *CFS) Detach(t *sched.Task) { t.Vruntime -= c.minVruntime }

// Attach implements sched.Scheduler: rebase onto this queue's floor.
func (c *CFS) Attach(t *sched.Task) {
	t.Vruntime += c.minVruntime
	c.observeMin()
}

// CheckInvariants implements sched.Checker: the runqueue tree is in
// vruntime order, holds no duplicate tasks, and every queued task passes
// the shared task validation. The current task is audited by the kernel.
func (c *CFS) CheckInvariants() error {
	var err error
	var prev int64
	first := true
	seen := make(map[int]bool, c.tree.Len())
	c.tree.Each(func(i rqItem) bool {
		t := i.t
		if err = sched.ValidateTask(t); err != nil {
			return false
		}
		if seen[t.ID] {
			err = fmt.Errorf("cfs: task %d (%s) queued twice", t.ID, t.Name)
			return false
		}
		seen[t.ID] = true
		if !first && t.Vruntime < prev {
			err = fmt.Errorf("cfs: runqueue out of vruntime order at task %d (%s): %d < %d",
				t.ID, t.Name, t.Vruntime, prev)
			return false
		}
		prev, first = t.Vruntime, false
		return true
	})
	return err
}

// ResetState implements sched.Resetter: empty tree (nodes return to its
// freelist), zeroed floor, detached telemetry — the state New returns,
// minus the allocations.
func (c *CFS) ResetState() {
	c.tree.Clear()
	c.curr = nil
	c.minVruntime = 0
	c.minInit = false
	c.tel.placeClamped = nil
	c.tel.placeKept = nil
	c.tel.wakeGrant = nil
	c.tel.wakeDeny = nil
	c.tel.tickPreempt = nil
	c.tel.budgetLead = nil
}

// NrQueued implements sched.Scheduler.
func (c *CFS) NrQueued() int { return c.tree.Len() }

// Queued implements sched.Scheduler, in vruntime order.
func (c *CFS) Queued() []*sched.Task {
	out := make([]*sched.Task, 0, c.tree.Len())
	c.tree.Each(func(i rqItem) bool {
		out = append(out, i.t)
		return true
	})
	return out
}
