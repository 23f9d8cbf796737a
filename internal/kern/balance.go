package kern

import (
	"repro/internal/timebase"
)

// The load balancer: the CFS periodically migrates queued tasks from busy
// cores to idle ones, and a core that just went idle immediately tries to
// pull work. The colocation technique of §4.4 exploits exactly this logic:
// the attacker pins N−1 dummy threads to N−1 cores, leaving one core idle;
// the victim is then placed on (or pulled to) the idle core, after which the
// attacker pins its preemption thread there too. With every other core
// occupied, the balancer finds no idle target and the victim stays put.

// newlyIdlePull is the newidle balance: core c just went idle at time at;
// try to steal one queued (not running) task from the busiest core.
// It reports whether a task was pulled and switched in.
func (m *Machine) newlyIdlePull(c *Core, at timebase.Time) bool {
	src, task := m.findStealable(c)
	if task == nil {
		return false
	}
	m.migrate(src, c, task, at)
	c.pickAndSwitch(at)
	return true
}

// periodicBalance runs the periodic balancing pass: every idle core pulls
// from the busiest core, then the pass re-arms.
func (m *Machine) periodicBalance() {
	for _, c := range m.cores {
		if c.curr != nil || c.rq.NrQueued() > 0 {
			continue
		}
		src, task := m.findStealable(c)
		if task == nil {
			continue
		}
		m.migrate(src, c, task, m.now)
		c.pickAndSwitch(m.now)
	}
	if m.p.BalancePeriod > 0 {
		m.schedule(m.newEvent(m.now.Add(m.p.BalancePeriod), evBalance))
	}
}

// findStealable locates the busiest core with a migratable queued task for
// destination dst.
func (m *Machine) findStealable(dst *Core) (*Core, *Thread) {
	var src *Core
	bestLoad := 1 // need at least one queued task beyond the current one
	for _, c := range m.cores {
		if c == dst {
			continue
		}
		if l := c.NrRunnable(); l > bestLoad && c.rq.NrQueued() > 0 {
			if m.firstMigratable(c, dst) != nil {
				src, bestLoad = c, l
			}
		}
	}
	if src == nil {
		return nil, nil
	}
	return src, m.firstMigratable(src, dst)
}

// firstMigratable returns a queued thread on src that may run on dst.
func (m *Machine) firstMigratable(src, dst *Core) *Thread {
	for _, task := range src.rq.Queued() {
		t := m.threadByTask(task)
		if t.pinned >= 0 && t.pinned != dst.id {
			continue
		}
		// An installed cordon (package defense) keeps foreign threads off
		// the reserved cores: the balancer never pulls them there.
		if !m.defense.CoreAllowed(t.name, dst.id) {
			continue
		}
		return t
	}
	return nil
}

// migrate moves a queued thread between runqueues, renormalizing its
// virtual time against the destination queue.
func (m *Machine) migrate(src, dst *Core, t *Thread, at timebase.Time) {
	src.chargeCurr(at)
	dst.chargeCurr(at)
	src.rq.Dequeue(t.task)
	src.rq.Detach(t.task)
	t.core = dst
	dst.rq.Attach(t.task)
	dst.rq.Enqueue(t.task, false)
	m.tel.migrations.Inc()
	dst.armTick(at)
}
