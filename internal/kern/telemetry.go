package kern

import (
	"repro/internal/metrics"
	"repro/internal/sched"
)

// machineTelemetry holds the kernel's metric handles. It is always
// allocated — with a nil registry every handle is nil and each increment
// costs one branch — so call sites never test for instrumentation.
type machineTelemetry struct {
	events [numEventKinds]*metrics.Counter

	timerArmedNanosleep *metrics.Counter
	timerArmedPeriodic  *metrics.Counter
	timerFired          *metrics.Counter
	timerDropped        *metrics.Counter

	schedIn  *metrics.Counter
	schedOut [int(OutPreemptedFault) + 1]*metrics.Counter

	wakes          *metrics.Counter
	wakePreemptHit *metrics.Counter
	wakePreemptMis *metrics.Counter
	wakeDepth      *metrics.Histogram

	spawns     *metrics.Counter
	migrations *metrics.Counter
}

// The kernel's metric names, interned once per process: resolve runs per
// machine construction and per pool fork, so it only indexes the registry
// by these ids.
var (
	eventNames = func() []metrics.Name {
		kinds := make([]string, numEventKinds)
		for k := range kinds {
			kinds[k] = eventKind(k).String()
		}
		return metrics.FamilyNames("kern_events_total", "kind", kinds...)
	}()
	schedOutNames = func() []metrics.Name {
		reasons := make([]string, int(OutPreemptedFault)+1)
		for reason := range reasons {
			reasons[reason] = SchedOutReason(reason).String()
		}
		return metrics.FamilyNames("kern_sched_out_total", "reason", reasons...)
	}()
	nameTimerArmedNanosleep = metrics.Intern(`kern_timer_armed_total{type="nanosleep"}`)
	nameTimerArmedPeriodic  = metrics.Intern(`kern_timer_armed_total{type="periodic"}`)
	nameTimerFired          = metrics.Intern("kern_timer_fired_total")
	nameTimerDropped        = metrics.Intern("kern_timer_dropped_total")
	nameSchedIn             = metrics.Intern("kern_sched_in_total")
	nameWakes               = metrics.Intern("kern_wake_total")
	nameWakePreemptHit      = metrics.Intern(`kern_wake_preempt_total{outcome="hit"}`)
	nameWakePreemptMiss     = metrics.Intern(`kern_wake_preempt_total{outcome="miss"}`)
	nameWakeDepth           = metrics.Intern("kern_runqueue_depth")
	nameSpawns              = metrics.Intern("kern_spawn_total")
	nameMigrations          = metrics.Intern("kern_migrations_total")
)

// resolve re-points the telemetry block at r (which may be nil, yielding
// no-op handles), overwriting whatever registry it fed before — machine
// pooling re-resolves the same block per fork, so the struct is zeroed
// first rather than relying on the registry to overwrite every field. All
// label formatting happens at init: the dispatch and sched paths only
// ever index pre-resolved handle families.
func (tel *machineTelemetry) resolve(r *metrics.Registry) {
	*tel = machineTelemetry{}
	if r == nil {
		return
	}
	r.CounterFamily(tel.events[:], eventNames)
	tel.timerArmedNanosleep = r.CounterOf(nameTimerArmedNanosleep)
	tel.timerArmedPeriodic = r.CounterOf(nameTimerArmedPeriodic)
	tel.timerFired = r.CounterOf(nameTimerFired)
	tel.timerDropped = r.CounterOf(nameTimerDropped)
	tel.schedIn = r.CounterOf(nameSchedIn)
	r.CounterFamily(tel.schedOut[:], schedOutNames)
	tel.wakes = r.CounterOf(nameWakes)
	tel.wakePreemptHit = r.CounterOf(nameWakePreemptHit)
	tel.wakePreemptMis = r.CounterOf(nameWakePreemptMiss)
	tel.wakeDepth = r.HistogramOf(nameWakeDepth, metrics.DepthBuckets)
	tel.spawns = r.CounterOf(nameSpawns)
	tel.migrations = r.CounterOf(nameMigrations)
}

// metricsSharer is a runqueue that can take the handles another core's
// queue resolved (cfs, eevdf). ShareMetrics reports false, changing
// nothing, when the peer is another policy.
type metricsSharer interface {
	ShareMetrics(peer sched.Scheduler) bool
}
