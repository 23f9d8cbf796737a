package kern

import "repro/internal/metrics"

// machineTelemetry holds the kernel's metric handles. It is always
// allocated — with a nil registry every handle is nil and each increment
// costs one branch — so call sites never test for instrumentation.
type machineTelemetry struct {
	events    [numEventKinds]*metrics.Counter
	eventsAny *metrics.Counter

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

// eventNames and schedOutNames are the counter-family names resolve feeds
// to CounterFamily, built once: resolve runs per machine construction and
// per pool fork, so per-call name building is wasted work on the campaign
// path.
var eventNames = func() []string {
	kinds := make([]string, numEventKinds)
	for k := range kinds {
		kinds[k] = eventKind(k).String()
	}
	return metrics.FamilyNames("kern_events_total", "kind", kinds...)
}()

var schedOutNames = func() []string {
	reasons := make([]string, int(OutPreemptedFault)+1)
	for reason := range reasons {
		reasons[reason] = SchedOutReason(reason).String()
	}
	return metrics.FamilyNames("kern_sched_out_total", "reason", reasons...)
}()

// resolve re-points the telemetry block at r (which may be nil, yielding
// no-op handles), overwriting whatever registry it fed before — machine
// pooling re-resolves the same block per fork, so the struct is zeroed
// first rather than relying on the registry to overwrite every field. All
// label formatting happens here, once: the dispatch and sched paths only
// ever index pre-resolved handle families.
func (tel *machineTelemetry) resolve(r *metrics.Registry) {
	*tel = machineTelemetry{}
	if r == nil {
		return
	}
	r.CounterFamily(tel.events[:], eventNames)
	tel.timerArmedNanosleep = r.Counter(`kern_timer_armed_total{type="nanosleep"}`)
	tel.timerArmedPeriodic = r.Counter(`kern_timer_armed_total{type="periodic"}`)
	tel.timerFired = r.Counter("kern_timer_fired_total")
	tel.timerDropped = r.Counter("kern_timer_dropped_total")
	tel.schedIn = r.Counter("kern_sched_in_total")
	r.CounterFamily(tel.schedOut[:], schedOutNames)
	tel.wakes = r.Counter("kern_wake_total")
	tel.wakePreemptHit = r.Counter(`kern_wake_preempt_total{outcome="hit"}`)
	tel.wakePreemptMis = r.Counter(`kern_wake_preempt_total{outcome="miss"}`)
	tel.wakeDepth = r.Histogram("kern_runqueue_depth", metrics.DepthBuckets)
	tel.spawns = r.Counter("kern_spawn_total")
	tel.migrations = r.Counter("kern_migrations_total")
}
