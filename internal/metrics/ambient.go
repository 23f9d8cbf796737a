package metrics

// The process-wide default registry and profiler. A binary (or a test)
// installs one around a run and restores the previous value after; the
// default is nil — telemetry fully off. Runs read these defaults once, when
// they build their explicit run environment (exps.Default); machines then
// capture their registry at construction and hand cached instrument handles
// around, so no simulation path looks them up.
//
// Like the other harness defaults they are written only from a driving
// goroutine with no runs in flight; they are not synchronized. Concurrent
// runs that need their own registry (campaign entries) carry it in their
// environment instead.

var (
	ambient     *Registry
	ambientProf *Profiler
)

// SetAmbient installs r as the process-wide registry and returns the
// previous one so callers can restore it (defer metrics.SetAmbient(prev)).
func SetAmbient(r *Registry) (prev *Registry) {
	prev = ambient
	ambient = r
	return prev
}

// Ambient returns the process-wide registry (nil when telemetry is off).
func Ambient() *Registry { return ambient }

// SetAmbientProfiler installs p as the process-wide profiler and returns
// the previous one.
func SetAmbientProfiler(p *Profiler) (prev *Profiler) {
	prev = ambientProf
	ambientProf = p
	return prev
}

// AmbientProfiler returns the process-wide profiler (nil when profiling is
// off).
func AmbientProfiler() *Profiler { return ambientProf }
