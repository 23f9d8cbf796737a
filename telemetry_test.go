package repro

import (
	"path/filepath"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
)

// TestMetricsSideEffectFree is the determinism contract: running an
// experiment with the full telemetry stack installed (ambient registry and
// sim-time profiler) must produce a kernel event stream and rendered result
// bit-identical to an uninstrumented run. Telemetry observes, never steers.
func TestMetricsSideEffectFree(t *testing.T) {
	o := Options{Scale: Quick, Seed: 1}
	_, plain, err := RunTraced("fig4.1", o, 0)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.New()
	prof := metrics.NewProfiler()
	prevReg := metrics.SetAmbient(reg)
	prevProf := metrics.SetAmbientProfiler(prof)
	_, instrumented, err := RunTraced("fig4.1", o, 0)
	metrics.SetAmbient(prevReg)
	metrics.SetAmbientProfiler(prevProf)
	if err != nil {
		t.Fatal(err)
	}

	if d := trace.Diff(instrumented, plain); d != nil {
		t.Fatalf("telemetry perturbed the schedule:\n%s", d)
	}
	if reg.Total("kern_events_total") == 0 {
		t.Fatal("instrumented run recorded no kernel events")
	}
	if rep := prof.Report(); rep.TotalEvents == 0 {
		t.Fatal("profiler attributed no events")
	}
}

// TestRunsCloseTheirSpans checks that every runner ends the machine-tier
// span its experiment's last machine opened on the ambient tracing context
// before returning. A driver that runs experiments back to back (`cplab
// all`) otherwise leaves each one's last phase running into the next
// experiment, and the final one is never written.
func TestRunsCloseTheirSpans(t *testing.T) {
	o := Options{Scale: Quick, Seed: 1}
	for name, runFn := range map[string]func() error{
		"Run":        func() error { _, err := Run("fig4.1", o); return err },
		"RunGuarded": func() error { return RunGuarded("fig4.1", o, 0).Err },
		"RunTraced":  func() error { _, _, err := RunTraced("fig4.1", o, 0); return err },
	} {
		t.Run(name, func(t *testing.T) {
			tr, err := obs.New(obs.Config{Proc: "test", Trace: "t", Path: filepath.Join(t.TempDir(), "spans.jsonl")})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			defer obs.SetAmbient(obs.SetAmbient(&obs.Ctx{Tracer: tr}))
			before := tr.Spans()
			if err := runFn(); err != nil {
				t.Fatal(err)
			}
			if got := tr.Spans() - before; got != 1 {
				t.Fatalf("fig4.1 builds one machine; %d spans ended by the time the run returned, want 1", got)
			}
		})
	}
}
