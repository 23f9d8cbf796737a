package repro

import (
	"bytes"
	"path/filepath"
	"strings"
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

// TestRunInstrumentedAndProfiled the convenience wrappers install and
// restore the ambient state and hand back populated collectors.
func TestRunInstrumentedAndProfiled(t *testing.T) {
	if metrics.Ambient() != nil {
		t.Fatal("ambient registry leaked into the test")
	}
	_, reg, err := RunInstrumented("fig4.1", Options{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.Ambient() != nil {
		t.Fatal("RunInstrumented leaked its registry")
	}
	for _, base := range []string{"kern_events_total", "kern_sched_out_total", "attack_preemptions_total"} {
		if reg.Total(base) == 0 {
			t.Errorf("metric %s is zero after fig4.1", base)
		}
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# TYPE kern_events_total counter") {
		t.Fatalf("Prometheus export missing kern_events_total family:\n%s", buf.String())
	}

	_, prof, err := RunProfiled("fig4.1", Options{Scale: Quick, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if metrics.AmbientProfiler() != nil {
		t.Fatal("RunProfiled leaked its profiler")
	}
	rep := prof.Report()
	if rep.TotalEvents == 0 || len(rep.ByEvent) == 0 || len(rep.ByPhase) == 0 {
		t.Fatalf("profiler report empty: %+v", rep)
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
		"Run":             func() error { _, err := Run("fig4.1", o); return err },
		"RunGuarded":      func() error { return RunGuarded("fig4.1", o, 0).Err },
		"RunTraced":       func() error { _, _, err := RunTraced("fig4.1", o, 0); return err },
		"RunInstrumented": func() error { _, _, err := RunInstrumented("fig4.1", o); return err },
		"RunProfiled":     func() error { _, _, err := RunProfiled("fig4.1", o); return err },
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
