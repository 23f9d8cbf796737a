package repro

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// fanOutRun is what one experiment run leaves: its traced kernel event
// stream (with the rendered result) and the telemetry it counted.
type fanOutRun struct {
	tr   *trace.Trace
	tele map[string]int64
}

// runAt runs experiment id traced, under an ambient registry, with
// GOMAXPROCS set to procs for the duration.
func runAt(t *testing.T, id string, procs int) fanOutRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	reg := metrics.New()
	defer metrics.SetAmbient(metrics.SetAmbient(reg))
	res, tr, err := RunTraced(id, Options{Scale: Quick, Seed: 1}, 1500)
	if err != nil {
		t.Fatalf("%s at GOMAXPROCS=%d: %v", id, procs, err)
	}
	if len(tr.Result) == 0 || res.String() == "" {
		t.Fatalf("%s at GOMAXPROCS=%d rendered nothing", id, procs)
	}
	return fanOutRun{tr: tr, tele: reg.Flatten()}
}

// TestFanOutMatchesSerial: every registered experiment, run with its
// trials on the caller alone (GOMAXPROCS=1) and fanned out (GOMAXPROCS=4),
// renders the same result, counts the same telemetry and records the same
// kernel event stream, machine by machine.
func TestFanOutMatchesSerial(t *testing.T) {
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			serial, wide := runAt(t, id, 1), runAt(t, id, 4)
			if d := trace.Diff(wide.tr, serial.tr); d != nil {
				t.Errorf("trace diverges from the serial run: %s", d)
			}
			if !reflect.DeepEqual(wide.tele, serial.tele) {
				t.Errorf("telemetry differs from the serial run:\nserial: %v\nfanned: %v", serial.tele, wide.tele)
			}
		})
	}
}
