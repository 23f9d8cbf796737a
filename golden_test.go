package repro

// Golden-trace regression gate: for a few representative experiments the
// full kernel event stream (capped per machine, plus the rendered result)
// is committed under testdata/golden/. Any change to the scheduler, the
// event loop or the experiment drivers that shifts even one scheduling
// decision fails these tests with a first-divergence report naming the
// event and the reconstructed machine state. Refresh the files with
//
//	go test -run TestGoldenTraces -update
//
// after verifying the behaviour change is intended.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// goldenEventCap bounds each machine's recorded events, keeping the
// committed files reviewable; Diff still compares the full rendered result.
const goldenEventCap = 2500

// goldenSeed pins the recording seed; goldenIDs picks a CFS machine run
// (fig4.1), a multi-machine noisy run (fig4.6) and a machine-less pure
// computation (tab2.1).
const goldenSeed = 1

var goldenIDs = []string{"fig4.1", "fig4.6", "tab2.1"}

func TestGoldenTraces(t *testing.T) {
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", id+".cptrace")
			_, got, err := RunTraced(id, Options{Scale: Quick, Seed: goldenSeed}, goldenEventCap)
			if err != nil {
				t.Fatalf("RunTraced(%s): %v", id, err)
			}
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := got.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d events, %d result lines)", path, len(got.Events), len(got.Result))
				return
			}
			want, err := trace.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if d := trace.Diff(got, want); d != nil {
				t.Fatalf("schedule diverged from golden %s:\n%s", path, d)
			}
		})
	}
}
