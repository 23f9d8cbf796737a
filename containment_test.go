package repro

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exps"
	"repro/internal/kern"
	"repro/internal/timebase"
)

const bodyPanicID = "test.bodypanic"

// withBodyPanicExperiment registers, for the test's duration, an
// experiment whose machine runs a thread body that panics mid-run. The
// panic starts on the body's goroutine, which no recover of the caller's
// covers; the kernel must carry it onto the goroutine that called
// Machine.Run.
func withBodyPanicExperiment(t *testing.T) {
	t.Helper()
	saved := registry
	registry = append(registry[:len(registry):len(registry)], Experiment{
		ID:    bodyPanicID,
		Title: "thread body panics",
		Run: func(o Options) Result {
			m := o.runEnv().NewMachine(exps.CFS, o.seed())
			defer m.Shutdown()
			m.Spawn("bad", func(e *kern.Env) {
				e.Burn(10 * timebase.Microsecond)
				panic("body exploded")
			}, kern.WithPin(0))
			m.RunFor(10 * timebase.Millisecond)
			return nil
		},
		Metrics: func(Result) map[string]float64 { return nil },
	})
	t.Cleanup(func() { registry = saved })
}

func TestRunGuardedContainsThreadBodyPanic(t *testing.T) {
	withBodyPanicExperiment(t)
	rep := RunGuarded(bodyPanicID, Options{Scale: Quick, Seed: 1}, 1)
	if rep.Err == nil || !strings.Contains(rep.Err.Error(), "body exploded") {
		t.Fatalf("RunGuarded err = %v, want the body's panic", rep.Err)
	}
	if rep.Attempts != 2 || !rep.Degraded || rep.Result != nil {
		t.Fatalf("report %+v, want two failed attempts and no result", rep)
	}
	if _, _, err := RunTraced(bodyPanicID, Options{Scale: Quick, Seed: 1}, 0); err == nil {
		t.Fatal("RunTraced returned no error for a panicking body")
	}
}

func TestParallelCampaignRecordsThreadBodyPanic(t *testing.T) {
	withBodyPanicExperiment(t)
	ids := []string{"fig4.1", bodyPanicID, "tab2.1"}
	c, err := campaign.New(campaign.Config{Path: filepath.Join(t.TempDir(), "campaign.json"), Seed: 1},
		CampaignEntries(ids, Options{Scale: Quick, Seed: 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.RunParallel(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		rec := man.Entries[id]
		want := campaign.StatusOK
		if id == bodyPanicID {
			want = campaign.StatusFailed
		}
		if rec == nil || rec.Status != want {
			t.Fatalf("%s: record %+v, want status %s", id, rec, want)
		}
	}
	if f := man.Entries[bodyPanicID].Failure; f == nil || !strings.Contains(f.Msg, "body exploded") {
		t.Fatalf("failure %+v does not carry the body's panic", f)
	}
}
