package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/exps"
	"repro/internal/kern"
	"repro/internal/metrics"
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

// withTrialPanicExperiment registers, for the test's duration, experiment
// id: three trials, each on its own machine, where trial 1 fails by
// calling fail on its machine after a short run. Every trial that finishes
// counts itself in test_trials_done_total. The trials fan out through
// exps.Trials, or run in a plain loop while *plain is set — the serial
// reference. When trials can run concurrently, trial 1 first waits
// (bounded) for trial 2 to finish, so the map has a finished trial after
// the failing one to discard; ran2 counts finished trial 2s.
func withTrialPanicExperiment(t *testing.T, id string, fail func(m *kern.Machine), plain *bool, ran2 *atomic.Int32) {
	t.Helper()
	saved := registry
	registry = append(registry[:len(registry):len(registry)], Experiment{
		ID:    id,
		Title: "trial 1 of 3 fails",
		Run: func(o Options) Result {
			var done2 sync.WaitGroup
			done2.Add(1)
			trial := func(env *exps.Env, i int) int {
				if i == 1 && !*plain && runtime.GOMAXPROCS(0) > 1 {
					waitBounded(&done2, 5*time.Second)
				}
				m := env.NewMachine(exps.CFS, o.seed()+uint64(i))
				defer m.Shutdown()
				m.Spawn("spin", func(e *kern.Env) {
					for {
						e.Burn(10 * timebase.Microsecond)
					}
				}, kern.WithPin(0))
				m.RunFor(2 * timebase.Millisecond)
				if i == 1 {
					fail(m)
				}
				env.Metrics.Counter(fmt.Sprintf("test_trials_done_total{trial=\"%d\"}", i)).Inc()
				if i == 2 {
					ran2.Add(1)
					done2.Done()
				}
				return i
			}
			if *plain {
				for i := 0; i < 3; i++ {
					trial(o.runEnv(), i)
				}
				return nil
			}
			exps.Trials(o.runEnv(), 3, trial)
			return nil
		},
		Metrics: func(Result) map[string]float64 { return nil },
	})
	t.Cleanup(func() { registry = saved })
}

// waitBounded waits for wg, giving up after d.
func waitBounded(wg *sync.WaitGroup, d time.Duration) {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(d):
	}
}

// trialFailureOutcome is everything a failed trial map leaves behind:
// the guarded run's error and attempts with the ambient registry it fed,
// and the failed entry's record in a width-2 parallel campaign.
type trialFailureOutcome struct {
	errText   string
	attempts  int
	telemetry map[string]int64
	record    string
}

func runTrialFailure(t *testing.T, id string) trialFailureOutcome {
	t.Helper()
	reg := metrics.New()
	restore := metrics.SetAmbient(reg)
	rep := RunGuarded(id, Options{Scale: Quick, Seed: 1}, 1)
	metrics.SetAmbient(restore)
	if rep.Err == nil || rep.Result != nil {
		t.Fatalf("RunGuarded(%s) = %+v, want a failure", id, rep)
	}
	out := trialFailureOutcome{errText: rep.Err.Error(), attempts: rep.Attempts, telemetry: reg.Flatten()}

	c, err := campaign.New(campaign.Config{Path: filepath.Join(t.TempDir(), "campaign.json"), Seed: 1},
		CampaignEntries([]string{id, "tab2.1"}, Options{Scale: Quick, Seed: 1}, 1))
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.RunParallel(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	rec := man.Entries[id]
	if rec == nil || rec.Status != campaign.StatusFailed || rec.Failure == nil {
		t.Fatalf("%s: record %+v, want a failure record", id, rec)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	out.record = string(b)
	for name, tel := range map[string]map[string]int64{"ambient registry": out.telemetry, "entry telemetry": rec.Telemetry} {
		if tel[`test_trials_done_total{trial="0"}`] != 2 {
			t.Errorf("%s: trial 0 finished in each attempt, but its counter is %d", name, tel[`test_trials_done_total{trial="0"}`])
		}
		for _, trial := range []string{"1", "2"} {
			if v, ok := tel[`test_trials_done_total{trial="`+trial+`"}`]; ok {
				t.Errorf("%s: trial %s counted %d; a trial at or after the failing one must not be merged", name, trial, v)
			}
		}
		if len(tel) < 2 {
			t.Errorf("%s: no kernel telemetry from the merged trials: %v", name, tel)
		}
	}
	return out
}

// TestTrialMapContainsFailures: a trial that fails mid-map leaves exactly
// what a plain serial loop over the same trials leaves — the same error
// text, attempts, telemetry and campaign failure record, at GOMAXPROCS 1
// and 4 — and trials after the failing one are never merged, even when
// they ran. The InvariantError case pins the record's machine dump too.
func TestTrialMapContainsFailures(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(m *kern.Machine)
		want string
	}{
		{"thread body panic", func(m *kern.Machine) {
			m.Spawn("bad", func(e *kern.Env) {
				e.Burn(10 * timebase.Microsecond)
				panic("trial 1 exploded")
			}, kern.WithPin(1))
			m.RunFor(5 * timebase.Millisecond)
		}, "trial 1 exploded"},
		{"invariant error", func(m *kern.Machine) {
			panic(&kern.InvariantError{Name: "planted", At: m.Now(), Detail: "trial 1", Dump: m.DumpState()})
		}, `invariant "planted" violated`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			id := "test.trialfail." + strings.ReplaceAll(tc.name, " ", "")
			var ran2 atomic.Int32
			plain := true
			withTrialPanicExperiment(t, id, tc.fail, &plain, &ran2)
			got := []trialFailureOutcome{runTrialFailure(t, id)}
			plain = false
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				ran2.Store(0)
				got = append(got, runTrialFailure(t, id))
				runtime.GOMAXPROCS(prev)
				t.Logf("GOMAXPROCS=%d: trial 2 finished %d times and was discarded", procs, ran2.Load())
			}
			ref := got[0]
			if !strings.Contains(ref.errText, tc.want) {
				t.Fatalf("error %q does not carry the trial's failure %q", ref.errText, tc.want)
			}
			if tc.name == "invariant error" && !strings.Contains(ref.record, `"dump":"`) {
				t.Errorf("failure record carries no machine dump: %s", ref.record)
			}
			for i, procs := range []int{1, 4} {
				m := got[1+i]
				if m.errText != ref.errText || m.attempts != ref.attempts {
					t.Errorf("GOMAXPROCS=%d: RunGuarded gives %d attempts, %q; the plain loop %d, %q",
						procs, m.attempts, m.errText, ref.attempts, ref.errText)
				}
				if !reflect.DeepEqual(m.telemetry, ref.telemetry) {
					t.Errorf("GOMAXPROCS=%d: telemetry %v; the plain loop %v", procs, m.telemetry, ref.telemetry)
				}
				if m.record != ref.record {
					t.Errorf("GOMAXPROCS=%d: campaign record %s; the plain loop %s", procs, m.record, ref.record)
				}
			}
		})
	}
}
