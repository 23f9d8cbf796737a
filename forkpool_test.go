package repro

// Fork-identity gate for machine pooling: a machine served by a machine
// pool (exps.ScopeMachinePool) must produce a kernel event
// stream byte-identical to a freshly booted machine's — under the default
// configuration, under fault injection, under every defense preset, and
// after arbitrarily many fork/reset reuse cycles of the same pooled
// shells. The committed goldens, recorded from freshly booted machines,
// are the fresh reference. The campaign gate below requires every record
// of a width-2 campaign sharing warm pools to equal its entry run alone.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/exps"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// forkIdentityIDs matches the golden-trace gate: a CFS machine run
// (fig4.1), a multi-machine noisy run (fig4.6) and a machine-less pure
// computation (tab2.1).
var forkIdentityIDs = []string{"fig4.1", "fig4.6", "tab2.1"}

func TestForkedMachineGoldenIdentity(t *testing.T) {
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{Scale: Quick, Seed: goldenSeed}},
		{"chaos", Options{Scale: Quick, Seed: goldenSeed, FaultRate: 0.05}},
	}
	for _, d := range MatrixDefenses() {
		variants = append(variants, struct {
			name string
			opts Options
		}{"defense-" + d, Options{Scale: Quick, Seed: goldenSeed, Defense: d}})
	}

	for _, id := range forkIdentityIDs {
		for _, v := range variants {
			t.Run(id+"/"+v.name, func(t *testing.T) {
				// The reference runs in an Env of its own, whose pool starts
				// cold; TestGoldenTraces pins it, under the default
				// options, to the goldens recorded from fresh boots.
				_, ref, err := RunTraced(id, v.opts, goldenEventCap)
				if err != nil {
					t.Fatalf("reference RunTraced(%s): %v", id, err)
				}
				// One pool across three runs: run 1 builds the shells,
				// runs 2 and 3 reuse machines already through a full
				// run-and-reset cycle. Every run must match the reference.
				restore := exps.ScopeMachinePool(exps.NewMachinePool(nil))
				defer restore()
				for cycle := 1; cycle <= 3; cycle++ {
					_, forked, err := RunTraced(id, v.opts, goldenEventCap)
					if err != nil {
						t.Fatalf("pooled RunTraced(%s) cycle %d: %v", id, cycle, err)
					}
					if d := trace.Diff(forked, ref); d != nil {
						t.Fatalf("cycle %d: warm-pool machine trace diverges from the reference:\n%s", cycle, d)
					}
				}
			})
		}
	}
}

// TestPooledCampaignMatchesStandaloneRuns: a width-2 campaign, whose
// entries share warm machine pools through the plan's PoolSet, records
// for every entry exactly what that entry produces run standalone through
// RunGuarded in an Env of its own — rendered result, headline metrics and
// telemetry. Under -race this additionally exercises the pool hand-off:
// entries run on fresh contained goroutines that check machine pools in
// and out of the shared PoolSet, and no machine may ever be reachable from
// two goroutines at once.
func TestPooledCampaignMatchesStandaloneRuns(t *testing.T) {
	c, err := campaign.New(campaign.Config{Seed: 1, Note: "pool-gate"},
		CampaignEntries(forkIdentityIDs, Options{Scale: Quick, Seed: 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.RunParallel(context.Background(), 2)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	for _, id := range forkIdentityIDs {
		rec := man.Entries[id]
		if rec == nil || rec.Status != campaign.StatusOK {
			t.Fatalf("%s: campaign record %+v, want a completed entry", id, rec)
		}
		o := Options{Scale: Quick, Seed: rec.Seed}
		o.env = o.newEnv()
		o.env.Metrics = metrics.New()
		rep := RunGuarded(id, o, 0)
		if rep.Err != nil {
			t.Fatalf("%s standalone: %v", id, rep.Err)
		}
		e, _ := Lookup(id)
		if got := rep.Result.String(); got != rec.Rendered {
			t.Errorf("%s: campaign rendered\n%s\nstandalone rendered\n%s", id, rec.Rendered, got)
		}
		if got := e.Metrics(rep.Result); !reflect.DeepEqual(got, rec.Metrics) {
			t.Errorf("%s: campaign metrics %v, standalone %v", id, rec.Metrics, got)
		}
		if got := o.env.Metrics.Counts(); !reflect.DeepEqual(got, rec.Telemetry) {
			t.Errorf("%s: campaign telemetry %v, standalone %v", id, rec.Telemetry, got)
		}
	}
}

// TestPooledCampaignPoolCounts: the machine pools of one plan share the
// planning registry's pool counters (kern_forks_total, hits, misses). Pools
// report them when an entry checks its pool back into the plan's PoolSet,
// under the set's lock, so concurrent entries never increment them at once
// (-race checks this) and a width-2 campaign counts every fork a width-1
// replay counts. Only the hit/miss split may differ: each concurrently
// used pool builds its own first shell.
func TestPooledCampaignPoolCounts(t *testing.T) {
	const n = 64
	counts := func(width int) (forks, hits, misses int64) {
		t.Helper()
		reg := metrics.New()
		prev := metrics.SetAmbient(reg)
		plan := MicroBenchEntries(n)
		metrics.SetAmbient(prev)
		c, err := campaign.New(campaign.Config{Seed: 1}, plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunParallel(context.Background(), width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return reg.Counter("kern_forks_total").Value(),
			reg.Counter("kern_pool_hits_total").Value(),
			reg.Counter("kern_pool_misses_total").Value()
	}
	forks1, hits1, misses1 := counts(1)
	forks2, hits2, misses2 := counts(2)
	if forks1 != n || misses1 != 1 || hits1 != n-1 {
		t.Fatalf("width 1: forks/hits/misses = %d/%d/%d, want %d/%d/1", forks1, hits1, misses1, n, n-1)
	}
	if forks2 != forks1 || hits2+misses2 != forks2 || misses2 < 1 || misses2 > 2 {
		t.Fatalf("width 2: forks/hits/misses = %d/%d/%d, want %d forks split over at most 2 misses", forks2, hits2, misses2, forks1)
	}
}
