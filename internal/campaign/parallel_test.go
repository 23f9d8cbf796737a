package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// TestParallelTelemetryIsolation is the regression test for per-entry
// telemetry capture under concurrency: two entries rendezvous so their
// executions fully overlap, then bump the same counter by different
// amounts while a process-wide registry is installed. Capturing deltas
// from a shared registry (the old before/after-Flatten scheme) would
// attribute both entries' increments to whichever delta window was open;
// each record must instead carry exactly what its own entry counted —
// neither the other entry's counts nor the campaign's own counters.
func TestParallelTelemetryIsolation(t *testing.T) {
	defer metrics.SetAmbient(metrics.SetAmbient(metrics.New()))
	aStarted := make(chan struct{})
	bStarted := make(chan struct{})
	mk := func(id string, mine, other chan struct{}, events int64) Entry {
		return Entry{ID: id, Run: func(seed uint64) Attempt {
			reg := metrics.New()
			close(mine)
			<-other // both entries are now mid-flight simultaneously
			reg.Counter("kern_events_total").Add(events)
			reg.Counter(fmt.Sprintf(`sim_probe_total{kind=%q}`, id)).Inc()
			return Attempt{Rendered: id + "\n", Attempts: 1, Telemetry: reg.Counts()}
		}}
	}
	c, err := New(Config{Seed: 1}, []Entry{
		mk("a", aStarted, bStarted, 3),
		mk("b", bStarted, aStarted, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.RunParallel(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wantA := map[string]int64{"kern_events_total": 3, `sim_probe_total{kind="a"}`: 1}
	wantB := map[string]int64{"kern_events_total": 5, `sim_probe_total{kind="b"}`: 1}
	if got := man.Entries["a"].Telemetry; !reflect.DeepEqual(got, wantA) {
		t.Errorf("entry a telemetry: got %v, want %v", got, wantA)
	}
	if got := man.Entries["b"].Telemetry; !reflect.DeepEqual(got, wantB) {
		t.Errorf("entry b telemetry: got %v, want %v", got, wantB)
	}
}

// parallelPlan is a mixed plan: deterministic successes with telemetry, a
// deterministic failure, and a runner-less skip.
func parallelPlan() []Entry {
	fail := Entry{ID: "fails", Run: func(seed uint64) Attempt {
		return Attempt{Attempts: 2, Err: fmt.Errorf("no preemption window found (seed %d)", seed)}
	}}
	return []Entry{
		telEntry("a", 10), telEntry("b", 20), fail,
		{ID: "nosuch"}, telEntry("c", 30), telEntry("d", 40),
	}
}

// TestRunParallelMatchesSerialBytes: a parallel campaign's manifest must be
// byte-identical to a serial run of the same plan.
func TestRunParallelMatchesSerialBytes(t *testing.T) {
	dir := t.TempDir()

	serialPath := filepath.Join(dir, "serial.json")
	c, _ := New(Config{Path: serialPath, Seed: 7}, parallelPlan())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	parPath := filepath.Join(dir, "par.json")
	c, _ = New(Config{Path: parPath, Seed: 7}, parallelPlan())
	if _, err := c.RunParallel(context.Background(), 8); err != nil {
		t.Fatal(err)
	}

	serial, err := os.ReadFile(serialPath)
	if err != nil {
		t.Fatal(err)
	}
	par, err := os.ReadFile(parPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(serial) != string(par) {
		t.Fatalf("parallel manifest differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}

// TestParallelHaltResumeMatchesSerial: halting a parallel campaign
// mid-flight leaves the same plan-order-prefix checkpoint a serial halt
// would, and resuming it in parallel converges on the uninterrupted serial
// manifest, byte for byte.
func TestParallelHaltResumeMatchesSerial(t *testing.T) {
	dir := t.TempDir()

	refPath := filepath.Join(dir, "ref.json")
	c, _ := New(Config{Path: refPath, Seed: 9}, parallelPlan())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.json")
	c, _ = New(Config{Path: cutPath, Seed: 9, HaltAfter: 2}, parallelPlan())
	if _, err := c.RunParallel(context.Background(), 4); !errors.Is(err, ErrHalted) {
		t.Fatalf("interrupted parallel run: err=%v, want ErrHalted", err)
	}
	mid, err := Load(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	// HaltAfter counts ran entries: the checkpoint holds exactly the first
	// two plan entries — results of later jobs already in flight are
	// discarded, exactly as a serial halt never starts them.
	if got := len(mid.Entries); got != 2 {
		t.Fatalf("halted checkpoint holds %d records, want 2: %v", got, mid.Entries)
	}
	for _, id := range []string{"a", "b"} {
		if mid.Entries[id] == nil {
			t.Fatalf("halted checkpoint missing plan-prefix entry %s", id)
		}
	}

	c, err = Resume(Config{Path: cutPath, Seed: 9}, parallelPlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), 4); err != nil {
		t.Fatal(err)
	}

	ref, _ := os.ReadFile(refPath)
	cut, _ := os.ReadFile(cutPath)
	if string(ref) != string(cut) {
		t.Fatalf("halted+resumed parallel manifest differs from serial:\n--- ref ---\n%s\n--- cut ---\n%s", ref, cut)
	}
}

// TestParallelCancelIsResumable: cancelling the context mid-campaign
// returns ErrHalted with a committed plan-order prefix on disk; resuming
// finishes the plan and matches the uninterrupted serial manifest. The
// plan here holds only deterministic successes and a skip (no failures):
// where the cut lands races the cancellation, and a failed entry committed
// before the cut would legitimately resume under a bumped seed.
func TestParallelCancelIsResumable(t *testing.T) {
	dir := t.TempDir()
	cleanPlan := func() []Entry {
		return []Entry{telEntry("a", 10), telEntry("b", 20), {ID: "nosuch"}, telEntry("c", 30), telEntry("d", 40)}
	}

	refPath := filepath.Join(dir, "ref.json")
	c, _ := New(Config{Path: refPath, Seed: 11}, cleanPlan())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Entry a stalls until the cancellation lands (so the run cannot finish
	// entirely before it) and entry b performs it: a mid-flight
	// interruption. Where the cut lands races the feeder — in-flight
	// entries drain and commit — so the session ends either halted with a
	// resumable prefix or, if every job won the dispatch race, complete.
	plan := cleanPlan()
	innerA, innerB := plan[0].Run, plan[1].Run
	plan[0].Run = func(seed uint64) Attempt {
		<-ctx.Done()
		return innerA(seed)
	}
	plan[1].Run = func(seed uint64) Attempt {
		cancel()
		return innerB(seed)
	}

	cutPath := filepath.Join(dir, "cut.json")
	c, _ = New(Config{Path: cutPath, Seed: 11}, plan)
	_, err := c.RunParallel(ctx, 2)
	if err != nil && !errors.Is(err, ErrHalted) {
		t.Fatalf("cancelled run: err=%v, want ErrHalted or nil", err)
	}
	if errors.Is(err, ErrHalted) {
		c, err = Resume(Config{Path: cutPath, Seed: 11}, cleanPlan())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunParallel(context.Background(), 4); err != nil {
			t.Fatal(err)
		}
	}

	ref, _ := os.ReadFile(refPath)
	cut, _ := os.ReadFile(cutPath)
	if string(ref) != string(cut) {
		t.Fatalf("cancelled+resumed manifest differs from serial:\n--- ref ---\n%s\n--- cut ---\n%s", ref, cut)
	}
}

// TestOnRecordHookSeesPlanOrder: the OnRecord hook observes every record on
// the committing goroutine, in plan order, even under parallel execution.
func TestOnRecordHookSeesPlanOrder(t *testing.T) {
	var order []string
	c, _ := New(Config{Seed: 1, OnRecord: func(r *Record) { order = append(order, r.ID) }}, parallelPlan())
	if _, err := c.RunParallel(context.Background(), 4); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "fails", "nosuch", "c", "d"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("OnRecord order %v, want %v", order, want)
	}
}
