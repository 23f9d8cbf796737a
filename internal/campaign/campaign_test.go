package campaign

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/timebase"
)

// okEntry returns an entry that renders deterministically from its seed.
func okEntry(id string) Entry {
	return Entry{ID: id, Run: func(seed uint64) Attempt {
		return Attempt{
			Rendered: fmt.Sprintf("%s result (seed %d)\n", id, seed),
			Metrics:  map[string]float64{"seed": float64(seed)},
			Attempts: 1,
		}
	}}
}

func TestRunCompletesAndCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "man.json")
	c, err := New(Config{Path: path, Seed: 5}, []Entry{okEntry("a"), okEntry("b")})
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("campaign not clean: %+v", man.Counts())
	}
	for _, id := range []string{"a", "b"} {
		rec := man.Entries[id]
		if rec.Status != StatusOK || rec.Seed != 5 || rec.Sessions != 1 {
			t.Fatalf("record %s: %+v", id, rec)
		}
	}
	// The checkpoint on disk must match the in-memory manifest.
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Complete() || loaded.Entries["b"].Rendered != man.Entries["b"].Rendered {
		t.Fatalf("loaded checkpoint differs: %+v", loaded.Entries["b"])
	}
}

func TestPanicContainment(t *testing.T) {
	boom := Entry{ID: "boom", Run: func(uint64) Attempt {
		panic("scheduler exploded")
	}}
	c, err := New(Config{Seed: 1}, []Entry{okEntry("a"), boom, okEntry("z")})
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.Run()
	if err != nil {
		t.Fatal(err) // the campaign itself must survive the panic
	}
	rec := man.Entries["boom"]
	if rec.Status != StatusFailed || rec.Failure == nil {
		t.Fatalf("panicking entry: %+v", rec)
	}
	if !strings.Contains(rec.Failure.Msg, "scheduler exploded") {
		t.Fatalf("failure msg %q", rec.Failure.Msg)
	}
	// Later entries still ran.
	if man.Entries["z"].Status != StatusOK {
		t.Fatalf("entry after panic: %+v", man.Entries["z"])
	}
}

func TestInvariantErrorClassified(t *testing.T) {
	inv := &kern.InvariantError{Name: "runqueue-accounting", At: timebase.Time(42),
		Detail: "core 3 claims 2 runnable, found 1", Dump: "machine @42\n  core 3: ...\n"}
	bad := Entry{ID: "inv", Run: func(uint64) Attempt {
		return Attempt{Attempts: 1, Err: fmt.Errorf("experiment died: %w", inv)}
	}}
	c, _ := New(Config{Seed: 1}, []Entry{bad})
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	f := man.Entries["inv"].Failure
	if f == nil || f.Invariant != "runqueue-accounting" || f.At != timebase.Time(42).String() {
		t.Fatalf("invariant not classified: %+v", f)
	}
	if f.Detail != "core 3 claims 2 runnable, found 1" || !strings.Contains(f.Dump, "core 3") {
		t.Fatalf("invariant detail/dump lost: %+v", f)
	}
}

func TestSkippedEntries(t *testing.T) {
	c, _ := New(Config{Seed: 1}, []Entry{okEntry("a"), {ID: "nosuch"}})
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if man.Entries["nosuch"].Status != StatusSkipped {
		t.Fatalf("runner-less entry: %+v", man.Entries["nosuch"])
	}
	if man.Clean() {
		t.Fatal("campaign with skips reported clean")
	}
}

func TestExpWallTimeout(t *testing.T) {
	slow := Entry{ID: "slow", Run: func(uint64) Attempt {
		time.Sleep(5 * time.Second)
		return Attempt{Attempts: 1}
	}}
	c, _ := New(Config{Seed: 1, ExpWall: 20 * time.Millisecond}, []Entry{slow, okEntry("a")})
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	rec := man.Entries["slow"]
	if rec.Status != StatusFailed || !strings.Contains(rec.Failure.Msg, "wall budget") {
		t.Fatalf("timed-out entry: %+v", rec)
	}
	if man.Entries["a"].Status != StatusOK {
		t.Fatal("campaign did not continue past the timeout")
	}
}

// TestHaltResumeMatchesUninterrupted is the acceptance property: a campaign
// halted mid-way and resumed must end with a manifest byte-identical to an
// uninterrupted campaign's.
func TestHaltResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	entries := func() []Entry { return []Entry{okEntry("a"), okEntry("b"), okEntry("c"), okEntry("d")} }

	refPath := filepath.Join(dir, "ref.json")
	c, _ := New(Config{Path: refPath, Seed: 9}, entries())
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	cutPath := filepath.Join(dir, "cut.json")
	c, _ = New(Config{Path: cutPath, Seed: 9, HaltAfter: 2}, entries())
	if _, err := c.Run(); !errors.Is(err, ErrHalted) {
		t.Fatalf("interrupted run: err=%v, want ErrHalted", err)
	}
	mid, err := Load(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Complete() {
		t.Fatal("halted campaign claims completion")
	}
	if got := len(mid.Entries); got != 2 {
		t.Fatalf("halted after %d entries, want 2", got)
	}

	c, err = Resume(Config{Path: cutPath, Seed: 9}, entries())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}

	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(cut) {
		t.Fatalf("resumed manifest differs from uninterrupted:\n--- ref ---\n%s\n--- cut ---\n%s", ref, cut)
	}
}

// TestResumeBumpsFailedSeeds verifies a failed entry re-runs on resume with
// a bumped seed while successful entries are left untouched.
func TestResumeBumpsFailedSeeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "man.json")
	calls := map[string][]uint64{}
	flaky := func(id string, failTimes int) Entry {
		return Entry{ID: id, Run: func(seed uint64) Attempt {
			calls[id] = append(calls[id], seed)
			if len(calls[id]) <= failTimes {
				return Attempt{Attempts: 3, Err: errors.New("no preemption window found")}
			}
			return Attempt{Attempts: 1, Rendered: id + " ok\n"}
		}}
	}
	entries := func() []Entry { return []Entry{flaky("good", 0), flaky("flaky", 2)} }

	c, _ := New(Config{Path: path, Seed: 100}, entries())
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if man.Entries["flaky"].Status != StatusFailed || man.Entries["flaky"].FailedSessions != 1 {
		t.Fatalf("first session: %+v", man.Entries["flaky"])
	}

	// Session 2: still failing, seed bumped once.
	c, err = Resume(Config{Path: path, Seed: 100}, entries())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Session 3: succeeds, seed bumped twice; records as retried.
	c, _ = Resume(Config{Path: path, Seed: 100}, entries())
	man, err = c.Run()
	if err != nil {
		t.Fatal(err)
	}

	if got := calls["good"]; len(got) != 1 || got[0] != 100 {
		t.Fatalf("successful entry re-ran: seeds %v", got)
	}
	want := []uint64{100, 100 + DefaultSeedBump, 100 + 2*DefaultSeedBump}
	got := calls["flaky"]
	if len(got) != len(want) {
		t.Fatalf("flaky seeds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flaky seeds %v, want %v", got, want)
		}
	}
	rec := man.Entries["flaky"]
	if rec.Status != StatusRetried || rec.Sessions != 3 || rec.FailedSessions != 2 {
		t.Fatalf("final flaky record: %+v", rec)
	}
}

func TestResumeRefusesMismatchedPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "man.json")
	c, _ := New(Config{Path: path, Seed: 1, Note: "paper=false"}, []Entry{okEntry("a")})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	cases := []Config{
		{Path: path, Seed: 2, Note: "paper=false"},
		{Path: path, Seed: 1, Note: "paper=true"},
	}
	for _, cfg := range cases {
		if _, err := Resume(cfg, []Entry{okEntry("a")}); err == nil {
			t.Errorf("Resume(%+v) accepted a mismatched manifest", cfg)
		}
	}
	if _, err := Resume(Config{Path: path, Seed: 1, Note: "paper=false"}, []Entry{okEntry("b")}); err == nil {
		t.Error("Resume accepted different experiment IDs")
	}
	if _, err := Resume(Config{Path: path, Seed: 1, Note: "paper=false"}, []Entry{okEntry("a"), okEntry("b")}); err == nil {
		t.Error("Resume accepted a longer plan")
	}
	if _, err := Resume(Config{Path: filepath.Join(t.TempDir(), "missing.json"), Seed: 1}, []Entry{okEntry("a")}); err == nil {
		t.Error("Resume accepted a missing manifest")
	}
}

func TestDegradedStatus(t *testing.T) {
	deg := Entry{ID: "deg", Run: func(seed uint64) Attempt {
		return Attempt{Attempts: 2, Degraded: true, Rendered: "deg ok\n"}
	}}
	c, _ := New(Config{Seed: 1}, []Entry{deg})
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if man.Entries["deg"].Status != StatusDegraded {
		t.Fatalf("degraded entry: %+v", man.Entries["deg"])
	}
	if man.Clean() {
		t.Fatal("degraded campaign reported clean")
	}
}

func TestCheckpointAfterEveryEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "man.json")
	var sizes []int
	probe := func(id string) Entry {
		return Entry{ID: id, Run: func(uint64) Attempt {
			if man, _, err := LoadRecovered(durable.OS(), path); err == nil {
				sizes = append(sizes, len(man.Entries))
			} else if errors.Is(err, fs.ErrNotExist) {
				sizes = append(sizes, 0)
			} else {
				sizes = append(sizes, -1)
			}
			return Attempt{Attempts: 1, Rendered: id + "\n"}
		}}
	}
	c, _ := New(Config{Path: path, Seed: 1}, []Entry{probe("a"), probe("b"), probe("c")})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	// Entry i observes i prior committed records: each commit is durable
	// (in the journal) before the next entry starts, though the manifest
	// file is only written when the session ends.
	for i, n := range sizes {
		if n != i {
			t.Fatalf("checkpoint sizes %v, want 0,1,2", sizes)
		}
	}
}

func TestManifestRowsAndCounts(t *testing.T) {
	man := &Manifest{
		Version: ManifestVersion,
		IDs:     []string{"a", "b", "c", "d"},
		Entries: map[string]*Record{
			"a": {ID: "a", Status: StatusOK, Attempts: 1},
			"b": {ID: "b", Status: StatusFailed, Attempts: 3,
				Failure: &Failure{Msg: "boom", Invariant: "vruntime-monotone", At: "1.5ms", Detail: "went backwards"}},
			"c": {ID: "c", Status: StatusSkipped, Failure: &Failure{Msg: "no runner"}},
		},
	}
	counts := man.Counts()
	if counts[StatusOK] != 1 || counts[StatusFailed] != 1 || counts[StatusSkipped] != 1 || counts[StatusPending] != 1 {
		t.Fatalf("counts %v", counts)
	}
	rows := man.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows %v", rows)
	}
	if rows[1].Cause != `invariant "vruntime-monotone" at 1.5ms: went backwards` {
		t.Fatalf("invariant cause %q", rows[1].Cause)
	}
	if rows[3].Status != string(StatusPending) {
		t.Fatalf("pending row %+v", rows[3])
	}
}

func TestLoadRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	os.WriteFile(garbage, []byte("{not json"), 0o644)
	if _, err := Load(garbage); err == nil {
		t.Error("Load accepted garbage")
	}
	wrongVer := filepath.Join(dir, "ver.json")
	os.WriteFile(wrongVer, []byte(`{"version": 99, "seed": 1, "ids": []}`), 0o644)
	if _, err := Load(wrongVer); err == nil {
		t.Error("Load accepted a future manifest version")
	}
}

// telEntry counts into its own registry as a stand-in for an instrumented
// experiment, the way repro's entries own theirs: the per-entry counts
// depend only on the id/seed, never on what ran before it.
func telEntry(id string, events int64) Entry {
	return Entry{ID: id, Run: func(seed uint64) Attempt {
		reg := metrics.New()
		reg.Counter("kern_events_total").Add(events + int64(seed))
		reg.Counter(`sim_probe_total{kind="test"}`).Inc()
		return Attempt{
			Rendered:  fmt.Sprintf("%s result (seed %d)\n", id, seed),
			Metrics:   map[string]float64{"seed": float64(seed)},
			Attempts:  1,
			Telemetry: reg.Counts(),
		}
	}}
}

// TestTelemetryDeltaRecorded a campaign under a process-wide registry
// attaches each entry's own counts to its record, and counts campaign-level
// events in the process-wide registry only.
func TestTelemetryDeltaRecorded(t *testing.T) {
	reg := metrics.New()
	prev := metrics.SetAmbient(reg)
	defer metrics.SetAmbient(prev)

	path := filepath.Join(t.TempDir(), "man.json")
	c, _ := New(Config{Path: path, Seed: 3}, []Entry{telEntry("a", 100), telEntry("b", 200), {ID: "nosuch"}})
	man, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantA := map[string]int64{"kern_events_total": 103, `sim_probe_total{kind="test"}`: 1}
	if got := man.Entries["a"].Telemetry; !reflect.DeepEqual(got, wantA) {
		t.Fatalf("entry a telemetry: got %v, want %v", got, wantA)
	}
	if got := man.Entries["b"].Telemetry["kern_events_total"]; got != 203 {
		t.Fatalf("entry b kern_events_total delta: got %d, want 203", got)
	}
	if got := reg.Counter("campaign_entries_total").Value(); got != 2 {
		t.Fatalf("campaign_entries_total = %d, want 2", got)
	}
	if got := reg.Counter("campaign_skipped_total").Value(); got != 1 {
		t.Fatalf("campaign_skipped_total = %d, want 1", got)
	}
	if got := reg.Counter("campaign_checkpoints_total").Value(); got != 3 {
		t.Fatalf("campaign_checkpoints_total = %d, want 3", got)
	}
	// The deltas survive the round trip through the checkpoint file.
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Entries["a"].Telemetry, wantA) {
		t.Fatalf("loaded telemetry differs: %v", loaded.Entries["a"].Telemetry)
	}
}

// TestHaltResumeByteIdenticalWithTelemetry is the acceptance property with
// metrics enabled: campaign-level counters stay out of the entry-owned
// telemetry, so a halted+resumed campaign checkpoints a manifest
// byte-identical to an uninterrupted one even though the resumed session's
// process-wide registry starts cold.
func TestHaltResumeByteIdenticalWithTelemetry(t *testing.T) {
	dir := t.TempDir()
	entries := func() []Entry {
		return []Entry{telEntry("a", 10), telEntry("b", 20), telEntry("c", 30), telEntry("d", 40)}
	}
	withFreshRegistry := func(f func()) {
		prev := metrics.SetAmbient(metrics.New())
		defer metrics.SetAmbient(prev)
		f()
	}

	refPath := filepath.Join(dir, "ref.json")
	withFreshRegistry(func() {
		c, _ := New(Config{Path: refPath, Seed: 9}, entries())
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
	})

	cutPath := filepath.Join(dir, "cut.json")
	withFreshRegistry(func() {
		c, _ := New(Config{Path: cutPath, Seed: 9, HaltAfter: 2}, entries())
		if _, err := c.Run(); !errors.Is(err, ErrHalted) {
			t.Fatalf("interrupted run: err=%v, want ErrHalted", err)
		}
	})
	withFreshRegistry(func() {
		reg := metrics.Ambient()
		c, err := Resume(Config{Path: cutPath, Seed: 9}, entries())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Counter("campaign_resume_hits_total").Value(); got != 2 {
			t.Fatalf("campaign_resume_hits_total = %d, want 2", got)
		}
	})

	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(cutPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(cut) {
		t.Fatalf("resumed manifest differs from uninterrupted with telemetry on:\n--- ref ---\n%s\n--- cut ---\n%s", ref, cut)
	}
}
