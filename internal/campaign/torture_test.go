package campaign

// torture_test.go is the crash-torture gate: with fsfault injecting a
// crash at EVERY write-path step of a campaign run in two sessions —
// journal appends before and after their fsync, the compaction at the
// halt (pre-fsync, post-write/pre-rename, post-rename/pre-dirsync), the
// resumed session's appends on top of that manifest, and every other
// mutating syscall boundary — every resume must complete and the final
// manifest must be byte-identical to an uninterrupted run, losing at most
// the in-flight (uncommitted) entry.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
	"repro/internal/fsfault"
)

// torturePlan is the small deterministic campaign the torture runs.
func torturePlan() []Entry {
	var plan []Entry
	for _, id := range []string{
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
		"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi",
		"rho", "sigma", "tau", "upsilon", "phi", "chi", "psi", "omega",
	} {
		plan = append(plan, okEntry(id))
	}
	return plan
}

// tortureRef runs the plan undisturbed and returns the manifest bytes
// every recovered run must reproduce.
func tortureRef(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ref.json")
	c, err := New(Config{Path: path, Seed: 11}, torturePlan())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runToCrash runs the plan under the injector in two sessions — a fresh
// campaign halted halfway, then a resume of it — with the given number of
// workers, until the injector kills it (or, unexpectedly, both sessions
// finish). It returns how many records were committed (observed via
// OnRecord, which fires once a record's journal line is fsynced — so every
// notified record is durable).
func runToCrash(t *testing.T, path string, inj *fsfault.Injector, workers int) (notified int, err error) {
	t.Helper()
	plan := torturePlan()
	cfg := Config{Path: path, Seed: 11, FS: inj, HaltAfter: len(plan) / 2, OnRecord: func(*Record) { notified++ }}
	c, nerr := New(cfg, plan)
	if nerr != nil {
		t.Fatal(nerr)
	}
	if _, err = c.RunParallel(context.Background(), workers); !errors.Is(err, ErrHalted) {
		return notified, err
	}
	cfg.HaltAfter = 0
	if c, err = Resume(cfg, plan); err != nil {
		return notified, err
	}
	_, err = c.RunParallel(context.Background(), workers)
	return notified, err
}

// resumeClean finishes the campaign on the real (fault-free) disk,
// starting over when the crash predates anything durable.
func resumeClean(t *testing.T, path string) {
	t.Helper()
	cfg := Config{Path: path, Seed: 11}
	c, err := Resume(cfg, torturePlan())
	if errors.Is(err, fs.ErrNotExist) {
		c, err = New(cfg, torturePlan())
	}
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
}

// countSteps measures how many mutating filesystem operations the two
// sessions perform, so the torture can crash at every single one.
func countSteps(t *testing.T) int {
	t.Helper()
	dir := t.TempDir()
	inj := fsfault.MustNew(fsfault.Config{Seed: 1})
	if _, err := runToCrash(t, filepath.Join(dir, "count.json"), inj, 1); err != nil {
		t.Fatalf("counting pass failed: %v", err)
	}
	return inj.Steps()
}

func TestCrashTortureEveryStep(t *testing.T) {
	ref := tortureRef(t)
	steps := countSteps(t)
	if steps < 20 {
		t.Fatalf("implausibly few write-path steps (%d) — injector not seeing the traffic", steps)
	}
	for _, seed := range []uint64{1, 2, 3} {
		for k := 1; k <= steps; k++ {
			t.Run(fmt.Sprintf("seed%d/step%03d", seed, k), func(t *testing.T) {
				crashAt(t, ref, fsfault.MustNew(fsfault.Config{Seed: seed, CrashAfter: k}), 1)
			})
		}
	}
}

// TestCrashTortureGroupCommit crashes the two sessions at every step with
// four workers, where records that land together share one fsync: a crash
// may lose the whole batch in flight, but never a record OnRecord was
// shown. Batches are timing-dependent, so the steps differ run to run;
// the serial count bounds them (batching only removes fsyncs).
func TestCrashTortureGroupCommit(t *testing.T) {
	ref := tortureRef(t)
	steps := countSteps(t)
	for k := 1; k <= steps; k++ {
		t.Run(fmt.Sprintf("step%03d", k), func(t *testing.T) {
			crashAt(t, ref, fsfault.MustNew(fsfault.Config{Seed: uint64(k), CrashAfter: k}), 4)
		})
	}
}

// crashAt runs the two sessions under inj until it crashes, checks the
// durability bound, then resumes on the real disk and checks the final
// manifest against ref.
func crashAt(t *testing.T, ref []byte, inj *fsfault.Injector, workers int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.json")
	notified, err := runToCrash(t, path, inj, workers)
	if err == nil {
		// The campaign finished before the crash step — only possible
		// when the step exceeds this run's traffic.
		if inj.Crashed() {
			t.Fatalf("run completed despite crashing")
		}
		return
	}
	// The "no more than in-flight lost" bound: every record that was
	// durably committed before the crash must still be recoverable.
	// OnRecord fires once the commit has landed, so only records in
	// flight, never notified, may be lost.
	h := Inspect(durable.OS(), path)
	if h.Records < notified {
		t.Fatalf("crash lost committed entries: %d notified, recovery serves %d (health %+v)",
			notified, h.Records, h)
	}
	resumeClean(t, path)
	got, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatalf("read resumed manifest: %v", rerr)
	}
	if string(got) != string(ref) {
		t.Fatalf("resumed manifest differs from uninterrupted run:\n--- resumed\n%s\n--- reference\n%s", got, ref)
	}
}

// TestCrashTortureLyingFsync drops the durability bound (a lying fsync is
// allowed to lose "committed" data — that is its crime) but resume must
// STILL always work and converge to the reference bytes.
func TestCrashTortureLyingFsync(t *testing.T) {
	ref := tortureRef(t)
	steps := countSteps(t)
	for k := 1; k <= steps; k += 3 {
		t.Run(fmt.Sprintf("step%03d", k), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "m.json")
			inj := fsfault.MustNew(fsfault.Config{Seed: uint64(k), CrashAfter: k, LieFsync: 0.7})
			if _, err := runToCrash(t, path, inj, 1); err == nil {
				return
			}
			resumeClean(t, path)
			got, rerr := os.ReadFile(path)
			if rerr != nil {
				t.Fatalf("read resumed manifest: %v", rerr)
			}
			if string(got) != string(ref) {
				t.Fatalf("resumed manifest differs from reference after lying-fsync crash")
			}
		})
	}
}

// TestDiskFaultHaltsResumable: ENOSPC/EIO from the disk must surface as
// the resumable-halt contract (ErrHalted, exit 3 at the CLI), and a
// resume on a healthy disk must converge to the reference bytes.
func TestDiskFaultHaltsResumable(t *testing.T) {
	ref := tortureRef(t)
	halted := 0
	for seed := uint64(1); seed <= 10; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "m.json")
		inj := fsfault.MustNew(fsfault.Config{Seed: seed, ErrRate: 0.3})
		cfg := Config{Path: path, Seed: 11, FS: inj}
		c, err := New(cfg, torturePlan())
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run()
		switch {
		case err == nil:
			// Got lucky with the dice — nothing to resume.
			continue
		case errors.Is(err, ErrHalted):
			halted++
		default:
			t.Fatalf("seed %d: disk fault surfaced as %v, want ErrHalted", seed, err)
		}
		resumeClean(t, path)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if string(got) != string(ref) {
			t.Fatalf("seed %d: resumed manifest differs from reference", seed)
		}
	}
	if halted == 0 {
		t.Fatal("ErrRate=0.3 over 10 seeds never halted — fault injection inert")
	}
}
