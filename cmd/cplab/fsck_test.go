package main

// fsck_test.go drives the state-dir doctor end to end: build a real
// campaign store with the CLI, wreck it, and check fsck reports the
// damage, -repair restores it, and -diskchaos halts resumably (exit 3)
// instead of corrupting anything.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// buildCLIStore runs a short campaign and returns the manifest path plus
// its pristine bytes.
func buildCLIStore(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	man := filepath.Join(dir, "m.json")
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig4.1", "-seed", "3"}); code != exitOK {
			t.Errorf("campaign exit %d", code)
		}
	})
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	return man, data
}

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	buildCLIStore(t, dir)
	out := capture(t, func() {
		if code := run([]string{"fsck", dir}); code != exitOK {
			t.Errorf("fsck on clean store exit %d", code)
		}
	})
	if !strings.Contains(out, "ok") || strings.Contains(out, "DAMAGED") {
		t.Fatalf("unexpected fsck report:\n%s", out)
	}
}

func TestFsckDetectsAndRepairs(t *testing.T) {
	dir := t.TempDir()
	man, pristine := buildCLIStore(t, dir)

	// Wreck the manifest and drop tmp litter.
	if err := os.WriteFile(man, append([]byte("GARBAGE"), pristine[:len(pristine)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	litter := filepath.Join(dir, "m.json.tmp")
	if err := os.WriteFile(litter, []byte("half a write"), 0o644); err != nil {
		t.Fatal(err)
	}

	out := capture(t, func() {
		if code := run([]string{"fsck", dir}); code != exitDegraded {
			t.Errorf("fsck on damaged store exit %d, want %d", code, exitDegraded)
		}
	})
	if !strings.Contains(out, "DAMAGED") || !strings.Contains(out, "ORPHAN") {
		t.Fatalf("fsck missed the damage:\n%s", out)
	}

	out = capture(t, func() {
		if code := run([]string{"fsck", "-repair", dir}); code != exitOK {
			t.Errorf("fsck -repair exit %d", code)
		}
	})
	if !strings.Contains(out, "repaired") || !strings.Contains(out, "swept") {
		t.Fatalf("fsck -repair report suspicious:\n%s", out)
	}
	if _, err := os.Stat(litter); err == nil {
		t.Fatal("orphan tmp survived -repair")
	}

	// The repaired store must be exactly the pristine one.
	got, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pristine) {
		t.Fatalf("repaired manifest differs from pristine")
	}
	out = capture(t, func() {
		if code := run([]string{"fsck", man}); code != exitOK {
			t.Errorf("fsck after repair exit %d", code)
		}
	})
	if strings.Contains(out, "DAMAGED") {
		t.Fatalf("store still damaged after repair:\n%s", out)
	}
}

// TestFsckManifestDestroyedJournalSurvives: the journal is the commit
// point, so a store whose manifest is gone (or was never compacted, as
// mid-run) is healthy, not damaged — fsck reports it ok with every
// record, and resuming compacts the manifest back byte-identical.
func TestFsckManifestDestroyedJournalSurvives(t *testing.T) {
	dir := t.TempDir()
	man, pristine := buildCLIStore(t, dir)
	if err := os.Remove(man); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() {
		if code := run([]string{"fsck", dir}); code != exitOK {
			t.Errorf("fsck with only the journal exit %d", code)
		}
	})
	if !strings.Contains(out, "ok") || !strings.Contains(out, "2 records, complete=true") || strings.Contains(out, "DAMAGED") {
		t.Fatalf("fsck misjudged a journal-only store:\n%s", out)
	}
	capture(t, func() {
		if code := run([]string{"resume", "-manifest", man, "-ids", "tab2.1,fig4.1", "-seed", "3"}); code != exitOK {
			t.Errorf("resume from the journal alone exit %d", code)
		}
	})
	got, err := os.ReadFile(man)
	if err != nil {
		t.Fatalf("manifest not rebuilt: %v", err)
	}
	if string(got) != string(pristine) {
		t.Fatal("rebuilt manifest differs from pristine")
	}
}

// TestFsckJournalAheadIsHealthy: a journal holding records the manifest
// does not yet have — a session killed before its compaction — is the
// normal shape of a store, reported ok with the journal's records.
func TestFsckJournalAheadIsHealthy(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "m.json")
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig4.1", "-seed", "3", "-haltafter", "1"}); code != exitHalted {
			t.Errorf("halting campaign exit %d", code)
		}
	})
	halted, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	capture(t, func() {
		if code := run([]string{"resume", "-manifest", man, "-ids", "tab2.1,fig4.1", "-seed", "3"}); code != exitOK {
			t.Errorf("resume exit %d", code)
		}
	})
	if err := os.WriteFile(man, halted, 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() {
		if code := run([]string{"fsck", dir}); code != exitOK {
			t.Errorf("fsck with the journal ahead exit %d", code)
		}
	})
	if !strings.Contains(out, "2 records, complete=true") || strings.Contains(out, "DAMAGED") {
		t.Fatalf("fsck misjudged a journal ahead of its manifest:\n%s", out)
	}
}

func TestFsckIgnoresForeignJSON(t *testing.T) {
	dir := t.TempDir()
	foreign := filepath.Join(dir, "telemetry.json")
	if err := os.WriteFile(foreign, []byte(`{"events": 12}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := capture(t, func() {
		if code := run([]string{"fsck", dir}); code != exitOK {
			t.Errorf("fsck over foreign json exit %d", code)
		}
	})
	if strings.Contains(out, "telemetry.json") {
		t.Fatalf("fsck claimed a foreign json file:\n%s", out)
	}
}

// TestCampaignDiskChaosHaltsResumable: under heavy injected disk faults
// the campaign must exit 3 (halted, resumable) — never corrupt state —
// and a fault-free resume must converge to the reference bytes.
func TestCampaignDiskChaosHaltsResumable(t *testing.T) {
	dir := t.TempDir()
	refMan, _ := buildCLIStore(t, dir)

	chaosMan := filepath.Join(dir, "chaos.json")
	halted := false
	for seed := 1; seed <= 10 && !halted; seed++ {
		var code int
		capture(t, func() {
			code = run([]string{
				"campaign", "-manifest", chaosMan, "-ids", "tab2.1,fig4.1", "-seed", "3",
				"-diskchaos", "0.4", "-diskchaosseed", strconv.Itoa(seed), "-force",
			})
		})
		switch code {
		case exitHalted:
			halted = true
		case exitOK:
			// Lucky dice — try the next chaos seed.
			os.Remove(chaosMan)
			os.Remove(campaign.WALPath(chaosMan))
		default:
			t.Fatalf("disk chaos surfaced as exit %d, want %d or %d", code, exitHalted, exitOK)
		}
	}
	if !halted {
		t.Fatal("-diskchaos 0.4 never halted across 10 seeds — injection inert")
	}

	capture(t, func() {
		if code := run([]string{"resume", "-manifest", chaosMan, "-ids", "tab2.1,fig4.1", "-seed", "3"}); code != exitOK {
			t.Errorf("resume after disk chaos exit %d", code)
		}
	})
	got, err := os.ReadFile(chaosMan)
	if err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refMan)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(refBytes) {
		t.Fatal("post-chaos resumed manifest differs from reference")
	}
}
