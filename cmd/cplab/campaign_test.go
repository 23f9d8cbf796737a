package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		buf := make([]byte, 0, 1<<16)
		tmp := make([]byte, 4096)
		for {
			n, err := r.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				break
			}
		}
		done <- string(buf)
	}()
	defer func() {
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	out := <-done
	r.Close()
	return out
}

const testIDs = "tab2.1,fig4.1,abl.gentle"

// TestCampaignInterruptResumeByteIdentical is the CLI-level acceptance
// test: a campaign halted mid-way and resumed must print exactly what an
// uninterrupted campaign prints, and leave an identical manifest.
func TestCampaignInterruptResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	refMan := filepath.Join(dir, "ref.json")
	cutMan := filepath.Join(dir, "cut.json")

	refOut := capture(t, func() {
		if code := run([]string{"campaign", "-manifest", refMan, "-ids", testIDs, "-seed", "3"}); code != exitOK {
			t.Errorf("uninterrupted campaign exit %d", code)
		}
	})

	cutOut := capture(t, func() {
		if code := run([]string{"campaign", "-manifest", cutMan, "-ids", testIDs, "-seed", "3", "-haltafter", "1"}); code != exitHalted {
			t.Errorf("interrupted campaign exit %d, want %d", code, exitHalted)
		}
	})
	if cutOut != "" {
		t.Errorf("halted campaign wrote to stdout: %q", cutOut)
	}
	resumedOut := capture(t, func() {
		if code := run([]string{"resume", "-manifest", cutMan, "-ids", testIDs, "-seed", "3"}); code != exitOK {
			t.Errorf("resume exit %d", code)
		}
	})

	if refOut == "" || !strings.Contains(refOut, "===== tab2.1") {
		t.Fatalf("reference output suspicious:\n%s", refOut)
	}
	if resumedOut != refOut {
		t.Fatalf("resumed output differs from uninterrupted:\n--- ref ---\n%s\n--- resumed ---\n%s", refOut, resumedOut)
	}
	ref, err := os.ReadFile(refMan)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := os.ReadFile(cutMan)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(cut) {
		t.Fatal("resumed manifest differs from uninterrupted manifest")
	}
}

// TestCampaignAutoResumesExistingManifest checks `campaign` on an existing
// manifest resumes instead of clobbering it.
func TestCampaignAutoResumesExistingManifest(t *testing.T) {
	man := filepath.Join(t.TempDir(), "c.json")
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig4.1", "-haltafter", "1"}); code != exitHalted {
			t.Fatalf("halted campaign exit %d", code)
		}
	})
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig4.1"}); code != exitOK {
			t.Fatalf("auto-resume exit %d", code)
		}
	})
}

// TestCampaignUnknownIDSkippedAndNonZero checks an unknown experiment ID
// yields a skipped record and a failing exit code (satellite: campaigns
// with anything but clean passes exit non-zero).
func TestCampaignUnknownIDSkippedAndNonZero(t *testing.T) {
	man := filepath.Join(t.TempDir(), "c.json")
	out := capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig0.0"}); code != exitDegraded {
			t.Fatalf("campaign with unknown id exit %d, want %d", code, exitDegraded)
		}
	})
	if !strings.Contains(out, "SKIPPED") {
		t.Fatalf("skipped entry not rendered:\n%s", out)
	}
}

// TestCampaignResumeRefusesFlagMismatch checks resuming under different
// flags is refused rather than silently merging incomparable results.
func TestCampaignResumeRefusesFlagMismatch(t *testing.T) {
	man := filepath.Join(t.TempDir(), "c.json")
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "tab2.1,fig4.1", "-haltafter", "1"}); code != exitHalted {
			t.Fatalf("halted campaign exit %d", code)
		}
	})
	for _, extra := range [][]string{
		{"-seed", "99"},
		{"-retries", "5"},
		{"-faults", "0.1"},
	} {
		args := append([]string{"resume", "-manifest", man, "-ids", "tab2.1,fig4.1"}, extra...)
		capture(t, func() {
			if code := run(args); code != exitDegraded {
				t.Errorf("resume with %v exit %d, want refusal (%d)", extra, code, exitDegraded)
			}
		})
	}
}

// TestTraceRecordAndDiffCLI exercises the trace subcommands end to end:
// record twice (identical), diff clean, then perturb and diff dirty.
func TestTraceRecordAndDiffCLI(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.cptrace")
	b := filepath.Join(dir, "b.cptrace")
	capture(t, func() {
		if code := run([]string{"trace", "record", "fig4.1", "-o", a, "-seed", "2"}); code != exitOK {
			t.Fatalf("trace record exit %d", code)
		}
		if code := run([]string{"trace", "record", "fig4.1", "-o", b, "-seed", "2"}); code != exitOK {
			t.Fatalf("trace record exit %d", code)
		}
	})
	capture(t, func() {
		if code := run([]string{"trace", "diff", a, b}); code != exitOK {
			t.Fatalf("identical traces diff exit %d", code)
		}
	})
	c := filepath.Join(dir, "c.cptrace")
	capture(t, func() {
		if code := run([]string{"trace", "record", "fig4.1", "-o", c, "-seed", "4"}); code != exitOK {
			t.Fatalf("trace record exit %d", code)
		}
	})
	out := capture(t, func() {
		if code := run([]string{"trace", "diff", a, c}); code != exitDegraded {
			t.Fatalf("different-seed diff exit %d, want %d", code, exitDegraded)
		}
	})
	if !strings.Contains(out, "mismatch") && !strings.Contains(out, "diverges") {
		t.Fatalf("divergence report missing:\n%s", out)
	}
}

// TestUsageErrors checks argument validation exits with the usage code.
func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"bogus"},
		{"bench"}, // no such subcommand: perfbench/ is the benchmark
		{"run"},
		{"trace"},
		{"trace", "bogus"},
		{"trace", "diff", "only-one.cptrace"},
		{"trace", "record"},
	}
	for _, args := range cases {
		capture(t, func() {
			if code := run(args); code != exitUsage {
				t.Errorf("run(%v) exit %d, want %d", args, code, exitUsage)
			}
		})
	}
	capture(t, func() {
		if code := run([]string{"run", "tab2.1", "-faults", "1.5"}); code != exitUsage {
			t.Errorf("out-of-range -faults accepted")
		}
	})
	// cplabd job specs carry no defense: a defended cluster sweep would
	// merge undefended records, so it is refused before any worker is
	// contacted.
	manifest := filepath.Join(t.TempDir(), "cluster.json")
	capture(t, func() {
		args := []string{"cluster", "-workers", "http://127.0.0.1:1", "-ids", "tab2.1",
			"-manifest", manifest, "-defense", "slackrand", "-timeout", "50ms", "-httpretries", "0"}
		if code := run(args); code != exitUsage {
			t.Errorf("cluster -defense exit %d, want %d", code, exitUsage)
		}
	})
	if _, err := os.Stat(manifest); err == nil {
		t.Error("refused cluster -defense still wrote a manifest")
	}
}
