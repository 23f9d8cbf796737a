package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// readManifest loads a manifest's bytes or fails the test.
func readManifest(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignByteIdenticalWithSpans is the acceptance gate for the
// side-effect-free guarantee: a campaign's stdout and manifest must be
// byte-identical with tracing off, with tracing on at width 1, and with
// tracing on at width 4 — spans observe, they never perturb.
func TestCampaignByteIdenticalWithSpans(t *testing.T) {
	dir := t.TempDir()
	refMan := filepath.Join(dir, "ref.json")
	refOut := capture(t, func() {
		if code := run([]string{"campaign", "-manifest", refMan, "-ids", testIDs, "-seed", "3"}); code != exitOK {
			t.Errorf("untraced campaign exit %d", code)
		}
	})
	if refOut == "" {
		t.Fatal("reference campaign printed nothing")
	}

	for _, width := range []string{"1", "4"} {
		man := filepath.Join(dir, "traced"+width+".json")
		log := filepath.Join(dir, "spans"+width+".jsonl")
		out := capture(t, func() {
			args := []string{"campaign", "-manifest", man, "-ids", testIDs, "-seed", "3",
				"-parallel", width, "-spans", log, "-spanslices"}
			if code := run(args); code != exitOK {
				t.Errorf("traced campaign (width %s) exit %d", width, code)
			}
		})
		if out != refOut {
			t.Fatalf("stdout differs with -spans at width %s:\n--- ref ---\n%s\n--- traced ---\n%s", width, refOut, out)
		}
		if got := readManifest(t, man); got != readManifest(t, refMan) {
			t.Fatalf("manifest differs with -spans at width %s", width)
		}

		lg, err := obs.ReadLog(nil, log)
		if err != nil {
			t.Fatal(err)
		}
		if lg.Dropped != 0 {
			t.Fatalf("clean shutdown left %d torn lines", lg.Dropped)
		}
		tiers := map[string]int{}
		for _, s := range lg.Spans {
			tiers[s.Tier]++
		}
		for _, tier := range []string{obs.TierProcess, obs.TierCampaign, obs.TierEntry, obs.TierMachine, obs.TierSlice} {
			if tiers[tier] == 0 {
				t.Fatalf("width %s span log missing tier %q: %v", width, tier, tiers)
			}
		}
		if got, want := tiers[obs.TierEntry], len(strings.Split(testIDs, ",")); got != want {
			t.Fatalf("entry spans = %d, want %d", got, want)
		}
		// Each entry's span scope reaches the machines it builds, whichever
		// worker ran it: every machine phase nests under an entry.
		byID := make(map[uint64]*obs.Span, len(lg.Spans))
		for _, s := range lg.Spans {
			byID[s.ID] = s
		}
		for _, s := range lg.Spans {
			if s.Tier != obs.TierMachine {
				continue
			}
			if p := byID[s.Parent]; p == nil || p.Tier != obs.TierEntry {
				t.Fatalf("width %s: machine span %q (id %d) has parent %d, not an entry span", width, s.Name, s.ID, s.Parent)
			}
		}
	}
}

// TestCampaignHaltResumeByteIdenticalWithSpans interrupts a traced
// campaign and resumes it traced: the final stdout and manifest still
// match the untraced uninterrupted reference, and both sessions' span
// logs are readable.
func TestCampaignHaltResumeByteIdenticalWithSpans(t *testing.T) {
	dir := t.TempDir()
	refMan := filepath.Join(dir, "ref.json")
	refOut := capture(t, func() {
		if code := run([]string{"campaign", "-manifest", refMan, "-ids", testIDs, "-seed", "3"}); code != exitOK {
			t.Errorf("untraced campaign exit %d", code)
		}
	})

	cutMan := filepath.Join(dir, "cut.json")
	log1 := filepath.Join(dir, "s1.jsonl")
	log2 := filepath.Join(dir, "s2.jsonl")
	capture(t, func() {
		args := []string{"campaign", "-manifest", cutMan, "-ids", testIDs, "-seed", "3",
			"-haltafter", "1", "-spans", log1}
		if code := run(args); code != exitHalted {
			t.Errorf("traced halt exit %d, want %d", code, exitHalted)
		}
	})
	resumedOut := capture(t, func() {
		args := []string{"resume", "-manifest", cutMan, "-ids", testIDs, "-seed", "3", "-spans", log2}
		if code := run(args); code != exitOK {
			t.Errorf("traced resume exit %d", code)
		}
	})
	if resumedOut != refOut {
		t.Fatalf("traced halt/resume stdout differs:\n--- ref ---\n%s\n--- resumed ---\n%s", refOut, resumedOut)
	}
	if readManifest(t, cutMan) != readManifest(t, refMan) {
		t.Fatal("traced halt/resume manifest differs from untraced reference")
	}
	for _, log := range []string{log1, log2} {
		lg, err := obs.ReadLog(nil, log)
		if err != nil {
			t.Fatal(err)
		}
		if len(lg.Spans) < 2 {
			t.Fatalf("%s: only %d spans", log, len(lg.Spans))
		}
	}
}

// TestTraceRecordByteIdenticalWithSpans pins the other golden artifact:
// a recorded kernel event stream is bit-identical whether or not span
// tracing (including per-event slices) rode along.
func TestTraceRecordByteIdenticalWithSpans(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.cptrace")
	traced := filepath.Join(dir, "traced.cptrace")
	log := filepath.Join(dir, "spans.jsonl")
	capture(t, func() {
		if code := run([]string{"trace", "record", "fig4.1", "-o", plain, "-seed", "2"}); code != exitOK {
			t.Fatalf("plain record exit %d", code)
		}
		if code := run([]string{"trace", "record", "fig4.1", "-o", traced, "-seed", "2",
			"-spans", log, "-spanslices"}); code != exitOK {
			t.Fatalf("traced record exit %d", code)
		}
	})
	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(traced)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("golden trace differs with -spans -spanslices")
	}
	lg, err := obs.ReadLog(nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(lg.Spans) < 2 {
		t.Fatalf("span log suspiciously small: %d spans", len(lg.Spans))
	}
}

// TestSpansCloseLastMachinePhase checks every single-experiment command
// that takes -spans, and a campaign: the log exists and holds every
// machine phase as a closed machine-tier span stamped with its simulated
// end. No later machine or campaign teardown is there to end the final
// phase; the run itself must. Machines are pooled, so a phase may close
// after its machine's Shutdown scrubbed the shell, or when the pool
// hands that shell out again: its end is still the run's final time.
func TestSpansCloseLastMachinePhase(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"run", []string{"run", "fig4.1"}},
		{"trace-record", []string{"trace", "record", "fig4.1", "-o", filepath.Join(dir, "t.cptrace")}},
		{"metrics", []string{"metrics", "-exp", "fig4.1", "-o", filepath.Join(dir, "m.prom")}},
		{"profile", []string{"profile", "-exp", "fig4.1", "-o", filepath.Join(dir, "p.txt")}},
		{"campaign", []string{"campaign", "-manifest", filepath.Join(dir, "c.json"), "-ids", "fig4.1,fig4.6", "-seed", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := filepath.Join(dir, tc.name+".jsonl")
			capture(t, func() {
				if code := run(append(tc.args, "-spans", log)); code != exitOK {
					t.Fatalf("%v exit %d", tc.args, code)
				}
			})
			lg, err := obs.ReadLog(nil, log)
			if err != nil {
				t.Fatal(err)
			}
			machines := 0
			for _, s := range lg.Spans {
				if s.Tier != obs.TierMachine {
					continue
				}
				machines++
				if s.SimEnd <= s.SimStart {
					t.Fatalf("machine span %q has no simulated end: sim %d..%d", s.Name, s.SimStart, s.SimEnd)
				}
			}
			if machines == 0 {
				t.Fatalf("no machine-tier span among %d spans", len(lg.Spans))
			}
		})
	}
}

// TestTimelineCommand folds a real span log into Chrome trace JSON and
// checks the shape Perfetto expects.
func TestTimelineCommand(t *testing.T) {
	dir := t.TempDir()
	man := filepath.Join(dir, "c.json")
	log := filepath.Join(dir, "spans.jsonl")
	capture(t, func() {
		if code := run([]string{"campaign", "-manifest", man, "-ids", "fig4.1", "-spans", log}); code != exitOK {
			t.Fatalf("campaign exit %d", code)
		}
	})
	out := filepath.Join(dir, "trace.json")
	capture(t, func() {
		if code := run([]string{"timeline", "-o", out, log}); code != exitOK {
			t.Fatalf("timeline exit %d", code)
		}
	})
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.TraceEvents) == 0 {
		t.Fatal("timeline produced no trace events")
	}
	var hasProcName bool
	for _, e := range parsed.TraceEvents {
		if e["ph"] == "M" && e["name"] == "process_name" {
			hasProcName = true
		}
	}
	if !hasProcName {
		t.Fatal("trace missing process_name metadata")
	}

	// Usage errors: no logs, missing file.
	capture(t, func() {
		if code := run([]string{"timeline", "-o", out}); code != exitUsage {
			t.Fatalf("timeline with no logs exit %d, want %d", code, exitUsage)
		}
		if code := run([]string{"timeline", "-o", out, filepath.Join(dir, "missing.jsonl")}); code != exitDegraded {
			t.Fatalf("timeline with missing log exit %d, want %d", code, exitDegraded)
		}
	})
}
