package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// TestMetricsCmdPrometheus `cplab metrics -exp fig4.1` must emit well-formed
// Prometheus text: TYPE lines per family, every sample "name value", and the
// kernel/attack families populated.
func TestMetricsCmdPrometheus(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.prom")
	if code := run([]string{"metrics", "-exp", "fig4.1", "-o", path}); code != exitOK {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "# TYPE kern_events_total counter") {
		t.Fatalf("missing kern_events_total family:\n%s", text)
	}
	for _, family := range []string{"attack_preemptions_total", "kern_sched_out_total"} {
		if !strings.Contains(text, family) {
			t.Fatalf("missing %s:\n%s", family, text)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
	// Same run, same seed: the export must be byte-identical.
	path2 := filepath.Join(t.TempDir(), "metrics2.prom")
	if code := run([]string{"metrics", "-exp", "fig4.1", "-o", path2}); code != exitOK {
		t.Fatalf("second run exit %d", code)
	}
	data2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("metrics export not deterministic across identical runs")
	}
}

// TestMetricsCmdJSON the -json variant round-trips and holds the same
// counters.
func TestMetricsCmdJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if code := run([]string{"metrics", "-exp", "fig4.1", "-json", "-o", path}); code != exitOK {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if snap.Counters["kern_sched_in_total"] == 0 {
		t.Fatalf("kern_sched_in_total missing or zero: %v", snap.Counters)
	}
}

// TestMetricsCmdUsage a missing -exp is a usage error.
func TestMetricsCmdUsage(t *testing.T) {
	if code := run([]string{"metrics"}); code != exitUsage {
		t.Fatalf("exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"profile"}); code != exitUsage {
		t.Fatalf("profile exit %d, want %d", code, exitUsage)
	}
}

// TestProfileCmd emits the by-kind report table.
func TestProfileCmd(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.txt")
	if code := run([]string{"profile", "-exp", "fig4.1", "-o", path}); code != exitOK {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.Contains(text, "by event kind") {
		t.Fatalf("profile report incomplete:\n%s", text)
	}
	if !strings.Contains(text, "timer-fire") {
		t.Fatalf("profile report missing timer-fire lane:\n%s", text)
	}
	if metrics.Ambient() != nil || metrics.AmbientProfiler() != nil {
		t.Fatal("metrics/profile leaked their sink past the command")
	}
}
