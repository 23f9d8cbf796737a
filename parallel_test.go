package repro

// Integration gate for the parallel campaign engine over real experiments:
// a campaign run with 8 workers must checkpoint byte-for-byte what the
// serial run checkpoints — same records, same per-entry telemetry, same
// seeds — and a campaign halted mid-flight under parallelism must resume
// into the identical manifest. The experiment set matches the golden-trace
// gate: a CFS machine run (fig4.1), a multi-machine noisy run (fig4.6) and
// a machine-less pure computation (tab2.1).

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/timebase"
)

var parallelIDs = []string{"fig4.1", "fig4.6", "tab2.1"}

// runCampaign runs a fresh campaign over parallelIDs at the given width
// and returns the manifest bytes.
func runCampaign(t *testing.T, workers int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.json")
	c, err := campaign.New(campaign.Config{Path: path, Seed: 1, Note: "parallel-gate"},
		CampaignEntries(parallelIDs, Options{Scale: Quick, Seed: 1}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), workers); err != nil {
		t.Fatalf("campaign (workers=%d): %v", workers, err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParallelCampaignMatchesSerial(t *testing.T) {
	serial := runCampaign(t, 1)
	parallel := runCampaign(t, 8)
	if string(serial) != string(parallel) {
		t.Fatalf("parallel manifest differs from serial:\nserial:\n%s\nparallel:\n%s", serial, parallel)
	}
}

func TestParallelHaltedCampaignResumesToSerialBytes(t *testing.T) {
	serial := runCampaign(t, 1)

	path := filepath.Join(t.TempDir(), "campaign.json")
	entries := CampaignEntries(parallelIDs, Options{Scale: Quick, Seed: 1}, 0)
	cfg := campaign.Config{Path: path, Seed: 1, Note: "parallel-gate"}
	halted := cfg
	halted.HaltAfter = 1
	c, err := campaign.New(halted, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), 8); err != campaign.ErrHalted {
		t.Fatalf("halted session: err %v, want ErrHalted", err)
	}
	mid, err := campaign.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Complete() {
		t.Fatal("campaign completed despite HaltAfter=1")
	}

	r, err := campaign.Resume(cfg, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunParallel(context.Background(), 8); err != nil {
		t.Fatalf("resume: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(serial) {
		t.Fatalf("resumed parallel manifest differs from uninterrupted serial:\ngot:\n%s\nwant:\n%s", got, serial)
	}
}

// TestCampaignNoteFormat pins the note bytes existing manifests carry.
// `cplab campaign`, `cplab cluster` and cplabd all write CampaignNote, and
// a resume is refused on any note mismatch, so these bytes may never
// change.
func TestCampaignNoteFormat(t *testing.T) {
	cases := []struct {
		o       Options
		retries int
		want    string
	}{
		{Options{}, 2, "paper=false faults=0 simbudget=0ns retries=2"},
		{Options{Scale: Paper, Seed: 7, FaultRate: 0.05, SimBudget: 250 * timebase.Millisecond}, 0,
			"paper=true faults=0.05 simbudget=250ms retries=0"},
		{Options{Defense: "slackrand"}, 2, "paper=false faults=0 simbudget=0ns retries=2 defense=slackrand"},
	}
	for _, c := range cases {
		if got := CampaignNote(c.o, c.retries); got != c.want {
			t.Errorf("CampaignNote(%+v, %d) = %q, want %q", c.o, c.retries, got, c.want)
		}
	}
}
