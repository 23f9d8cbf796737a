package repro

// Byte-identity gate for the campaign's checkpoint encoder: the manifest
// and journal that `cplab campaign -seed 1` writes must be exactly what
// encoding/json writes for the same state — json.MarshalIndent sealed
// with its crc32c self-checksum for the manifest, json.Marshal for each
// journal line. The seed-1 plan covers every registered experiment, so the
// check runs over real rendered figures and tables: non-ASCII text (→, —,
// ≈), HTML characters, metric maps and per-entry telemetry.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/durable"
)

func TestCampaignCheckpointMatchesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.json")
	o := Options{Scale: Quick, Seed: 1}
	c, err := campaign.New(campaign.Config{Path: path, Seed: 1, Note: CampaignNote(o, 2)},
		CampaignEntries(nil, o, 2))
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.RunParallel(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	shadow := *man
	shadow.Sum = ""
	base, err := json.MarshalIndent(&shadow, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	shadow.Sum = fmt.Sprintf("crc32c:%08x", durable.Checksum(base))
	want, err := json.MarshalIndent(&shadow, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(got, want) {
		t.Fatalf("manifest differs from encoding/json's:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, s := range []string{"→", "—", "≈", `\u003c`} {
		if !bytes.Contains(got, []byte(s)) {
			t.Errorf("the seed-1 manifest no longer carries %q; the gate has lost that input", s)
		}
	}

	d, err := durable.ReadLog(durable.OS(), campaign.WALPath(path))
	if err != nil || d.Torn {
		t.Fatalf("journal: %v (torn %v)", err, d != nil && d.Torn)
	}
	hdr, err := json.Marshal(struct {
		Version int      `json:"version"`
		Seed    uint64   `json:"seed"`
		Note    string   `json:"note,omitempty"`
		IDs     []string `json:"ids"`
	}{man.Version, man.Seed, man.Note, man.IDs})
	if err != nil {
		t.Fatal(err)
	}
	lines := [][]byte{hdr}
	for _, id := range man.IDs {
		line, err := json.Marshal(man.Entries[id])
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	if len(d.Payloads) != len(lines) {
		t.Fatalf("journal holds %d lines, want %d", len(d.Payloads), len(lines))
	}
	for i, line := range lines {
		if !bytes.Equal(d.Payloads[i], line) {
			t.Fatalf("journal line %d differs from encoding/json's:\ngot:  %s\nwant: %s", i+1, d.Payloads[i], line)
		}
	}
	if !strings.Contains(string(got), `"telemetry": {`) {
		t.Error("the seed-1 manifest carries no telemetry; the gate has lost that input")
	}
}
