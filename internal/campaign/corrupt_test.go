package campaign

// corrupt_test.go tables manifest corruption: the manifest is truncated
// at every offset and has every single byte flipped, and in every case
// loading must either salvage committed state or refuse with a structured
// *durable.CorruptError — never a raw json error escaping, never a panic,
// and (with the journal present) never losing a single committed entry.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/durable"
)

// buildStore runs a campaign in two sessions so the store has both
// sources: the manifest (compacted at the halt and again at completion)
// and the journal. Returns the manifest path and its pristine bytes.
func buildStore(t *testing.T) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	plan := []Entry{okEntry("a"), okEntry("b"), okEntry("c"), okEntry("d")}
	c, err := New(Config{Path: path, Seed: 3, HaltAfter: 2}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); !errors.Is(err, ErrHalted) {
		t.Fatalf("first session: %v", err)
	}
	c, err = Resume(Config{Path: path, Seed: 3}, plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(WALPath(path)); err != nil {
		t.Fatalf("store incomplete, journal missing: %v", err)
	}
	return path, data
}

// TestManifestCorruptionStrictLoad: with only the damaged manifest to go
// on, Load must return intact content or a structured error — the full
// truncate-everywhere / flip-everywhere table.
func TestManifestCorruptionStrictLoad(t *testing.T) {
	path, pristine := buildStore(t)
	want, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Load(path)
		if err != nil {
			var ce *durable.CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: unstructured error: %v", label, err)
			}
			return
		}
		// Accepted: the committed content must be identical to the
		// original. (The Sum field is excluded: a flip inside the literal
		// `"sum"` key name makes JSON drop the unknown key, degrading the
		// file to a legacy unchecksummed manifest — every record is still
		// intact, which is exactly the salvage the contract asks for.)
		mm, ww := *m, *want
		mm.Sum, ww.Sum = "", ""
		if !reflect.DeepEqual(&mm, &ww) {
			t.Fatalf("%s: damaged manifest accepted with different content", label)
		}
	}

	for off := 0; off < len(pristine); off++ {
		check("truncate", pristine[:off])
	}
	for off := 0; off < len(pristine); off++ {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xff
		check("flip", mut)
	}
}

// TestManifestCorruptionRecovery: with the journal alongside, a damaged
// manifest must never cost a single committed entry — LoadRecovered
// salvages all records from the journal and quarantines the wreck.
func TestManifestCorruptionRecovery(t *testing.T) {
	path, pristine := buildStore(t)
	base, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := len(base.Entries)
	walBytes, err := os.ReadFile(WALPath(path))
	if err != nil {
		t.Fatal(err)
	}
	restore := func() {
		for _, f := range []struct {
			p string
			b []byte
		}{{path, pristine}, {WALPath(path), walBytes}} {
			if err := os.WriteFile(f.p, f.b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		// Drop quarantine litter so names stay stable across cases.
		ents, _ := os.ReadDir(filepath.Dir(path))
		for _, e := range ents {
			name := e.Name()
			if len(name) > len(durable.QuarantineSuffix) && filepath.Ext(name) != ".json" && filepath.Ext(name) != ".wal" {
				os.Remove(filepath.Join(filepath.Dir(path), name))
			}
		}
	}

	check := func(label string, mutated []byte) {
		t.Helper()
		restore()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		m, h, err := LoadRecovered(durable.OS(), path)
		if err != nil {
			t.Fatalf("%s: recovery failed with the journal intact: %v (health %+v)", label, err, h)
		}
		if len(m.Entries) != wantRecords {
			t.Fatalf("%s: recovery lost entries: got %d want %d (health %+v)", label, len(m.Entries), wantRecords, h)
		}
		for id, rec := range base.Entries {
			got := m.Entries[id]
			if got == nil || got.Rendered != rec.Rendered || got.Status != rec.Status || got.Seed != rec.Seed {
				t.Fatalf("%s: record %s damaged after recovery", label, id)
			}
		}
		if h.Manifest.Present && !h.Manifest.OK && h.Manifest.Quarantined == "" {
			t.Fatalf("%s: corrupt manifest not quarantined (health %+v)", label, h)
		}
	}

	// Offset classes: inside the header fields, inside an entry record,
	// inside the sum field, at both edges — plus a stride over everything.
	offsets := []int{0, 1, len(pristine) / 4, len(pristine) / 2, 3 * len(pristine) / 4, len(pristine) - 2, len(pristine) - 1}
	for off := 7; off < len(pristine); off += 13 {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		check("truncate", pristine[:off])
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0xff
		check("flip", mut)
	}

	// And a resume on top of a flipped manifest must run to the same final
	// bytes as if nothing happened.
	restore()
	mut := append([]byte(nil), pristine...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	plan := []Entry{okEntry("a"), okEntry("b"), okEntry("c"), okEntry("d")}
	c, err := Resume(Config{Path: path, Seed: 3}, plan)
	if err != nil {
		t.Fatalf("resume over corrupt manifest: %v", err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(pristine) {
		t.Fatalf("resume over corrupt manifest produced different bytes")
	}
}

// TestAllSourcesDamagedRefusesLoudly: when manifest and journal are both
// wrecked, recovery must refuse with a structured error (and
// quarantine the wreckage), never pretend success.
func TestAllSourcesDamagedRefusesLoudly(t *testing.T) {
	path, _ := buildStore(t)
	for _, p := range []string{path, WALPath(path)} {
		if err := os.WriteFile(p, []byte("{torn beyond recognition"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, h, err := LoadRecovered(durable.OS(), path)
	if err == nil {
		t.Fatal("recovery claimed success over an all-damaged store")
	}
	var ce *durable.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("unstructured error: %v", err)
	}
	if h.Manifest.Quarantined == "" {
		t.Fatalf("corrupt manifest not quarantined: %+v", h)
	}
	if _, err := os.Stat(h.Manifest.Quarantined); err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
}

// TestRecoveryFoldsJournalOverManifest: recovery folds the two sources by
// session, not by which file is newer. The manifest is compacted at a halt
// with a failed entry; the next session's re-run of it lands in the
// journal. Whether that re-run reached only the journal (a kill before the
// compaction) or only the manifest (the journal's line torn off), recovery
// serves it; a torn journal never costs the manifest's records.
func TestRecoveryFoldsJournalOverManifest(t *testing.T) {
	plan := func() []Entry {
		runs := 0
		return []Entry{okEntry("a"), {ID: "b", Run: func(seed uint64) Attempt {
			if runs++; runs == 1 {
				return Attempt{Attempts: 1, Err: errors.New("no preemption window found")}
			}
			return Attempt{Attempts: 1, Rendered: "b ok\n"}
		}}, okEntry("c")}
	}
	// The reference: the same three sessions — halt after a and b's
	// failure, halt after b's re-run, finish — undisturbed.
	refPath := filepath.Join(t.TempDir(), "ref.json")
	refPlan := plan()
	for i, haltAfter := range []int{2, 1, 0} {
		cfg := Config{Path: refPath, Seed: 5, HaltAfter: haltAfter}
		var c *Campaign
		var err error
		if i == 0 {
			c, err = New(cfg, refPlan)
		} else {
			c, err = Resume(cfg, refPlan)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(); (haltAfter > 0) != errors.Is(err, ErrHalted) {
			t.Fatalf("reference session %d: %v", i+1, err)
		}
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "m.json")
	entries := plan()
	c, _ := New(Config{Path: path, Seed: 5, HaltAfter: 2}, entries)
	if _, err := c.Run(); !errors.Is(err, ErrHalted) {
		t.Fatalf("first session: %v", err)
	}
	halted, _ := os.ReadFile(path)
	c, err = Resume(Config{Path: path, Seed: 5, HaltAfter: 1}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); !errors.Is(err, ErrHalted) {
		t.Fatalf("second session: %v", err)
	}
	rerun, _ := os.ReadFile(path)
	wal, _ := os.ReadFile(WALPath(path))

	serves := func(label string, wantStatus Status, wantSessions int) {
		t.Helper()
		m, _, err := LoadRecovered(durable.OS(), path)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if m.Entries["a"] == nil || m.Entries["c"] != nil {
			t.Fatalf("%s: served records %v", label, m.Counts())
		}
		if b := m.Entries["b"]; b == nil || b.Status != wantStatus || b.Sessions != wantSessions {
			t.Fatalf("%s: b served as %+v, want %s in session %d", label, b, wantStatus, wantSessions)
		}
	}

	// A kill before the second session's compaction: the halt's manifest
	// plus a journal ahead of it. The journal's re-run wins.
	if err := os.WriteFile(path, halted, 0o644); err != nil {
		t.Fatal(err)
	}
	serves("journal ahead", StatusRetried, 2)

	// The re-run's journal line torn off: the manifest's records stand.
	if err := os.WriteFile(WALPath(path), wal[:len(wal)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	serves("torn journal", StatusFailed, 1)

	// The re-run compacted but torn off the journal: the manifest's newer
	// record wins over the journal's older one.
	if err := os.WriteFile(path, rerun, 0o644); err != nil {
		t.Fatal(err)
	}
	serves("manifest ahead", StatusRetried, 2)

	// Resuming from there rewrites the torn journal and finishes with the
	// bytes of the undisturbed sessions.
	c, err = Resume(Config{Path: path, Seed: 5}, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(want) {
		t.Fatalf("resumed manifest differs from the undisturbed sessions':\n%s\nwant\n%s", got, want)
	}
}
