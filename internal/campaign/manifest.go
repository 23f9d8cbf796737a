package campaign

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/durable"
	"repro/internal/report"
)

// ManifestVersion is the on-disk manifest format version. It is exported
// so the cluster fabric can assemble merged manifests that are
// byte-identical to the campaign engine's own.
const ManifestVersion = 1

// Status is the recorded outcome of one campaign entry.
type Status string

// Entry statuses.
const (
	// StatusOK is a first-attempt success.
	StatusOK Status = "ok"
	// StatusRetried is a success on a later campaign session, after one or
	// more earlier sessions recorded a failure (resume re-ran it with a
	// bumped seed).
	StatusRetried Status = "retried"
	// StatusDegraded is a success that needed bumped-seed retries inside the
	// guarded runner (the result exists, but not under the canonical seed).
	StatusDegraded Status = "degraded"
	// StatusFailed means every attempt of the last session died; resume
	// re-runs failed entries.
	StatusFailed Status = "failed"
	// StatusSkipped marks an entry with no runner (an unknown experiment
	// ID); it is never re-run.
	StatusSkipped Status = "skipped"
	// StatusPending is a planned entry a halted campaign never reached. It
	// appears in summaries, not in checkpointed records.
	StatusPending Status = "pending"
)

// Final reports whether the status needs no further runs on resume.
func (s Status) Final() bool {
	switch s {
	case StatusOK, StatusRetried, StatusDegraded, StatusSkipped:
		return true
	}
	return false
}

// Failure is the structured cause of a failed entry. When the experiment
// died on a kernel invariant violation, the invariant name, detection time,
// detail and full machine dump ride along, so the manifest alone supports a
// postmortem.
type Failure struct {
	// Msg is the failure headline (first line of the error).
	Msg string `json:"msg"`
	// Invariant/At/Detail/Dump are filled when the cause chain contains a
	// *kern.InvariantError.
	Invariant string `json:"invariant,omitempty"`
	At        string `json:"at,omitempty"`
	Detail    string `json:"detail,omitempty"`
	Dump      string `json:"dump,omitempty"`
}

// Record is one entry's checkpointed outcome.
type Record struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Attempts counts guarded-runner attempts in the recording session.
	Attempts int `json:"attempts"`
	// Sessions counts campaign sessions that ran this entry; FailedSessions
	// counts the ones that ended in failure (it drives the resume seed
	// bump).
	Sessions       int `json:"sessions"`
	FailedSessions int `json:"failed_sessions"`
	// Seed is the base seed the recorded outcome started from.
	Seed uint64 `json:"seed"`
	// Metrics are the experiment's headline numbers; Rendered is its full
	// figure/table text — the campaign's final results are assembled from
	// these, so a resumed campaign reproduces the uninterrupted output
	// byte for byte.
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	Rendered string             `json:"rendered,omitempty"`
	Failure  *Failure           `json:"failure,omitempty"`
	// Telemetry is what the entry's recorded run counted in its own
	// registry (Attempt.Telemetry: counter and gauge values plus histogram
	// _sum/_count, zero values dropped). It is omitted entirely when the
	// entry reported none, so such manifests are unchanged from earlier
	// format revisions.
	Telemetry map[string]int64 `json:"telemetry,omitempty"`
}

// Manifest is the campaign checkpoint: the plan (seed, configuration note,
// experiment order) plus a record per completed entry. It contains no
// wall-clock state, so manifests of equivalent campaigns are byte-identical.
type Manifest struct {
	Version int    `json:"version"`
	Seed    uint64 `json:"seed"`
	// Note pins the non-seed configuration (scale, fault rate, retries);
	// resuming under a different note is refused.
	Note    string             `json:"note,omitempty"`
	IDs     []string           `json:"ids"`
	Entries map[string]*Record `json:"entries"`
	// Sum is the manifest's self-checksum: "crc32c:%08x" over the manifest
	// serialized with Sum empty. It is recomputed on load from the parsed
	// content (Go's JSON serialization is deterministic: struct field
	// order, sorted map keys, shortest float form), so a flipped byte
	// anywhere in the payload is caught even when the JSON still parses.
	// Empty Sum (pre-durability manifests) skips verification.
	Sum string `json:"sum,omitempty"`
}

// checksum computes the manifest's canonical self-checksum value.
func (m *Manifest) checksum() (string, error) {
	shadow := *m
	shadow.Sum = ""
	base, err := json.MarshalIndent(&shadow, "", "  ")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32c:%08x", durable.Checksum(base)), nil
}

// Encode seals and serializes the manifest: Sum is refreshed from the
// current content and the exact checkpoint bytes are returned.
func (m *Manifest) Encode() ([]byte, error) {
	sum, err := m.checksum()
	if err != nil {
		return nil, err
	}
	m.Sum = sum
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// decodeManifest parses and validates manifest bytes. Damage — unparseable
// JSON, a wrong version, a checksum mismatch — comes back as a structured
// *durable.CorruptError, never a raw json error escaping to the caller.
func decodeManifest(path string, data []byte) (*Manifest, error) {
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, &durable.CorruptError{Path: path, Reason: "unparseable manifest JSON", Err: err}
	}
	if m.Version != ManifestVersion {
		return nil, &durable.CorruptError{Path: path,
			Reason: fmt.Sprintf("manifest version %d, want %d", m.Version, ManifestVersion)}
	}
	if m.Sum != "" {
		want, err := m.checksum()
		if err != nil {
			return nil, err
		}
		if m.Sum != want {
			return nil, &durable.CorruptError{Path: path,
				Reason: fmt.Sprintf("checksum mismatch: recorded %s, content is %s", m.Sum, want)}
		}
	}
	if m.Entries == nil {
		m.Entries = map[string]*Record{}
	}
	return m, nil
}

// Load reads a manifest checkpoint from the real disk, strictly: any
// damage is a *durable.CorruptError. It does not attempt recovery — that
// is LoadRecovered's job.
func Load(path string) (*Manifest, error) { return LoadFS(durable.OS(), path) }

// LoadFS is Load over an explicit filesystem.
func LoadFS(f durable.FS, path string) (*Manifest, error) {
	data, err := f.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeManifest(path, data)
}

// Save durably checkpoints the manifest to the real disk.
func (m *Manifest) Save(path string) error { return m.SaveFS(durable.OS(), path) }

// SaveFS writes the manifest through the full atomic protocol (tmp +
// fsync + rename + fsync dir), so a kill at any instant leaves the former
// or the current file at path, never a torn mixture.
func (m *Manifest) SaveFS(f durable.FS, path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(f, path, data, 0o644)
}

// Complete reports whether every planned entry has a final record (failed
// counts as complete for the session; it stays re-runnable on resume).
func (m *Manifest) Complete() bool {
	for _, id := range m.IDs {
		if m.Entries[id] == nil {
			return false
		}
	}
	return true
}

// Counts tallies entries by status, with pending for unreached IDs.
func (m *Manifest) Counts() map[Status]int {
	out := map[Status]int{}
	for _, id := range m.IDs {
		rec := m.Entries[id]
		if rec == nil {
			out[StatusPending]++
			continue
		}
		out[rec.Status]++
	}
	return out
}

// Rows renders the per-entry summary rows in plan order, with failure
// causes, for report.CampaignSummary.
func (m *Manifest) Rows() []report.CampaignRow {
	rows := make([]report.CampaignRow, 0, len(m.IDs))
	for _, id := range m.IDs {
		rec := m.Entries[id]
		if rec == nil {
			rows = append(rows, report.CampaignRow{ID: id, Status: string(StatusPending)})
			continue
		}
		row := report.CampaignRow{ID: id, Status: string(rec.Status), Attempts: rec.Attempts}
		if f := rec.Failure; f != nil {
			row.Cause = f.Msg
			if f.Invariant != "" {
				row.Cause = fmt.Sprintf("invariant %q at %s: %s", f.Invariant, f.At, f.Detail)
			}
			if i := strings.IndexByte(row.Cause, '\n'); i >= 0 {
				row.Cause = row.Cause[:i]
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// Clean reports whether the campaign finished with every entry ok — the CI
// gate: retried, degraded, failed, skipped and pending all make it false.
func (m *Manifest) Clean() bool {
	for _, id := range m.IDs {
		rec := m.Entries[id]
		if rec == nil || rec.Status != StatusOK {
			return false
		}
	}
	return true
}
