package campaign

// store.go is the campaign's write-side durability: a Checkpointer that
// owns the manifest file and its append-only entry journal ("<manifest>.wal").
// The journal is the commit point: committing a record appends one
// CRC-guarded line and fsyncs it, O(1) in the plan size; records that land
// together share one fsync. The manifest is a compaction of the journal,
// rewritten atomically only when a session ends (completed or halted) and
// by repair. After a crash at any instant
// the committed records are the manifest overlaid with the journal —
// recovery.go's job.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/durable"
)

// WALSuffix is the manifest journal's suffix: "<manifest>.wal".
const WALSuffix = ".wal"

// WALPath returns the journal path for a manifest path.
func WALPath(path string) string { return path + WALSuffix }

// Exists reports whether a store is on disk at path: its manifest or its
// journal. A campaign that died before its first compaction left only the
// journal, and is resumable from it.
func Exists(f durable.FS, path string) bool {
	for _, p := range []string{path, WALPath(path)} {
		if _, err := f.Stat(p); err == nil {
			return true
		}
	}
	return false
}

// walHeader is the journal's first line: the campaign plan, so a journal
// alone can be rebuilt into a manifest and a journal from a different
// plan is never folded into this one.
type walHeader struct {
	Version int      `json:"version"`
	Seed    uint64   `json:"seed"`
	Note    string   `json:"note,omitempty"`
	IDs     []string `json:"ids"`
}

func headerOf(m *Manifest) walHeader {
	return walHeader{Version: m.Version, Seed: m.Seed, Note: m.Note, IDs: m.IDs}
}

func (h walHeader) matches(m *Manifest) bool {
	if h.Version != m.Version || h.Seed != m.Seed || h.Note != m.Note || len(h.IDs) != len(m.IDs) {
		return false
	}
	for i := range h.IDs {
		if h.IDs[i] != m.IDs[i] {
			return false
		}
	}
	return true
}

// Checkpointer persists a campaign's state through the durable layer:
// records to the journal as they commit, the manifest when a session ends.
type Checkpointer struct {
	fs   durable.FS
	path string
	wal  *durable.Log
}

// NewCheckpointer opens the durable store for a manifest at path.
//
// fresh (a brand-new campaign) discards the prior manifest at the path,
// so stale state from an unrelated earlier campaign can never be
// "recovered" into this one, and resets the journal to just the plan
// header. The manifest file itself is not written until Compact.
//
// Otherwise man is the recovered state and the journal is reconciled with
// it before the first append: a journal that is missing, torn, belongs to
// a different plan, or lacks a record man holds (or holds an older
// session's) is rewritten from man — appends after a damaged line would
// never be read back. A journal that covers man is kept and appended to.
func NewCheckpointer(f durable.FS, path string, man *Manifest, fresh bool) (*Checkpointer, error) {
	cp := &Checkpointer{fs: f, path: path, wal: durable.NewLog(f, WALPath(path))}
	// Sweep this store's own crash litter (never the whole directory —
	// other stores' tmp files are theirs to sweep).
	for _, p := range []string{path + durable.TmpSuffix, WALPath(path) + durable.TmpSuffix} {
		if err := f.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("campaign: sweep %s: %w", p, err)
		}
	}
	if fresh {
		if err := f.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("campaign: discard %s: %w", path, err)
		}
		return cp, cp.rewriteWAL(man)
	}
	d, err := durable.ReadLog(f, cp.wal.Path())
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	if err != nil || !walCovers(d, man) {
		return cp, cp.rewriteWAL(man)
	}
	return cp, nil
}

// walCovers reports whether an undamaged journal of man's plan already
// holds every record of man, each at least as recent.
func walCovers(d *durable.LogData, man *Manifest) bool {
	hdr, folded, lines := foldWAL(d)
	if d.Torn || hdr == nil || lines != len(d.Payloads)-1 || !hdr.matches(man) {
		return false
	}
	for id, rec := range man.Entries {
		if got := folded[id]; got == nil || got.Sessions < rec.Sessions {
			return false
		}
	}
	return true
}

// rewriteWAL resets the journal to the plan header plus the manifest's
// committed records in plan order.
func (cp *Checkpointer) rewriteWAL(man *Manifest) error {
	hdr, err := json.Marshal(headerOf(man))
	if err != nil {
		return err
	}
	payloads := [][]byte{hdr}
	for _, id := range man.IDs {
		rec := man.Entries[id]
		if rec == nil {
			continue
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		payloads = append(payloads, line)
	}
	if err := cp.wal.Reset(payloads...); err != nil {
		return fmt.Errorf("campaign: rewrite journal: %w", err)
	}
	return nil
}

// Commit durably lands newly recorded entries: each record is appended to
// the journal, then one fsync commits them all — the whole commit, its
// cost not growing with the plan. man is the manifest the records were
// folded into; it reaches disk at the next Compact.
func (cp *Checkpointer) Commit(man *Manifest, recs ...*Record) error {
	for _, rec := range recs {
		if err := cp.Write(rec); err != nil {
			return err
		}
	}
	return cp.Sync()
}

// Write appends one record to the journal without making it durable; it
// is committed by the next Sync. A campaign writes each record as it
// lands and syncs once per batch (group commit).
func (cp *Checkpointer) Write(rec *Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := cp.wal.Write(line); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// Sync commits every record written since the last Sync with one fsync.
func (cp *Checkpointer) Sync() error {
	if err := cp.wal.Sync(); err != nil {
		return fmt.Errorf("campaign: journal: %w", err)
	}
	return nil
}

// Compact writes man — the journal folded so far — as the manifest file,
// atomically. Sessions call it when they end, complete or halted.
func (cp *Checkpointer) Compact(man *Manifest) error {
	return man.SaveFS(cp.fs, cp.path)
}

// foldWAL parses journal payloads into (header, records folded by ID in
// append order, number of record lines). A payload that fails to parse
// ends the fold there, mirroring the CRC layer's torn-tail rule.
func foldWAL(d *durable.LogData) (*walHeader, map[string]*Record, int) {
	if len(d.Payloads) == 0 {
		return nil, nil, 0
	}
	hdr := &walHeader{}
	if err := json.Unmarshal(d.Payloads[0], hdr); err != nil || hdr.Version == 0 || hdr.IDs == nil {
		return nil, nil, 0
	}
	folded := map[string]*Record{}
	lines := 0
	for _, p := range d.Payloads[1:] {
		rec := &Record{}
		if err := json.Unmarshal(p, rec); err != nil || rec.ID == "" {
			break
		}
		folded[rec.ID] = rec
		lines++
	}
	return hdr, folded, lines
}
