package campaign

// recovery.go is the read side of the durable store: given a manifest
// path it validates the two on-disk sources — the manifest (the last
// compaction) and the entry journal ("<path>.wal", the commit point) —
// quarantines corrupt files, and folds them: the manifest's records when
// it is valid, overlaid with every journal record of at least the same
// session. Neither source is ranked over the other, so a later session's
// re-run of a failed entry wins whichever file is newer. Resume, labd's
// manifest endpoint and `cplab fsck` are all built on it.

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/durable"
)

// SourceHealth is one recovery source's validation result.
type SourceHealth struct {
	// Present reports the file exists.
	Present bool `json:"present"`
	// OK reports it parsed and checksummed clean and is folded into
	// recovery.
	OK bool `json:"ok"`
	// Err is why validation failed, or why a valid source was excluded
	// from recovery (plan mismatch).
	Err string `json:"err,omitempty"`
	// Records is the number of committed entries the source carries.
	Records int `json:"records"`
	// Torn marks a journal whose last line was damaged; the records above
	// are its valid prefix. Normal after a crash mid-append, not
	// corruption. (Damage with lines after it leaves Torn false and is
	// reported in Err.)
	Torn bool `json:"torn,omitempty"`
	// Quarantined is where LoadRecovered moved a corrupt file, "" if the
	// file was left in place (Inspect never moves anything).
	Quarantined string `json:"quarantined,omitempty"`
}

// Health is the full recovery picture for one manifest path.
type Health struct {
	Path     string       `json:"path"`
	Manifest SourceHealth `json:"manifest"`
	WAL      SourceHealth `json:"wal"`
	// Records is the number of committed entries recovery serves: the
	// manifest's overlaid with the journal's.
	Records int `json:"records"`
	// Complete reports the served state covers its entire plan.
	Complete bool `json:"complete"`
}

// Inspect validates the recovery sources for the manifest at path without
// modifying anything on disk — the dry-run behind `cplab fsck`.
func Inspect(f durable.FS, path string) *Health {
	h, _, _ := inspect(f, path)
	return h
}

// Committed returns the committed state at path, the manifest overlaid
// with its journal, without modifying anything on disk. A missing store
// returns fs.ErrNotExist; one with no usable source a *durable.CorruptError.
func Committed(f durable.FS, path string) (*Manifest, error) {
	h, man, _ := inspect(f, path)
	if man == nil {
		return nil, unusable(h)
	}
	return man, nil
}

// inspect validates both sources and folds the usable ones. covers
// reports that the journal, read whole, already holds every served record
// — what NewCheckpointer would otherwise re-read the journal to learn.
func inspect(f durable.FS, path string) (h *Health, man *Manifest, covers bool) {
	h = &Health{Path: path}
	man = loadSource(f, path, &h.Manifest)
	wal, walWhole := loadWALSource(f, WALPath(path), &h.WAL)
	switch {
	case wal == nil:
	case man == nil:
		man, covers = wal, walWhole
	case !headerOf(wal).matches(man):
		// Stale litter from an earlier campaign at the same path.
		h.WAL.OK, h.WAL.Err = false, "plan differs from the manifest's; excluded from recovery"
	default:
		won := 0
		for id, rec := range wal.Entries {
			if cur := man.Entries[id]; cur == nil || rec.Sessions >= cur.Sessions {
				man.Entries[id] = rec
				won++
			}
		}
		covers = walWhole && won == len(man.Entries)
	}
	if man != nil {
		h.Records, h.Complete = len(man.Entries), man.Complete()
	}
	return h, man, covers
}

// loadSource strictly loads one manifest-format source, recording its
// health. Returns nil when unusable.
func loadSource(f durable.FS, path string, sh *SourceHealth) *Manifest {
	data, err := f.ReadFile(path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			sh.Present, sh.Err = true, err.Error()
		}
		return nil
	}
	sh.Present = true
	m, err := decodeManifest(path, data)
	if err != nil {
		sh.Err = err.Error()
		return nil
	}
	sh.OK, sh.Records = true, len(m.Entries)
	return m
}

// loadWALSource rebuilds a manifest from a journal, recording its health.
// The bool reports that every line of the journal was undamaged and folded.
func loadWALSource(f durable.FS, path string, sh *SourceHealth) (*Manifest, bool) {
	d, err := durable.ReadLog(f, path)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			sh.Present, sh.Err = true, err.Error()
		}
		return nil, false
	}
	sh.Present, sh.Torn = true, d.TornTail
	if d.Torn {
		sh.Err = fmt.Sprintf("damaged at line %d: %s (valid prefix kept)", d.TornLine, d.TornReason)
	}
	hdr, folded, lines := foldWAL(d)
	if hdr == nil {
		if sh.Err == "" {
			sh.Err = "no valid plan header"
		}
		return nil, false
	}
	if hdr.Version != ManifestVersion {
		sh.Err = fmt.Sprintf("journal version %d, want %d", hdr.Version, ManifestVersion)
		return nil, false
	}
	sh.OK, sh.Records = true, len(folded)
	return &Manifest{Version: hdr.Version, Seed: hdr.Seed, Note: hdr.Note, IDs: hdr.IDs, Entries: folded},
		whole(d, hdr, lines)
}

// unusable is the error for a store with nothing to serve. A journal torn
// inside its plan header, with nothing after the damage, never committed
// a record: without a manifest, that store is as good as missing.
func unusable(h *Health) error {
	if !h.Manifest.Present && (!h.WAL.Present || h.WAL.Torn) {
		return fmt.Errorf("campaign: manifest %s: %w", h.Path, fs.ErrNotExist)
	}
	return &durable.CorruptError{Path: h.Path,
		Reason:      "no recoverable state: manifest and journal are both damaged",
		Quarantined: h.Manifest.Quarantined}
}

// LoadRecovered loads the committed state for the manifest at path,
// quarantining corrupt files as it goes. A torn journal is not
// quarantined (its valid prefix is served and the checkpointer rewrites
// it); a journal that parses but cannot be folded (another plan) is, or
// the checkpointer would reconcile against stale litter forever. A
// missing store returns fs.ErrNotExist; a store where both sources are
// damaged returns a *durable.CorruptError.
func LoadRecovered(f durable.FS, path string) (*Manifest, *Health, error) {
	man, h, _, err := loadRecovered(f, path)
	return man, h, err
}

// loadRecovered is LoadRecovered that also reports whether the journal
// covers the recovered state (inspect's covers), so opening the store on
// it need not read the journal again.
func loadRecovered(f durable.FS, path string) (*Manifest, *Health, bool, error) {
	h, man, covers := inspect(f, path)
	quarantine := func(p string, sh *SourceHealth) {
		if dst, err := durable.Quarantine(f, p); err == nil {
			sh.Quarantined = dst
		}
	}
	if h.Manifest.Present && !h.Manifest.OK {
		quarantine(path, &h.Manifest)
	}
	if h.WAL.Present && !h.WAL.Torn && !h.WAL.OK {
		quarantine(WALPath(path), &h.WAL)
	}
	if man == nil {
		return nil, h, false, unusable(h)
	}
	return man, h, covers, nil
}

// Repair recovers the committed state at path and rewrites both the
// journal (when it does not already cover that state) and the manifest
// from it, leaving a clean, consistent store (corrupt originals survive
// as .quarantined files). It returns the recovered manifest and the
// pre-repair health.
func Repair(f durable.FS, path string) (*Manifest, *Health, error) {
	man, h, covers, err := loadRecovered(f, path)
	if err != nil {
		return nil, h, err
	}
	cp, err := openCheckpointer(f, path, man, false, covers)
	if err != nil {
		return nil, h, err
	}
	if err := cp.Compact(man); err != nil {
		return nil, h, err
	}
	return man, h, nil
}
