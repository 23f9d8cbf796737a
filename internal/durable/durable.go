// Package durable is the single storage layer every checkpoint in the
// repo goes through: campaign manifests, trace golden files, labd job
// state, and fabric cluster sidecars. It owns the full atomic-write
// protocol (tmp file + fsync(file) + rename + fsync(dir)), a
// per-line-CRC append-only journal (the manifest WAL, a campaign's
// commit point), quarantine of corrupt files, and the error taxonomy
// (CorruptError, DiskErr) the recovery paths above it are built on.
//
// Everything takes an FS, the small filesystem surface the package needs;
// OS() is the real disk and internal/fsfault wraps any FS with seeded
// fault injection (torn writes, dropped renames, lying fsync, ENOSPC,
// EIO, crash points), so the whole write path is testable against power
// loss without leaving the process.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// FS is the filesystem surface the durable layer writes through. It is
// deliberately path-based (no file handles): every operation is one
// syscall bundle, which is what makes crash points enumerable.
type FS interface {
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// WriteFile creates/truncates path with data. No implied sync.
	WriteFile(path string, data []byte, perm os.FileMode) error
	// Append appends data to path, creating it if missing. No implied sync.
	// Like io.Writer, it must not retain data: the journal reuses it.
	Append(path string, data []byte, perm os.FileMode) error
	// Sync fsyncs the file's contents.
	Sync(path string) error
	// SyncDir fsyncs a directory, persisting renames/creates/removes of its
	// entries.
	SyncDir(dir string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(path string) error
	// Stat stats a path.
	Stat(path string) (os.FileInfo, error)
	// ReadDir lists a directory.
	ReadDir(dir string) ([]os.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(dir string, perm os.FileMode) error
}

// osFS is the real disk.
type osFS struct{}

var theOS FS = osFS{}

// OS returns the real filesystem.
func OS() FS { return theOS }

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return os.WriteFile(path, data, perm)
}

func (osFS) Append(path string, data []byte, perm os.FileMode) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sync opens read-only, which is enough for fsync on every platform we
// target and works for files we only hold paths to.
func (osFS) Sync(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (o osFS) SyncDir(dir string) error { return o.Sync(dir) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }
func (osFS) Stat(path string) (os.FileInfo, error) {
	return os.Stat(path)
}
func (osFS) ReadDir(dir string) ([]os.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) MkdirAll(dir string, perm os.FileMode) error {
	return os.MkdirAll(dir, perm)
}

// TmpSuffix is the suffix of in-flight atomic-write files. Loaders ignore
// them; sweeps delete them.
const TmpSuffix = ".tmp"

// QuarantineSuffix marks a corrupt file moved aside by recovery; the
// bytes are preserved for postmortem, never read back as state.
const QuarantineSuffix = ".quarantined"

// WriteFileAtomic writes data to path with full durability: write to
// path+".tmp", fsync the tmp file, rename over path, fsync the directory.
// On any failure the tmp file is removed, so error paths never leak
// "*.tmp" litter, and a crash at any step leaves either the old complete
// file or the new complete file at path — never a torn mixture.
func WriteFileAtomic(f FS, path string, data []byte, perm os.FileMode) error {
	tmp := path + TmpSuffix
	if err := f.WriteFile(tmp, data, perm); err != nil {
		f.Remove(tmp) // best effort: a short write may have created it
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := f.Sync(tmp); err != nil {
		f.Remove(tmp)
		return fmt.Errorf("durable: fsync %s: %w", tmp, err)
	}
	if err := f.Rename(tmp, path); err != nil {
		f.Remove(tmp)
		return fmt.Errorf("durable: rename %s -> %s: %w", tmp, path, err)
	}
	if err := f.SyncDir(filepath.Dir(path)); err != nil {
		// The rename already happened; the data is safe in the file, only
		// the directory entry may not persist a crash. Surface it: callers
		// treat it like any other disk fault.
		return fmt.Errorf("durable: fsync dir of %s: %w", path, err)
	}
	return nil
}

// Quarantine moves a corrupt file aside as path+".quarantined" (then
// ".quarantined.1", ".2", ... if earlier quarantines exist) and returns
// the quarantine path. The bytes survive for postmortem; loaders never
// read quarantined files back as live state.
func Quarantine(f FS, path string) (string, error) {
	dst := path + QuarantineSuffix
	for n := 1; ; n++ {
		if _, err := f.Stat(dst); err != nil {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", path, QuarantineSuffix, n)
	}
	if err := f.Rename(path, dst); err != nil {
		return "", fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	if err := f.SyncDir(filepath.Dir(path)); err != nil {
		return dst, fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	return dst, nil
}

// SweepTmp removes orphaned "*.tmp" files directly under dir — the litter
// a crash mid-atomic-write leaves behind. It returns the paths it
// removed. Missing dir is not an error (nothing to sweep).
func SweepTmp(f FS, dir string) ([]string, error) {
	ents, err := f.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var removed []string
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), TmpSuffix) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if err := f.Remove(p); err != nil {
			return removed, err
		}
		removed = append(removed, p)
	}
	return removed, nil
}

// CorruptError is the structured "this file is damaged" error every
// loader in the repo reports instead of a raw json.Unmarshal failure. It
// carries the path, what was wrong, and (when recovery moved the file
// aside) where the bytes went.
type CorruptError struct {
	// Path is the damaged file.
	Path string
	// Reason says what failed to validate (parse error, checksum
	// mismatch, bad version, torn journal line, ...).
	Reason string
	// Quarantined is where the bytes were moved, "" if left in place.
	Quarantined string
	// Err is the underlying cause, when there is one.
	Err error
}

func (e *CorruptError) Error() string {
	msg := fmt.Sprintf("durable: %s is corrupt: %s", e.Path, e.Reason)
	if e.Quarantined != "" {
		msg += fmt.Sprintf(" (quarantined as %s)", e.Quarantined)
	}
	return msg
}

func (e *CorruptError) Unwrap() error { return e.Err }

// DiskErr reports whether err is an environmental disk fault — the disk
// is full, failing, or gone read-only — as opposed to a logic error. The
// campaign and fabric engines halt into a resumable checkpoint on these
// (exit 3) instead of crashing, and the cluster coordinator treats a
// worker reporting one as down.
func DiskErr(err error) bool {
	return errors.Is(err, syscall.ENOSPC) ||
		errors.Is(err, syscall.EIO) ||
		errors.Is(err, syscall.EDQUOT) ||
		errors.Is(err, syscall.EROFS)
}
