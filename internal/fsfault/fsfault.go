// Package fsfault is a seeded, injectable filesystem fault layer: an
// implementation of durable.FS that wraps any base FS and injects the
// failure modes real disks exhibit — ENOSPC/EIO on writes, fsyncs that
// lie, and whole-process crashes at any chosen write-path step that lose
// unsynced data exactly the way power loss does (torn file tails, flipped
// bytes, renames that never persisted).
//
// It is the disk-side sibling of fabric.ChaosTransport: everything is
// driven by internal/rng so a (seed, crash-step) pair replays bit-for-bit,
// which is what lets the crash-torture tests enumerate every crash point
// of a campaign and assert recovery from each one.
//
// Crash model. The injector shadow-tracks what the page cache holds but
// the disk might not: per-file pre-dirty snapshots (cleared by an honest
// Sync) and pending namespace operations — renames/removes not yet pinned
// by a SyncDir of their directory. When the crash step is reached the
// injector "loses power": it keeps a seeded prefix of the pending
// namespace ops and undoes the rest in reverse from snapshots, then tears
// every still-dirty file (rollback to its pre-dirty content, truncation
// to a seeded prefix, or a flipped byte). Only unsynced bytes are torn: a
// file dirtied only by appends keeps the prefix its last honest fsync
// persisted, and damage lands past it; a file rewritten by WriteFile has
// no such prefix and may be damaged anywhere. From then on every operation
// returns ErrCrash, so the engine under test dies as surely as a SIGKILL
// — but in-process, where the test can inspect the wreckage and resume.
package fsfault

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"repro/internal/durable"
	"repro/internal/rng"
)

// ErrCrash is returned by every operation once the injector has crashed.
// It marks simulated process death, not a recoverable disk fault — it is
// deliberately NOT matched by durable.DiskErr.
var ErrCrash = errors.New("fsfault: simulated crash")

// Config configures an Injector.
type Config struct {
	// Base is the filesystem to wrap. Nil means the real disk.
	Base durable.FS
	// Seed drives every probabilistic choice. Same seed, same faults.
	Seed uint64
	// ErrRate is the probability each mutating operation fails with a
	// seeded ENOSPC or EIO instead of running. [0, 1].
	ErrRate float64
	// LieFsync is the probability a Sync/SyncDir returns success without
	// actually persisting anything (the data stays crash-vulnerable). [0, 1].
	LieFsync float64
	// CrashAfter > 0 crashes the injector at mutating-operation number
	// CrashAfter (1-based): that operation and everything after it returns
	// ErrCrash, and unsynced state is lost per the crash model. 0 disables.
	CrashAfter int
}

// Validate reports the first configuration problem.
func (c *Config) Validate() error {
	if c.ErrRate < 0 || c.ErrRate > 1 {
		return fmt.Errorf("fsfault: ErrRate %g outside [0, 1]", c.ErrRate)
	}
	if c.LieFsync < 0 || c.LieFsync > 1 {
		return fmt.Errorf("fsfault: LieFsync %g outside [0, 1]", c.LieFsync)
	}
	if c.CrashAfter < 0 {
		return fmt.Errorf("fsfault: CrashAfter %d negative", c.CrashAfter)
	}
	return nil
}

// shadow is a file's pre-dirty state: what the disk still holds if every
// write since the last honest fsync is lost.
type shadow struct {
	base    []byte
	existed bool
	// appendOnly marks a file dirtied only by Append since base was
	// synced: base is still its on-disk prefix, so a crash can only
	// damage the bytes past it.
	appendOnly bool
}

// nsOp is a pending namespace operation (rename or remove) that no
// SyncDir has pinned yet, with enough snapshot to undo it.
type nsOp struct {
	op         string // "rename" | "remove"
	oldPath    string // rename source / removed path
	newPath    string // rename destination ("" for remove)
	oldData    []byte // content at oldPath before the op
	newData    []byte // content at newPath before the op (rename only)
	newExisted bool
}

// Injector implements durable.FS with seeded fault injection over a base
// filesystem. Safe for concurrent use.
type Injector struct {
	cfg  Config
	base durable.FS

	mu      sync.Mutex
	rng     *rng.RNG
	step    int
	crashed bool
	dirty   map[string]shadow
	pending []nsOp
}

// New builds an Injector, validating cfg.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := cfg.Base
	if base == nil {
		base = durable.OS()
	}
	return &Injector{
		cfg:   cfg,
		base:  base,
		rng:   rng.New(cfg.Seed),
		dirty: make(map[string]shadow),
	}, nil
}

// MustNew is New, panicking on config errors.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// Steps returns the number of mutating operations attempted so far. Run a
// workload once with CrashAfter=0 to count its crash points, then sweep
// CrashAfter over 1..Steps().
func (in *Injector) Steps() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.step
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// enter runs the common preamble of every mutating operation: crash
// check, step count, scheduled crash, seeded disk error. It returns a
// non-nil error when the operation must not run. Callers hold mu.
func (in *Injector) enter(op string) error {
	if in.crashed {
		return fmt.Errorf("fsfault: %s: %w", op, ErrCrash)
	}
	in.step++
	if in.cfg.CrashAfter > 0 && in.step >= in.cfg.CrashAfter {
		in.crashed = true
		in.applyCrash()
		return fmt.Errorf("fsfault: %s: %w", op, ErrCrash)
	}
	if in.cfg.ErrRate > 0 && in.rng.Bool(in.cfg.ErrRate) {
		errno := syscall.ENOSPC
		if in.rng.Bool(0.5) {
			errno = syscall.EIO
		}
		return fmt.Errorf("fsfault: %s: injected: %w", op, errno)
	}
	return nil
}

// snapshot records path's pre-dirty state if not already tracked, and
// whether every write since has been an append. Callers hold mu.
func (in *Injector) snapshot(path string, appending bool) {
	sh, ok := in.dirty[path]
	if !ok {
		data, err := in.base.ReadFile(path)
		sh = shadow{base: data, existed: err == nil, appendOnly: true}
	}
	sh.appendOnly = sh.appendOnly && appending
	in.dirty[path] = sh
}

// applyCrash loses power: keep a seeded prefix of pending namespace ops,
// undo the rest in reverse from snapshots, then tear every dirty file.
// Callers hold mu.
func (in *Injector) applyCrash() {
	keep := in.rng.Intn(len(in.pending) + 1)
	for i := len(in.pending) - 1; i >= keep; i-- {
		op := in.pending[i]
		switch op.op {
		case "rename":
			in.base.WriteFile(op.oldPath, op.oldData, 0o644)
			if op.newExisted {
				in.base.WriteFile(op.newPath, op.newData, 0o644)
			} else {
				in.base.Remove(op.newPath)
			}
			delete(in.dirty, op.oldPath)
			delete(in.dirty, op.newPath)
		case "remove":
			in.base.WriteFile(op.oldPath, op.oldData, 0o644)
			delete(in.dirty, op.oldPath)
		}
	}
	in.pending = nil

	// Tear the dirty files in sorted order so the seed fully determines
	// the damage.
	paths := make([]string, 0, len(in.dirty))
	for p := range in.dirty {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		sh := in.dirty[p]
		// synced is how much of the current content is already on disk.
		synced := 0
		if sh.appendOnly {
			synced = len(sh.base)
		}
		switch in.rng.Intn(3) {
		case 0: // full rollback: nothing since the snapshot reached disk
			if sh.existed {
				in.base.WriteFile(p, sh.base, 0o644)
			} else {
				in.base.Remove(p)
			}
		case 1: // torn tail: a prefix of the new content made it out
			cur, err := in.base.ReadFile(p)
			if err != nil || len(cur) < synced {
				break
			}
			in.base.WriteFile(p, cur[:synced+in.rng.Intn(len(cur)-synced+1)], 0o644)
		case 2: // bit rot: the write went out with a flipped byte
			cur, err := in.base.ReadFile(p)
			if err != nil || len(cur) <= synced {
				break
			}
			cur = append([]byte(nil), cur...)
			cur[synced+in.rng.Intn(len(cur)-synced)] ^= 0xff
			in.base.WriteFile(p, cur, 0o644)
		}
	}
	in.dirty = make(map[string]shadow)
}

// --- durable.FS: mutating operations ---

func (in *Injector) WriteFile(path string, data []byte, perm os.FileMode) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("write " + path); err != nil {
		return err
	}
	in.snapshot(path, false)
	return in.base.WriteFile(path, data, perm)
}

func (in *Injector) Append(path string, data []byte, perm os.FileMode) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("append " + path); err != nil {
		return err
	}
	in.snapshot(path, true)
	return in.base.Append(path, data, perm)
}

func (in *Injector) Sync(path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("fsync " + path); err != nil {
		return err
	}
	if in.cfg.LieFsync > 0 && in.rng.Bool(in.cfg.LieFsync) {
		return nil // lie: report success, keep the file crash-vulnerable
	}
	delete(in.dirty, path)
	return in.base.Sync(path)
}

func (in *Injector) SyncDir(dir string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("fsyncdir " + dir); err != nil {
		return err
	}
	if in.cfg.LieFsync > 0 && in.rng.Bool(in.cfg.LieFsync) {
		return nil
	}
	kept := in.pending[:0]
	for _, op := range in.pending {
		if filepath.Dir(op.oldPath) == dir || (op.newPath != "" && filepath.Dir(op.newPath) == dir) {
			continue // pinned by this dir sync
		}
		kept = append(kept, op)
	}
	in.pending = kept
	return in.base.SyncDir(dir)
}

func (in *Injector) Rename(oldpath, newpath string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("rename " + oldpath); err != nil {
		return err
	}
	op := nsOp{op: "rename", oldPath: oldpath, newPath: newpath}
	var err error
	op.oldData, err = in.base.ReadFile(oldpath)
	if err != nil {
		return in.base.Rename(oldpath, newpath) // let the base report it
	}
	if data, err := in.base.ReadFile(newpath); err == nil {
		op.newData, op.newExisted = data, true
	}
	if err := in.base.Rename(oldpath, newpath); err != nil {
		return err
	}
	in.pending = append(in.pending, op)
	// Unsynced content follows the name: if oldpath was dirty the data at
	// newpath is just as crash-vulnerable. Either way newpath now holds
	// other bytes than its shadow's, so no prefix of it is known synced.
	if _, ok := in.dirty[oldpath]; ok {
		delete(in.dirty, oldpath)
		if _, tracked := in.dirty[newpath]; !tracked {
			in.dirty[newpath] = shadow{base: op.newData, existed: op.newExisted}
		}
	}
	if sh, tracked := in.dirty[newpath]; tracked {
		sh.appendOnly = false
		in.dirty[newpath] = sh
	}
	return nil
}

func (in *Injector) Remove(path string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("remove " + path); err != nil {
		return err
	}
	data, rerr := in.base.ReadFile(path)
	if err := in.base.Remove(path); err != nil {
		return err
	}
	if rerr == nil {
		in.pending = append(in.pending, nsOp{op: "remove", oldPath: path, oldData: data})
	}
	delete(in.dirty, path)
	return nil
}

func (in *Injector) MkdirAll(dir string, perm os.FileMode) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.enter("mkdir " + dir); err != nil {
		return err
	}
	return in.base.MkdirAll(dir, perm)
}

// --- durable.FS: read operations (no step count, no injected errors —
// reads only fail once the process is "dead") ---

func (in *Injector) ReadFile(path string) ([]byte, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return nil, fmt.Errorf("fsfault: read %s: %w", path, ErrCrash)
	}
	return in.base.ReadFile(path)
}

func (in *Injector) Stat(path string) (os.FileInfo, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return nil, fmt.Errorf("fsfault: stat %s: %w", path, ErrCrash)
	}
	return in.base.Stat(path)
}

func (in *Injector) ReadDir(dir string) ([]os.DirEntry, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.crashed {
		return nil, fmt.Errorf("fsfault: readdir %s: %w", dir, ErrCrash)
	}
	return in.base.ReadDir(dir)
}

var _ durable.FS = (*Injector)(nil)
