package campaign

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"testing"
	"time"

	"repro/internal/durable"
)

// mapFS is a minimal in-memory durable.FS: each fuzz input gets a fresh
// one, so recovery runs at memory speed with no files left behind.
type mapFS map[string][]byte

func (m mapFS) notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (m mapFS) ReadFile(path string) ([]byte, error) {
	b, ok := m[path]
	if !ok {
		return nil, m.notExist("open", path)
	}
	return append([]byte(nil), b...), nil
}

func (m mapFS) WriteFile(path string, data []byte, _ os.FileMode) error {
	m[path] = append([]byte(nil), data...)
	return nil
}

func (m mapFS) Append(path string, data []byte, _ os.FileMode) error {
	m[path] = append(m[path], data...)
	return nil
}

func (m mapFS) Sync(string) error    { return nil }
func (m mapFS) SyncDir(string) error { return nil }

func (m mapFS) Rename(oldpath, newpath string) error {
	b, ok := m[oldpath]
	if !ok {
		return m.notExist("rename", oldpath)
	}
	m[newpath] = b
	delete(m, oldpath)
	return nil
}

func (m mapFS) Remove(path string) error {
	if _, ok := m[path]; !ok {
		return m.notExist("remove", path)
	}
	delete(m, path)
	return nil
}

func (m mapFS) Stat(path string) (os.FileInfo, error) {
	b, ok := m[path]
	if !ok {
		return nil, m.notExist("stat", path)
	}
	return mapFileInfo{name: path, size: int64(len(b))}, nil
}

func (m mapFS) ReadDir(string) ([]os.DirEntry, error) { return nil, nil }
func (m mapFS) MkdirAll(string, os.FileMode) error    { return nil }

type mapFileInfo struct {
	name string
	size int64
}

func (fi mapFileInfo) Name() string       { return fi.name }
func (fi mapFileInfo) Size() int64        { return fi.size }
func (fi mapFileInfo) Mode() os.FileMode  { return 0o644 }
func (fi mapFileInfo) ModTime() time.Time { return time.Time{} }
func (fi mapFileInfo) IsDir() bool        { return false }
func (fi mapFileInfo) Sys() any           { return nil }

// fuzzSeedStore builds a real two-source store in memory: a compacted
// manifest holding one record and a Checkpointer journal that committed a
// second one after it. It returns the manifest and journal bytes.
func fuzzSeedStore(f *testing.F) (manifest, journal []byte) {
	f.Helper()
	const path = "m.json"
	mfs := mapFS{}
	man := &Manifest{Version: ManifestVersion, Seed: 3, Note: "fuzz", IDs: []string{"a", "b", "c"},
		Entries: map[string]*Record{}}
	cp, err := NewCheckpointer(mfs, path, man, true)
	if err != nil {
		f.Fatal(err)
	}
	a := &Record{ID: "a", Status: StatusOK, Attempts: 1, Sessions: 1, Seed: 3,
		Metrics: map[string]float64{"rate": 0.25}, Rendered: "table a\n", Telemetry: map[string]int64{"kern_events_total": 42}}
	man.Entries["a"] = a
	if err := cp.Commit(man, a); err != nil {
		f.Fatal(err)
	}
	if manifest, err = man.Encode(); err != nil {
		f.Fatal(err)
	}
	b := &Record{ID: "b", Status: StatusFailed, Attempts: 3, Sessions: 1, FailedSessions: 1, Seed: 4,
		Failure: &Failure{Msg: "boom", Invariant: "runqueue", At: "1ms"}}
	man.Entries["b"] = b
	if err := cp.Commit(man, b); err != nil {
		f.Fatal(err)
	}
	return manifest, mfs[WALPath(path)]
}

// FuzzManifestRecovery feeds arbitrary manifest and journal bytes to the
// recovery read path. Whatever is on disk, recovery must not panic, and it
// must return one of three things: fs.ErrNotExist, a *durable.CorruptError,
// or a manifest whose encoding survives a decode and re-encode byte for
// byte.
func FuzzManifestRecovery(f *testing.F) {
	manifest, journal := fuzzSeedStore(f)
	f.Add(manifest, []byte(nil))
	f.Add([]byte(nil), journal)
	f.Add(manifest, journal)
	f.Add([]byte(`{"version":1,"ids":["a"],"entries":{"a":null}}`), []byte(nil))

	f.Fuzz(func(t *testing.T, manifest, journal []byte) {
		const path = "m.json"
		mfs := mapFS{}
		if manifest != nil {
			mfs[path] = manifest
		}
		if journal != nil {
			mfs[WALPath(path)] = journal
		}
		Inspect(mfs, path)
		man, err := Committed(mfs, path)
		if err != nil {
			var ce *durable.CorruptError
			if !errors.Is(err, fs.ErrNotExist) && !errors.As(err, &ce) {
				t.Fatalf("recovery returned %T %v; want fs.ErrNotExist or *durable.CorruptError", err, err)
			}
			return
		}
		first, err := man.Encode()
		if err != nil {
			t.Fatalf("encode recovered manifest: %v", err)
		}
		back, err := decodeManifest(path, first)
		if err != nil {
			t.Fatalf("recovered manifest does not decode after encoding: %v\n%s", err, first)
		}
		second, err := back.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable across decode:\nfirst:\n%s\nsecond:\n%s", first, second)
		}
	})
}
