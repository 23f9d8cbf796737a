package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
)

// memFS is a map-backed durable.FS with just the methods the sidecar load
// and its quarantine use (Stat reports existence only); any other method
// panics on the nil embedded FS.
type memFS struct {
	durable.FS
	files map[string][]byte
}

func (m memFS) ReadFile(path string) ([]byte, error) {
	b, ok := m.files[path]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: path, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), b...), nil
}

func (m memFS) Stat(path string) (os.FileInfo, error) {
	if _, ok := m.files[path]; !ok {
		return nil, &fs.PathError{Op: "stat", Path: path, Err: fs.ErrNotExist}
	}
	return nil, nil
}

func (m memFS) Rename(oldpath, newpath string) error {
	b, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	m.files[newpath] = b
	delete(m.files, oldpath)
	return nil
}

func (m memFS) SyncDir(string) error { return nil }

// haltedSidecar runs a two-shard cluster campaign until the first shard
// has committed and the second has banked a partial while its last entry
// wedges, cancels it into a resumable halt, and returns the plan, its
// config and the sidecar the halt left on disk.
func haltedSidecar(tb testing.TB) ([]string, Config, []byte) {
	tb.Helper()
	ids := []string{"exp00", "exp01", "exp02", "slow-exp03"}
	gate := make(chan struct{})
	defer close(gate) // let the wedged entry finish so the worker drains
	cfg := testConfig(tb, []string{newWorker(tb, gate, 0).URL}, 13)
	cfg.ShardSize = 2
	co, err := New(cfg, ids)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(ctx)
		done <- err
	}()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		co.mu.Lock()
		banked := co.nextCommit == 1 && co.shards[1].partial != nil
		co.mu.Unlock()
		if banked {
			break
		}
		if time.Now().After(deadline) {
			tb.Fatal("the second shard never banked a partial")
		}
	}
	cancel()
	if err := <-done; !errors.Is(err, ErrHalted) {
		tb.Fatalf("cancelled run returned %v, want ErrHalted", err)
	}
	data, err := os.ReadFile(cfg.Path + ".cluster")
	if err != nil {
		tb.Fatal(err)
	}
	return ids, cfg, data
}

// FuzzClusterSidecar feeds arbitrary sidecar bytes to the Resume-time
// sidecar load, on a coordinator whose first shard is committed. The load
// must not panic and must return nil or one of its seed/note/shard-size
// refusals. An unparseable or wrong-version sidecar is quarantined, a
// readable one stays in place, and only an uncommitted shard whose index
// and IDs the sidecar names may take a partial, of this run's seed and
// note.
func FuzzClusterSidecar(f *testing.F) {
	ids, cfg, real := haltedSidecar(f)
	cfg.Path = filepath.Join("state", "merged.json")
	cfg.ClusterPath = ""
	f.Add(real)
	for _, n := range []int{0, 1, len(real) / 2, len(real) - 2} {
		f.Add(real[:n])
	}
	f.Add(bytes.Replace(real, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add(bytes.Replace(real, []byte(`"seed": 13`), []byte(`"seed": 14`), 1))

	load := func(tb testing.TB, data []byte) (*Coordinator, memFS, error) {
		mfs := memFS{files: map[string][]byte{}}
		c := cfg
		c.FS = mfs
		co, err := New(c, ids)
		if err != nil {
			tb.Fatal(err)
		}
		co.shards[0].state = shardCommitted // as Resume finds it
		co.nextCommit = 1
		mfs.files[co.cfg.ClusterPath] = append([]byte(nil), data...)
		return co, mfs, co.loadClusterCheckpoint()
	}
	if co, _, err := load(f, real); err != nil || co.shards[1].partial == nil {
		f.Fatalf("the halted run's own sidecar must restore its partial (err %v)", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		co, mfs, err := load(t, data)
		if err != nil && !strings.Contains(err.Error(), "was recorded with seed") &&
			!strings.Contains(err.Error(), "was recorded under config") &&
			!strings.Contains(err.Error(), "was recorded with shard size") {
			t.Fatalf("unexpected error: %v", err)
		}
		path := co.cfg.ClusterPath
		var ck clusterCheckpoint
		corrupt := json.Unmarshal(data, &ck) != nil || ck.Version != clusterCheckpointVersion
		if kept, ok := mfs.files[path]; corrupt {
			if ok || err != nil {
				t.Fatalf("corrupt sidecar: still in place %t, err %v; want quarantined and nil", ok, err)
			}
			if q := mfs.files[path+durable.QuarantineSuffix]; !bytes.Equal(q, data) {
				t.Fatal("quarantine did not preserve the sidecar's bytes")
			}
		} else if !ok || !bytes.Equal(kept, data) {
			t.Fatal("a readable sidecar must stay in place, unchanged")
		}
		for i, sh := range co.shards {
			if sh.partial == nil {
				continue
			}
			named := false
			for _, sc := range ck.Shards {
				named = named || (sc.Index == i && sc.Partial != nil && sameIDs(sh.ids, sc.IDs))
			}
			switch {
			case corrupt || err != nil:
				t.Fatalf("shard %d took a partial from a sidecar that was not loaded", i)
			case sh.state == shardCommitted:
				t.Fatalf("committed shard %d took a partial", i)
			case !named:
				t.Fatalf("shard %d took a partial the sidecar does not name for its IDs", i)
			case sh.partial.Seed != cfg.Spec.Seed || sh.partial.Note != cfg.Note:
				t.Fatalf("shard %d took a foreign partial (seed %d, note %q)", i, sh.partial.Seed, sh.partial.Note)
			}
		}
	})
}
