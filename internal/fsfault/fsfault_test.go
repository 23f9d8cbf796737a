package fsfault

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/durable"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"full", Config{Seed: 1, ErrRate: 0.5, LieFsync: 0.5, CrashAfter: 3}, true},
		{"err rate high", Config{ErrRate: 1.5}, false},
		{"err rate neg", Config{ErrRate: -0.1}, false},
		{"lie high", Config{LieFsync: 2}, false},
		{"crash neg", Config{CrashAfter: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestPassThroughWhenQuiet(t *testing.T) {
	dir := t.TempDir()
	in := MustNew(Config{Seed: 1})
	p := filepath.Join(dir, "f")
	if err := durable.WriteFileAtomic(in, p, []byte("hello"), 0o644); err != nil {
		t.Fatalf("quiet injector broke a write: %v", err)
	}
	got, err := in.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("read back: %q, %v", got, err)
	}
	if in.Steps() != 4 { // write tmp, fsync tmp, rename, fsyncdir
		t.Fatalf("Steps() = %d, want 4", in.Steps())
	}
}

func TestInjectedErrorsAreDiskErrs(t *testing.T) {
	dir := t.TempDir()
	in := MustNew(Config{Seed: 7, ErrRate: 1})
	err := in.WriteFile(filepath.Join(dir, "f"), []byte("x"), 0o644)
	if err == nil {
		t.Fatal("ErrRate=1 did not inject")
	}
	if !durable.DiskErr(err) {
		t.Fatalf("injected error %v not matched by durable.DiskErr", err)
	}
	if errors.Is(err, ErrCrash) {
		t.Fatalf("disk error misreported as crash: %v", err)
	}
}

func TestCrashAfterStopsEverything(t *testing.T) {
	dir := t.TempDir()
	in := MustNew(Config{Seed: 1, CrashAfter: 2})
	p := filepath.Join(dir, "f")
	if err := in.WriteFile(p, []byte("one"), 0o644); err != nil {
		t.Fatalf("step 1 should run: %v", err)
	}
	if err := in.Sync(p); !errors.Is(err, ErrCrash) {
		t.Fatalf("step 2 should crash, got %v", err)
	}
	if !in.Crashed() {
		t.Fatal("Crashed() false after crash")
	}
	if _, err := in.ReadFile(p); !errors.Is(err, ErrCrash) {
		t.Fatalf("reads should fail after crash, got %v", err)
	}
	if err := in.WriteFile(p, []byte("two"), 0o644); !errors.Is(err, ErrCrash) {
		t.Fatalf("writes should fail after crash, got %v", err)
	}
}

// TestCrashNeverTearsSyncedData is the core property: data that went
// through the full durable protocol (fsync + rename + dirsync) survives a
// crash at any later step bit-for-bit.
func TestCrashNeverTearsSyncedData(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "f")
		// 4 durable ops commit gen0; crash during the gen1 write (steps 5-8).
		for crash := 5; crash <= 8; crash++ {
			in := MustNew(Config{Seed: seed, CrashAfter: crash})
			if err := durable.WriteFileAtomic(in, p, []byte("gen0"), 0o644); err != nil {
				t.Fatalf("seed %d: committed write failed: %v", seed, err)
			}
			err := durable.WriteFileAtomic(in, p, []byte("gen1"), 0o644)
			if !errors.Is(err, ErrCrash) {
				t.Fatalf("seed %d crash %d: want ErrCrash, got %v", seed, crash, err)
			}
			got, rerr := os.ReadFile(p)
			if rerr != nil {
				t.Fatalf("seed %d crash %d: committed file gone: %v", seed, crash, rerr)
			}
			if string(got) != "gen0" && string(got) != "gen1" {
				t.Fatalf("seed %d crash %d: torn committed file: %q", seed, crash, got)
			}
			// Reset for next crash point: restore gen0 directly on disk.
			if err := os.WriteFile(p, []byte("gen0"), 0o644); err != nil {
				t.Fatal(err)
			}
			os.Remove(p + durable.TmpSuffix)
		}
	}
}

// TestCrashKeepsSyncedAppendPrefix: an append-only file (a journal) keeps
// every byte its last honest fsync persisted through any crash; only the
// unsynced tail is lost — rolled back, torn or flipped — and across seeds
// each of those happens.
func TestCrashKeepsSyncedAppendPrefix(t *testing.T) {
	const synced, tail = "line one\nline two\n", "line three, in flight\n"
	var rolledBack, torn, flipped bool
	for seed := uint64(1); seed <= 60; seed++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "journal")
		in := MustNew(Config{Seed: seed, CrashAfter: 6})
		for _, line := range []string{"line one\n", "line two\n"} {
			if err := in.Append(p, []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := in.Sync(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := in.Append(p, []byte(tail), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := in.Sync(p); !errors.Is(err, ErrCrash) { // step 6: the crash
			t.Fatalf("seed %d: want the crash, got %v", seed, err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("seed %d: synced journal gone: %v", seed, err)
		}
		if !bytes.HasPrefix(got, []byte(synced)) {
			t.Fatalf("seed %d: crash damaged the synced prefix: %q", seed, got)
		}
		switch rest := got[len(synced):]; {
		case len(rest) == 0:
			rolledBack = true
		case len(rest) < len(tail) && bytes.HasPrefix([]byte(tail), rest):
			torn = true
		case len(rest) == len(tail) && string(rest) != tail:
			flipped = true
		case string(rest) != tail:
			t.Fatalf("seed %d: tail neither intact, torn nor flipped: %q", seed, rest)
		}
	}
	if !rolledBack || !torn || !flipped {
		t.Fatalf("60 seeds: rolled back %t, torn %t, flipped %t — the unsynced tail must see each", rolledBack, torn, flipped)
	}
}

// TestCrashCanLoseUnsyncedData: without a real fsync, a bare write must
// sometimes be lost or torn — otherwise the injector isn't modelling
// anything.
func TestCrashCanLoseUnsyncedData(t *testing.T) {
	lost := false
	for seed := uint64(1); seed <= 50 && !lost; seed++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "f")
		if err := os.WriteFile(p, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := MustNew(Config{Seed: seed, CrashAfter: 2})
		if err := in.WriteFile(p, []byte("newnewnew"), 0o644); err != nil {
			t.Fatal(err)
		}
		// Crash on the next op, before any fsync.
		in.Sync(p)
		got, err := os.ReadFile(p)
		if err != nil || string(got) != "newnewnew" {
			lost = true
		}
	}
	if !lost {
		t.Fatal("50 seeds and an unsynced write always survived intact — crash model inert")
	}
}

// TestCrashCanDropUnsyncedRename: a rename not pinned by SyncDir must
// sometimes be rolled back.
func TestCrashCanDropUnsyncedRename(t *testing.T) {
	dropped := false
	for seed := uint64(1); seed <= 50 && !dropped; seed++ {
		dir := t.TempDir()
		tmp := filepath.Join(dir, "f.tmp")
		p := filepath.Join(dir, "f")
		if err := os.WriteFile(tmp, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
		in := MustNew(Config{Seed: seed, CrashAfter: 3})
		if err := in.Sync(tmp); err != nil {
			t.Fatal(err)
		}
		if err := in.Rename(tmp, p); err != nil {
			t.Fatal(err)
		}
		in.SyncDir(dir) // crashes here, before the dir entry persists
		if _, err := os.Stat(p); err != nil {
			if _, terr := os.Stat(tmp); terr != nil {
				t.Fatalf("seed %d: both names gone after dropped rename", seed)
			}
			dropped = true
		}
	}
	if !dropped {
		t.Fatal("50 seeds and an unsynced rename always persisted — crash model inert")
	}
}

func TestLieFsyncKeepsDataVulnerable(t *testing.T) {
	lost := false
	for seed := uint64(1); seed <= 80 && !lost; seed++ {
		dir := t.TempDir()
		p := filepath.Join(dir, "f")
		in := MustNew(Config{Seed: seed, LieFsync: 1, CrashAfter: 3})
		if err := in.WriteFile(p, []byte("data"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := in.Sync(p); err != nil {
			t.Fatalf("lying fsync must report success: %v", err)
		}
		in.WriteFile(filepath.Join(dir, "g"), []byte("x"), 0o644) // crash
		got, err := os.ReadFile(p)
		if err != nil || !bytes.Equal(got, []byte("data")) {
			lost = true
		}
	}
	if !lost {
		t.Fatal("80 seeds of lying fsync and the file always survived — lie inert")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (string, []byte) {
		dir := t.TempDir()
		in := MustNew(Config{Seed: 42, ErrRate: 0.3, CrashAfter: 9})
		var trace bytes.Buffer
		for i := 0; i < 12; i++ {
			p := filepath.Join(dir, fmt.Sprintf("f%d", i%3))
			err := durable.WriteFileAtomic(in, p, []byte(fmt.Sprintf("gen%d", i)), 0o644)
			fmt.Fprintf(&trace, "%d:%v\n", i, err != nil)
			if errors.Is(err, ErrCrash) {
				break
			}
		}
		surviving, _ := os.ReadFile(filepath.Join(dir, "f0"))
		return trace.String(), surviving
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || !bytes.Equal(s1, s2) {
		t.Fatalf("same seed diverged:\n%q %q\nvs\n%q %q", t1, s1, t2, s2)
	}
}
