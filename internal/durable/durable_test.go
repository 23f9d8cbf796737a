package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json")
	for i := 0; i < 3; i++ {
		want := []byte(fmt.Sprintf("gen %d\n", i))
		if err := WriteFileAtomic(OS(), p, want, 0o644); err != nil {
			t.Fatalf("WriteFileAtomic: %v", err)
		}
		got, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip: got %q want %q", got, want)
		}
		if _, err := os.Stat(p + TmpSuffix); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("tmp file left behind after success: %v", err)
		}
	}
}

// failFS wraps OS() and fails chosen operations, for error-path litter
// checks.
type failFS struct {
	FS
	failRename bool
	failSync   bool
}

func (f *failFS) Rename(o, n string) error {
	if f.failRename {
		return fmt.Errorf("rename %s: %w", o, syscall.EIO)
	}
	return f.FS.Rename(o, n)
}

func (f *failFS) Sync(p string) error {
	if f.failSync {
		return fmt.Errorf("sync %s: %w", p, syscall.EIO)
	}
	return f.FS.Sync(p)
}

func TestWriteFileAtomicNoTmpLitterOnFailure(t *testing.T) {
	for _, mode := range []string{"rename", "sync"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			p := filepath.Join(dir, "m.json")
			ff := &failFS{FS: OS(), failRename: mode == "rename", failSync: mode == "sync"}
			err := WriteFileAtomic(ff, p, []byte("data"), 0o644)
			if err == nil {
				t.Fatal("expected failure")
			}
			if !DiskErr(err) {
				t.Fatalf("expected a disk error, got %v", err)
			}
			if _, err := os.Stat(p + TmpSuffix); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("tmp file leaked on %s failure", mode)
			}
		})
	}
}

func TestQuarantineNumbersCollisions(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "m.json")
	var got []string
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(p, []byte(fmt.Sprintf("bad %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		dst, err := Quarantine(OS(), p)
		if err != nil {
			t.Fatalf("quarantine %d: %v", i, err)
		}
		got = append(got, filepath.Base(dst))
	}
	want := []string{"m.json.quarantined", "m.json.quarantined.1", "m.json.quarantined.2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quarantine names: got %v want %v", got, want)
		}
	}
	for i := range want {
		b, err := os.ReadFile(filepath.Join(dir, want[i]))
		if err != nil || string(b) != fmt.Sprintf("bad %d", i) {
			t.Fatalf("quarantined bytes lost: %q %v", b, err)
		}
	}
}

func TestSweepTmp(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "m.json")
	litter1 := filepath.Join(dir, "m.json.tmp")
	litter2 := filepath.Join(dir, "state.json.tmp")
	for _, p := range []string{keep, litter1, litter2} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	removed, err := SweepTmp(OS(), dir)
	if err != nil {
		t.Fatalf("SweepTmp: %v", err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %v, want the two tmp files", removed)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("swept a non-tmp file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub.tmp")); err != nil {
		t.Fatalf("swept a directory: %v", err)
	}
	for _, p := range []string{litter1, litter2} {
		if _, err := os.Stat(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s not swept", p)
		}
	}
	if _, err := SweepTmp(OS(), filepath.Join(dir, "nope")); err != nil {
		t.Fatalf("missing dir should not error: %v", err)
	}
}

func TestLogAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := NewLog(OS(), filepath.Join(dir, "m.json.wal"))
	if err := l.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	want := [][]byte{[]byte(`{"id":"a"}`), []byte(`{"id":"b"}`), []byte("plain text payload")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	d, err := ReadLog(OS(), l.Path())
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if d.Torn {
		t.Fatalf("unexpected torn: %+v", d)
	}
	if len(d.Payloads) != len(want) {
		t.Fatalf("got %d payloads want %d", len(d.Payloads), len(want))
	}
	for i := range want {
		if !bytes.Equal(d.Payloads[i], want[i]) {
			t.Fatalf("payload %d: got %q want %q", i, d.Payloads[i], want[i])
		}
	}
}

func TestLogRejectsNewlinePayload(t *testing.T) {
	l := NewLog(OS(), filepath.Join(t.TempDir(), "w"))
	if err := l.Append([]byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted")
	}
	if err := l.Reset([]byte("a\nb")); err == nil {
		t.Fatal("newline payload accepted by Reset")
	}
}

func TestLogTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w")
	l := NewLog(OS(), path)
	payloads := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	if err := l.Reset(payloads...); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncating at every possible offset must never lose a committed line
	// other than the one the cut lands in, and must never error.
	lineStart := func(off int) int {
		n := 0
		for i := 0; i < off; i++ {
			if full[i] == '\n' {
				n++
			}
		}
		return n
	}
	for off := 0; off <= len(full); off++ {
		if err := os.WriteFile(path, full[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadLog(OS(), path)
		if err != nil {
			t.Fatalf("off %d: ReadLog error: %v", off, err)
		}
		wantN := lineStart(off)
		if len(d.Payloads) != wantN {
			t.Fatalf("off %d: got %d payloads want %d", off, len(d.Payloads), wantN)
		}
		// A cut exactly on a line boundary leaves a valid shorter journal.
		atBoundary := off == 0 || full[off-1] == '\n'
		if wantTorn := !atBoundary; d.Torn != wantTorn {
			t.Fatalf("off %d: torn=%v want %v", off, d.Torn, wantTorn)
		}
		if d.TornTail != d.Torn {
			t.Fatalf("off %d: a cut is a torn tail, got torn=%v tail=%v", off, d.Torn, d.TornTail)
		}
	}
	// Flipping any single byte must cost at most the line it lands in.
	for off := 0; off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := ReadLog(OS(), path)
		if err != nil {
			t.Fatalf("flip %d: ReadLog error: %v", off, err)
		}
		if !d.Torn {
			t.Fatalf("flip %d: corruption not detected", off)
		}
		hitLine := lineStart(off)
		if full[off] == '\n' {
			// Flipping a newline merges two lines; the damage starts at the
			// merged line.
			hitLine = lineStart(off)
		}
		if len(d.Payloads) < hitLine || len(d.Payloads) > hitLine {
			t.Fatalf("flip %d: got %d payloads, want exactly the %d before the hit line", off, len(d.Payloads), hitLine)
		}
		// Only damage with no line after it is a tail; a flipped newline
		// merges its line with the next.
		lastHit := hitLine
		if full[off] == '\n' {
			lastHit++
		}
		if wantTail := lastHit >= len(payloads)-1; d.TornTail != wantTail {
			t.Fatalf("flip %d: tail=%v want %v", off, d.TornTail, wantTail)
		}
	}
}

func TestReadLogMissing(t *testing.T) {
	_, err := ReadLog(OS(), filepath.Join(t.TempDir(), "absent"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
}

func TestDiskErr(t *testing.T) {
	for _, e := range []error{syscall.ENOSPC, syscall.EIO, syscall.EDQUOT, syscall.EROFS} {
		if !DiskErr(fmt.Errorf("wrap: %w", e)) {
			t.Fatalf("%v not recognised as a disk error", e)
		}
	}
	if DiskErr(errors.New("logic bug")) || DiskErr(nil) {
		t.Fatal("non-disk errors misclassified")
	}
}

func TestCorruptError(t *testing.T) {
	base := errors.New("bad json")
	e := &CorruptError{Path: "m.json", Reason: "checksum mismatch", Quarantined: "m.json.quarantined", Err: base}
	if !errors.Is(e, base) {
		t.Fatal("Unwrap broken")
	}
	msg := e.Error()
	for _, want := range []string{"m.json", "checksum mismatch", "quarantined"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

// syncCountFS wraps OS() and counts file and directory fsyncs.
type syncCountFS struct {
	FS
	files, dirs int
}

func (f *syncCountFS) Sync(p string) error    { f.files++; return f.FS.Sync(p) }
func (f *syncCountFS) SyncDir(p string) error { f.dirs++; return f.FS.SyncDir(p) }

// TestLogWritesShareOneSync: lines written since the last Sync are
// committed by one fsync (plus the directory's, when a write created the
// file); a Sync with nothing written does nothing.
func TestLogWritesShareOneSync(t *testing.T) {
	f := &syncCountFS{FS: OS()}
	l := NewLog(f, filepath.Join(t.TempDir(), "m.json.wal"))
	for _, p := range []string{"a", "b", "c"} {
		if err := l.Write([]byte(p)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if f.files != 0 || f.dirs != 0 {
		t.Fatalf("Write fsynced (%d files, %d dirs)", f.files, f.dirs)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if f.files != 1 || f.dirs != 1 {
		t.Fatalf("first Sync: %d file and %d dir fsyncs, want 1 and 1 (the writes created the file)", f.files, f.dirs)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Append([]byte("d")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if f.files != 2 || f.dirs != 1 {
		t.Fatalf("after an idle Sync and an Append: %d file and %d dir fsyncs, want 2 and 1", f.files, f.dirs)
	}
	d, err := ReadLog(OS(), l.Path())
	if err != nil || d.Torn || len(d.Payloads) != 4 {
		t.Fatalf("ReadLog: %+v, %v; want 4 valid payloads", d, err)
	}
}
