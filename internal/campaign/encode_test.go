package campaign

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/kern"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// invariantRecord is a failed record as classify builds it from a kernel
// invariant violation carrying a full machine dump ("<idle>" cores,
// thread tables, newlines).
func invariantRecord(t testing.TB) *Record {
	t.Helper()
	sp := sched.DefaultParams(2)
	m := kern.NewMachine(kern.DefaultParams(2, func() sched.Scheduler { return cfs.New(sp) }))
	defer m.Shutdown()
	m.Spawn("victim", func(e *kern.Env) {
		for {
			e.Burn(100 * timebase.Microsecond)
		}
	}, kern.WithPin(0))
	m.Spawn("attacker", func(e *kern.Env) {
		e.Nanosleep(30 * timebase.Microsecond)
	}, kern.WithPin(0))
	m.RunFor(timebase.Millisecond)
	inv := &kern.InvariantError{Name: "runqueue-accounting", At: m.Now(),
		Detail: "core 0 claims 2 runnable, found 1", Dump: m.DumpState()}
	if !strings.Contains(inv.Dump, "<idle>") || !strings.Contains(inv.Dump, "\n") {
		t.Fatalf("dump lacks the characters it is meant to exercise:\n%s", inv.Dump)
	}
	return buildRecord("fig4.1", 9, &Record{Sessions: 1, FailedSessions: 1},
		Attempt{Attempts: 3, Err: fmt.Errorf("experiment died: %w", inv)})
}

// microRecord is a record shaped like a micro-benchmark entry's: "ok"
// rendered, a few telemetry counts whose names carry quoted labels.
func microRecord(i int) *Record {
	return &Record{ID: "micro@" + strconv.Itoa(i), Status: StatusOK, Attempts: 1, Sessions: 1,
		Seed: uint64(i) + 1, Rendered: "ok", Telemetry: map[string]int64{
			`cfs_wake_place_total{placement="kept"}`: 2,
			`kern_events_total{kind="tick"}`:         int64(5 + i%3),
			"kern_sched_in_total":                    1,
			"kern_spawn_total":                       2,
		}}
}

// microManifest is a plan of n micro entries, every one recorded.
func microManifest(n int) *Manifest {
	m := &Manifest{Version: ManifestVersion, Seed: 1, Note: "perfbench campaign-durable",
		IDs: make([]string, n), Entries: make(map[string]*Record, n)}
	for i := range n {
		rec := microRecord(i)
		m.IDs[i], m.Entries[rec.ID] = rec.ID, rec
	}
	return m
}

// TestEncoderMatchesJSON holds the encoder to encoding/json's bytes on the
// shapes checkpoints carry: a failed record with a full invariant dump,
// non-ASCII rendered text, every string escape, floats on both sides of
// the 'e'-format thresholds, empty fields omitempty drops, nil against
// empty maps and slices, and NaN/±Inf, which both must refuse.
func TestEncoderMatchesJSON(t *testing.T) {
	inv := invariantRecord(t)
	text := &Record{ID: "fig4.1", Status: StatusOK, Attempts: 1, Sessions: 1, Seed: 1,
		Rendered: "Figure 4.1 — Δ 12.000→3.989 ms (≈ 3.0× shorter), 91% ≥ target\n  naïve ✓\n",
		Metrics:  map[string]float64{"delta_ms": 3.989, "ratio": 3.0083, "Δ": 1}}
	escapes := &Record{ID: "<script>&amp;</script>", Status: "\"quoted\" \\ back",
		Rendered: "\b\f\n\r\t\x00\x01\x1f\x7f <>& \xff\xfe\xc3 \u2028 \u2029 \ufffd end",
		Metrics:  map[string]float64{"z": 1, "a\x00": 2, "é": 3, "A": 4, "<": 5}}
	floats := &Record{ID: "floats", Status: StatusOK, Metrics: map[string]float64{}}
	for i, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7,
		-1e-7, 1.5e-9, 1e-10, 1e-100, 5e-324, 1e20, 1e21 - 65536, 1e21, -1e21, 123456789e15, 1e100,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 12345.678, 2.5e-8} {
		floats.Metrics[fmt.Sprintf("f%02d", i)] = f
	}
	empty := &Record{ID: "bare", Status: StatusSkipped, Metrics: map[string]float64{},
		Telemetry: map[string]int64{}, Failure: &Failure{}}
	cases := []struct {
		name string
		rec  *Record
	}{
		{"invariant failure", inv},
		{"non-ASCII text", text},
		{"escapes", escapes},
		{"floats", floats},
		{"empty fields", empty},
		{"micro", microRecord(7)},
		{"nil record", nil},
	}
	var e encoder // one encoder throughout: reuse must not leak state
	for _, tc := range cases {
		entries := map[string]*Record{"nil": nil, "micro": microRecord(1)}
		ids := []string{"micro", "nil"}
		if tc.rec != nil {
			entries[tc.rec.ID] = tc.rec
			ids = append(ids, tc.rec.ID)
		}
		checkAll(t, tc.name, &e, tc.rec, &Manifest{Version: ManifestVersion, Seed: 3, Note: "n <1>", IDs: ids, Entries: entries})
	}
	for _, m := range []*Manifest{
		{Version: ManifestVersion},
		{Version: ManifestVersion, IDs: []string{}, Entries: map[string]*Record{}},
		{Version: 2, Seed: math.MaxUint64, Note: "x", IDs: []string{""}, Entries: map[string]*Record{"": nil}, Sum: "crc32c:stale"},
		microManifest(3),
	} {
		checkAll(t, fmt.Sprintf("manifest %+v", *m), &e, microRecord(0), m)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := &Record{ID: "bad", Metrics: map[string]float64{"a": 1, "b": bad}}
		checkAll(t, fmt.Sprint("unsupported ", bad), &e, rec,
			&Manifest{Version: ManifestVersion, IDs: []string{"bad"}, Entries: map[string]*Record{"bad": rec}})
	}
}

// nullFS discards appends, so the journal write path runs without disk
// I/O or a growing file buffer.
type nullFS struct{ mapFS }

func (nullFS) Append(string, []byte, os.FileMode) error { return nil }

// TestCheckpointerWriteAllocs bounds the journal's per-record cost: once
// its buffers have grown, encoding a record and framing its journal line
// allocate nothing.
func TestCheckpointerWriteAllocs(t *testing.T) {
	fsys := nullFS{mapFS{}}
	cp, err := NewCheckpointer(fsys, "m.json", microManifest(0), true)
	if err != nil {
		t.Fatal(err)
	}
	rec := microRecord(3)
	rec.Metrics = map[string]float64{"rate": 0.25, "tiny": 1e-7}
	if err := cp.Write(rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := cp.Write(rec); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("Checkpointer.Write allocates %.1f times per record, want 0", n)
	}
}

// TestCheckpointerWriteRefusesNaN: a record json cannot encode fails the
// write with json's error and leaves the journal untouched.
func TestCheckpointerWriteRefusesNaN(t *testing.T) {
	fsys := mapFS{}
	cp, err := NewCheckpointer(fsys, "m.json", microManifest(0), true)
	if err != nil {
		t.Fatal(err)
	}
	before := string(fsys[WALPath("m.json")])
	err = cp.Write(&Record{ID: "x", Metrics: map[string]float64{"m": math.NaN()}})
	if err == nil || err.Error() != "json: unsupported value: NaN" {
		t.Fatalf("Write(NaN) = %v, want json's unsupported-value error", err)
	}
	if got := string(fsys[WALPath("m.json")]); got != before {
		t.Fatalf("a refused record reached the journal:\n%s", got)
	}
}

// benchStore builds a halted micro-shaped store in memory — the shape a
// 1000-entry micro campaign halted at 500 leaves: a compacted manifest
// plus its journal, n entries planned and half of them recorded.
func benchStore(b *testing.B, n int) (mapFS, []Entry) {
	b.Helper()
	fsys := mapFS{}
	plan := make([]Entry, n)
	for i := range plan {
		plan[i] = Entry{ID: "micro@" + strconv.Itoa(i), Run: func(uint64) Attempt {
			rec := microRecord(i)
			return Attempt{Attempts: 1, Rendered: rec.Rendered, Telemetry: rec.Telemetry}
		}}
	}
	c, err := New(Config{Path: "m.json", Seed: 1, Note: "bench", HaltAfter: n / 2, FS: fsys}, plan)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Run(); err != ErrHalted {
		b.Fatalf("halting session: %v", err)
	}
	return fsys, plan
}

// BenchmarkCompact measures the compaction that ends a session: sealing
// and encoding a 1000-entry micro-shaped manifest and writing it through
// the atomic protocol, on an in-memory filesystem so that the row is the
// encoding's CPU cost, not the disk's fsync latency.
func BenchmarkCompact(b *testing.B) {
	cp := &Checkpointer{fs: mapFS{}, path: "m.json"}
	m := microManifest(1000)
	b.ReportAllocs()
	for b.Loop() {
		if err := cp.Compact(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResume measures reopening a halted 1000-entry micro-shaped
// store (in memory) and opening its checkpoint for appends: the manifest
// decoded and verified, the journal read and folded over it, and the
// store opened on the result — everything a resumed session does before
// its first entry runs. Opening leaves the store as the halt left it, so
// every iteration reopens the same store.
func BenchmarkResume(b *testing.B) {
	fsys, plan := benchStore(b, 1000)
	cfg := Config{Path: "m.json", Seed: 1, Note: "bench", FS: fsys}
	b.ReportAllocs()
	for b.Loop() {
		c, err := Resume(cfg, plan)
		if err != nil {
			b.Fatal(err)
		}
		if c.cp, err = openCheckpointer(fsys, cfg.Path, c.man, false, c.covered); err != nil {
			b.Fatal(err)
		}
	}
}
