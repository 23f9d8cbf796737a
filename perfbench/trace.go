package main

// trace.go is the traced run's instrumentation, all of it outside the
// program: spans the benchmark opens around its own calls into each
// layer, a timing durable.FS handed to the layers that accept one, and a
// timing http.RoundTripper handed to the fabric coordinator. Spans stay in
// memory and are written at the end in the internal/obs JSONL format, so
// `cplab timeline` renders them in Perfetto unchanged.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
)

// benchProc names the benchmark's own process track in the span log;
// in-process labd workers get tracks of their own (workerProc).
const benchProc = "perfbench"

func workerProc(i int) string { return "labd-" + strconv.Itoa(i) }

// spanRec is one finished span.
type spanRec struct {
	id, parent uint64
	proc, name string
	layer      string
	start, end int64
}

// tracer collects spans in memory. A nil *tracer records nothing, so the
// untraced run calls the same code with no span cost beyond a nil check.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{} }

// span is an open span; the zero span (from a nil tracer) is inert.
type span struct {
	t      *tracer
	id     uint64
	parent uint64
	proc   string
	name   string
	layer  string
	start  int64
}

// open starts a span on the benchmark's own track.
func (t *tracer) open(parent uint64, name, layer string) span {
	return t.openProc(benchProc, parent, name, layer)
}

// openProc starts a span on the named process track.
func (t *tracer) openProc(proc string, parent uint64, name, layer string) span {
	if t == nil {
		return span{}
	}
	return span{t: t, id: t.next.Add(1), parent: parent, proc: proc, name: name, layer: layer, start: time.Now().UnixNano()}
}

// close finishes the span.
func (s span) close() {
	if s.t == nil {
		return
	}
	s.t.record(spanRec{id: s.id, parent: s.parent, proc: s.proc, name: s.name, layer: s.layer,
		start: s.start, end: time.Now().UnixNano()})
}

// add records an already-timed span.
func (t *tracer) add(proc string, parent uint64, name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	t.record(spanRec{id: t.next.Add(1), parent: parent, proc: proc, name: name, layer: layer,
		start: start.UnixNano(), end: end.UnixNano()})
}

func (t *tracer) record(r spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []spanRec) map[string]time.Duration {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		covered := coveredWithin(kids[s.id], s.start, s.end)
		out[s.layer] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// coveredWithin returns the length of the union of ivs clipped to [lo, hi].
func coveredWithin(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes the spans as an internal/obs JSONL span log: one
// process-header span per track, then every span in start order.
func writeSpans(path, trace string, spans []spanRec) error {
	sorted := append([]spanRec(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	seen := map[string]bool{}
	for _, s := range sorted {
		if !seen[s.proc] {
			seen[s.proc] = true
			hdr := obs.Span{Trace: trace, Proc: s.proc, Name: s.proc, Tier: obs.TierProcess, Start: s.start, End: s.start}
			if err := enc.Encode(&hdr); err != nil {
				return err
			}
		}
		rec := obs.Span{Trace: trace, ID: s.id, Parent: s.parent, Proc: s.proc, Name: s.name,
			Tier: s.layer, Start: s.start, End: s.end}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timingFS wraps a durable.FS, counting fsyncs and written bytes and
// timing writes and syncs. Spans go to the tracer installed with attach;
// with none attached it only passes calls through.
type timingFS struct {
	durable.FS
	proc string
	cur  atomic.Pointer[fsTrace]
}

// fsTrace is the accounting of one traced phase.
type fsTrace struct {
	t      *tracer
	parent uint64
	fsyncs atomic.Int64
	bytes  atomic.Int64
	syncNS atomic.Int64
	writNS atomic.Int64
}

func newTimingFS(inner durable.FS, proc string) *timingFS {
	return &timingFS{FS: inner, proc: proc}
}

// attach starts accounting into a fresh fsTrace whose spans parent under
// parent; detach stops it and returns the totals.
func (f *timingFS) attach(t *tracer, parent uint64) *fsTrace {
	ft := &fsTrace{t: t, parent: parent}
	f.cur.Store(ft)
	return ft
}

func (f *timingFS) detach() { f.cur.Store(nil) }

func (f *timingFS) timed(name string, isSync bool, n int, op func() error) error {
	ft := f.cur.Load()
	if ft == nil {
		return op()
	}
	start := time.Now()
	err := op()
	end := time.Now()
	ft.t.add(f.proc, ft.parent, name, "durable", start, end)
	if isSync {
		ft.fsyncs.Add(1)
		ft.syncNS.Add(int64(end.Sub(start)))
	} else {
		ft.bytes.Add(int64(n))
		ft.writNS.Add(int64(end.Sub(start)))
	}
	return err
}

func (f *timingFS) WriteFile(path string, data []byte, perm os.FileMode) error {
	return f.timed("write", false, len(data), func() error { return f.FS.WriteFile(path, data, perm) })
}

func (f *timingFS) Append(path string, data []byte, perm os.FileMode) error {
	return f.timed("append", false, len(data), func() error { return f.FS.Append(path, data, perm) })
}

func (f *timingFS) Sync(path string) error {
	return f.timed("fsync", true, 0, func() error { return f.FS.Sync(path) })
}

func (f *timingFS) SyncDir(dir string) error {
	return f.timed("fsync-dir", true, 0, func() error { return f.FS.SyncDir(dir) })
}

// httpTrace is a timing http.RoundTripper for the fabric coordinator. It
// classifies labd API calls by route, times each round trip, and reads
// job-poll replies to tell polls that saw new committed entries from
// wasted ones.
type httpTrace struct {
	inner  http.RoundTripper
	t      *tracer
	parent uint64

	mu       sync.Mutex
	ms       map[string][]float64 // route → round-trip ms
	lastDone map[string]int       // job URL → committed entries at the last poll
	useful   int
	polls    int
}

func newHTTPTrace(t *tracer, parent uint64) *httpTrace {
	return &httpTrace{inner: http.DefaultTransport, t: t, parent: parent,
		ms: map[string][]float64{}, lastDone: map[string]int{}}
}

// route names a labd API call: submit, poll, manifest or other.
func route(r *http.Request) string {
	p := strings.TrimSuffix(r.URL.Path, "/")
	switch {
	case r.Method == http.MethodPost && p == "/jobs":
		return "submit"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/jobs/") && strings.HasSuffix(p, "/manifest"):
		return "manifest"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/jobs/"):
		return "poll"
	}
	return "other"
}

func (h *httpTrace) RoundTrip(r *http.Request) (*http.Response, error) {
	rt := route(r)
	start := time.Now()
	resp, err := h.inner.RoundTrip(r)
	if err == nil && rt == "poll" {
		// Buffer the reply so its progress count can be read; the caller
		// gets an identical body.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var view struct {
			Done int `json:"done"`
		}
		if json.Unmarshal(body, &view) == nil {
			h.mu.Lock()
			h.polls++
			if view.Done > h.lastDone[r.URL.String()] {
				h.useful++
			}
			h.lastDone[r.URL.String()] = view.Done
			h.mu.Unlock()
		}
	}
	end := time.Now()
	h.t.add(benchProc, h.parent, rt, "http", start, end)
	h.mu.Lock()
	h.ms[rt] = append(h.ms[rt], float64(end.Sub(start))/1e6)
	h.mu.Unlock()
	return resp, err
}

// promValue reads one unlabelled sample from Prometheus text output.
func promValue(text, name string) float64 {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return 0
}
