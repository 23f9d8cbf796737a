package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/durable"
)

// stitchedLogs builds a two-process span set the way a cluster run does:
// a coordinator with cluster/shard spans, a worker whose job span adopts
// the propagated trace and parent ref, with entry/machine spans below.
func stitchedLogs() *Log {
	coord := &Log{Spans: []*Span{
		{Trace: "cluster-seed1", Proc: "coordinator", Name: "coordinator", Tier: TierProcess, Start: 90, End: 90},
		{Trace: "cluster-seed1", ID: 1, Proc: "coordinator", Name: "cluster", Tier: TierCluster, Start: 100, End: 900},
		{Trace: "cluster-seed1", ID: 2, Parent: 1, Proc: "coordinator", Name: "shard 00", Tier: TierShard, Start: 110, End: 500,
			Attrs: map[string]string{"worker": "http://w0"}},
		{Trace: "cluster-seed1", ID: 3, Parent: 1, Proc: "coordinator", Name: "steal shard 00", Tier: TierMark, Start: 400, End: 400},
	}}
	worker := &Log{Spans: []*Span{
		{Trace: "cplabd", Proc: "cplabd :1", Name: "cplabd :1", Tier: TierProcess, Start: 95, End: 95},
		{Trace: "cluster-seed1", ID: 1, ParentRef: "coordinator:2", Proc: "cplabd :1", Name: "job j-01", Tier: TierJob, Start: 120, End: 480},
		{Trace: "cluster-seed1", ID: 2, Parent: 1, Proc: "cplabd :1", Name: "fig4.1", Tier: TierEntry, Start: 130, End: 300},
		{Trace: "cluster-seed1", ID: 3, Parent: 2, Proc: "cplabd :1", Name: "fig4.1 seed=1", Tier: TierMachine, Start: 140, End: 290,
			SimStart: 1000, SimEnd: 5000},
	}}
	return Merge(coord, worker)
}

func decodeTrace(t *testing.T, b []byte) []map[string]any {
	t.Helper()
	var out struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	return out.TraceEvents
}

func TestChromeTraceStitchesProcesses(t *testing.T) {
	lg := stitchedLogs()
	b, err := ChromeTrace(lg)
	if err != nil {
		t.Fatal(err)
	}
	events := decodeTrace(t, b)

	var procNames []string
	var flows, xs, instants int
	simPids := map[float64]bool{}
	for _, e := range events {
		switch e["ph"] {
		case "M":
			if e["name"] == "process_name" {
				procNames = append(procNames, e["args"].(map[string]any)["name"].(string))
			}
		case "s", "f":
			flows++
		case "X":
			xs++
			if e["pid"].(float64) > simPidOffset {
				simPids[e["pid"].(float64)] = true
			}
		case "i":
			instants++
		}
	}
	want := map[string]bool{
		"coordinator": true, "cplabd :1": true, "cplabd :1 [sim]": true,
	}
	for _, n := range procNames {
		delete(want, n)
	}
	if len(want) != 0 {
		t.Fatalf("missing process_name rows %v in %v", want, procNames)
	}
	// One flow arrow pair for the one ParentRef that resolves.
	if flows != 2 {
		t.Fatalf("flow events = %d, want 2 (s+f pair)", flows)
	}
	// 6 wall X spans (cluster, shard, job, entry, machine) + 1 sim copy.
	if xs != 6 {
		t.Fatalf("X events = %d, want 6", xs)
	}
	if instants != 1 {
		t.Fatalf("instant events = %d, want 1", instants)
	}
	if len(simPids) != 1 {
		t.Fatalf("sim-track pids = %v, want exactly 1", simPids)
	}
}

func TestChromeTraceNormalizesWallClock(t *testing.T) {
	lg := stitchedLogs()
	b, err := ChromeTrace(lg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, b) {
		if e["ph"] == "X" && e["pid"].(float64) < simPidOffset {
			ts := e["ts"].(float64)
			if ts < 0 {
				t.Fatalf("wall ts %v is negative after normalization: %v", ts, e)
			}
			if e["name"] == "cluster" && ts != 0.01 {
				// cluster starts 10ns after the earliest span (the
				// coordinator header at 90) → 0.01µs.
				t.Fatalf("cluster ts = %v, want 0.01", ts)
			}
		}
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	a, err := ChromeTrace(stitchedLogs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChromeTrace(stitchedLogs())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("ChromeTrace must be deterministic for the same span set")
	}
}

func TestChromeTraceBrokenRefDegrades(t *testing.T) {
	lg := &Log{Spans: []*Span{
		{Trace: "t", ID: 1, ParentRef: "gone:99", Proc: "p", Name: "orphan", Tier: TierJob, Start: 10, End: 20},
		{Trace: "t", ID: 2, Parent: 99, Proc: "p", Name: "dangling", Tier: TierSlice, Start: 11, End: 12},
	}}
	b, err := ChromeTrace(lg)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range decodeTrace(t, b) {
		if e["ph"] == "s" || e["ph"] == "f" {
			t.Fatalf("unresolvable ParentRef must not emit flow events: %v", e)
		}
	}
}

func TestMergeAndProcs(t *testing.T) {
	lg := Merge(nil, &Log{Spans: []*Span{{Proc: "b"}}, Dropped: 1}, &Log{Spans: []*Span{{Proc: "a"}}})
	if len(lg.Spans) != 2 || lg.Dropped != 1 {
		t.Fatalf("merge: %+v", lg)
	}
	procs := lg.Procs()
	if len(procs) != 2 || procs[0] != "a" || procs[1] != "b" {
		t.Fatalf("procs not sorted: %v", procs)
	}
}

// chromeTraceWithin runs ChromeTrace on lg and fails the test if it does
// not return within a few seconds.
func chromeTraceWithin(t *testing.T, lg *Log) []byte {
	t.Helper()
	type result struct {
		b   []byte
		err error
	}
	done := make(chan result, 1)
	go func() {
		b, err := ChromeTrace(lg)
		done <- result{b, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.b
	case <-time.After(3 * time.Second):
		t.Fatal("ChromeTrace did not terminate")
		return nil
	}
}

// TestChromeTraceParentCycle: a span log whose parent links form a cycle
// (a self-parented span, a two-span loop) renders, each cyclic span on
// its own-ID lane, instead of hanging the lane walk.
func TestChromeTraceParentCycle(t *testing.T) {
	lg := &Log{Spans: []*Span{
		{Trace: "t", ID: 3, Parent: 3, Proc: "p", Name: "self", Tier: TierMachine, Start: 10, End: 20},
		{Trace: "t", ID: 5, Parent: 6, Proc: "p", Name: "a", Tier: TierMachine, Start: 30, End: 40},
		{Trace: "t", ID: 6, Parent: 5, Proc: "p", Name: "b", Tier: TierMachine, Start: 50, End: 60},
	}}
	lanes := map[string]float64{}
	for _, e := range decodeTrace(t, chromeTraceWithin(t, lg)) {
		if e["ph"] == "X" {
			lanes[e["name"].(string)] = e["tid"].(float64)
		}
	}
	if lanes["self"] != 3 || lanes["a"] != 5 || lanes["b"] != 6 {
		t.Fatalf("cyclic spans must render on their own-ID lanes: %v", lanes)
	}
}

// bytesFS serves fixed bytes as every file ReadLog asks for; ReadLog uses
// no other durable.FS method.
type bytesFS struct {
	durable.FS
	data []byte
}

func (f bytesFS) ReadFile(string) ([]byte, error) { return f.data, nil }

// FuzzSpanLog: two arbitrary span logs read, merged and exported always
// terminate, and the export is valid JSON (or an error).
func FuzzSpanLog(f *testing.F) {
	var coord, worker bytes.Buffer
	lg := stitchedLogs()
	for _, s := range lg.Spans {
		line, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		buf := &worker
		if s.Proc == "coordinator" {
			buf = &coord
		}
		buf.Write(append(line, '\n'))
	}
	f.Add(coord.Bytes(), worker.Bytes())
	f.Add([]byte(`{"trace":"t","id":3,"parent":3,"proc":"p","name":"self","tier":"machine"}`), []byte(nil))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		la, err := ReadLog(bytesFS{data: a}, "a.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		lb, err := ReadLog(bytesFS{data: b}, "b.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		out, err := ChromeTrace(Merge(la, lb))
		if err == nil && !json.Valid(out) {
			t.Fatalf("ChromeTrace produced invalid JSON:\n%s", out)
		}
	})
}
