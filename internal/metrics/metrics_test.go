package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_hist", DepthBuckets)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil instruments, got %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(7)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read as zero")
	}
	if r.Flatten() != nil || r.Names() != nil || r.Total("x_total") != 0 {
		t.Fatal("nil registry exports must be empty")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var p *Profiler
	p.Observe("e", time.Second)
	if rep := p.Report(); rep.TotalEvents != 0 {
		t.Fatal("nil profiler must report empty")
	}
}

func TestGetOrCreateSharesInstruments(t *testing.T) {
	r := New()
	a := r.Counter("hits_total")
	b := r.Counter("hits_total")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	b.Add(2)
	if a.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", a.Value())
	}
	if h1, h2 := r.Histogram("d", DepthBuckets), r.Histogram("d", nil); h1 != h2 {
		t.Fatal("same name must return the same histogram")
	}
}

func TestCounterFamilyResolvesLabelledNames(t *testing.T) {
	r := New()
	names := FamilyNames("kern_events_total", "kind", "timer-fire", "tick")
	fam := make([]*Counter, len(names))
	r.CounterFamily(fam, names)
	// The family must alias the individually resolved handles, so names stay
	// byte-identical with the pre-family formatting.
	if fam[0] != r.Counter(`kern_events_total{kind="timer-fire"}`) {
		t.Fatal(`fam[0] must be kern_events_total{kind="timer-fire"}`)
	}
	if fam[1] != r.Counter(`kern_events_total{kind="tick"}`) {
		t.Fatal(`fam[1] must be kern_events_total{kind="tick"}`)
	}
	fam[0].Inc()
	fam[1].Add(2)
	if got := r.Total("kern_events_total"); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}

	var nilReg *Registry
	nilFam := []*Counter{{}, {}, {}}
	nilReg.CounterFamily(nilFam, FamilyNames("x_total", "k", "a", "b", "c"))
	for i, c := range nilFam {
		if c != nil {
			t.Fatalf("nil-registry family[%d] must be a nil no-op handle", i)
		}
		c.Inc() // must not panic
	}
}

func TestCounterIncZeroAllocs(t *testing.T) {
	r := New()
	var fam [2]*Counter
	r.CounterFamily(fam[:], FamilyNames("alloc_probe_total", "k", "a", "b"))
	if avg := testing.AllocsPerRun(1000, func() {
		fam[0].Inc()
		fam[1].Add(3)
	}); avg != 0 {
		t.Fatalf("pre-resolved counter increment allocates %v/op, want 0", avg)
	}
	var nilC *Counter
	if avg := testing.AllocsPerRun(1000, func() { nilC.Inc() }); avg != 0 {
		t.Fatalf("nil counter increment allocates %v/op, want 0", avg)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as two instrument kinds must panic")
		}
	}()
	r := New()
	r.Counter("x")
	r.Gauge("x")
}

func TestInvalidNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name must panic")
		}
	}()
	New().Counter("9bad name")
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []int64{10, 100})
	for _, v := range []int64{1, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1+10+11+100+101+5000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	s := r.Snapshot().Histograms["lat"]
	want := []BucketSnapshot{{LE: 10, Count: 2}, {LE: 100, Count: 4}}
	if len(s.Buckets) != 2 || s.Buckets[0] != want[0] || s.Buckets[1] != want[1] {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
}

func TestSplitAndSuffix(t *testing.T) {
	if b, l := SplitName(`a_total{k="v"}`); b != "a_total" || l != `{k="v"}` {
		t.Fatalf("SplitName: %q %q", b, l)
	}
	if got := Suffixed(`a{k="v"}`, "_sum"); got != `a_sum{k="v"}` {
		t.Fatalf("Suffixed: %q", got)
	}
	if got := withLabel(`a{k="v"}`, `le="1"`); got != `a{k="v",le="1"}` {
		t.Fatalf("withLabel: %q", got)
	}
	if got := withLabel("a", `le="1"`); got != `a{le="1"}` {
		t.Fatalf("withLabel bare: %q", got)
	}
}

func TestPrometheusExportDeterministicAndWellFormed(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter(`sched_out_total{reason="blocked"}`).Add(4)
		r.Counter(`sched_out_total{reason="tick"}`).Inc()
		r.Gauge("queue_depth").Set(2)
		h := r.Histogram("wake_depth", []int64{1, 4})
		h.Observe(0)
		h.Observe(3)
		h.Observe(9)
		return r
	}
	var b1, b2 bytes.Buffer
	if err := build().WritePrometheus(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("Prometheus export not deterministic")
	}
	out := b1.String()
	for _, want := range []string{
		"# TYPE sched_out_total counter\n",
		"sched_out_total{reason=\"blocked\"} 4\n",
		"sched_out_total{reason=\"tick\"} 1\n",
		"# TYPE queue_depth gauge\n",
		"queue_depth 2\n",
		"# TYPE wake_depth histogram\n",
		"wake_depth_bucket{le=\"1\"} 1\n",
		"wake_depth_bucket{le=\"4\"} 2\n",
		"wake_depth_bucket{le=\"+Inf\"} 3\n",
		"wake_depth_sum 12\n",
		"wake_depth_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %q:\n%s", want, out)
		}
	}
	// One TYPE line per family, and every non-comment line is "name value".
	if strings.Count(out, "# TYPE sched_out_total ") != 1 {
		t.Error("labelled variants must share one TYPE line")
	}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Split(line, " "); len(parts) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(2)
	r.Histogram("h", []int64{5}).Observe(3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if s.Counters["a_total"] != 2 || s.Histograms["h"].Count != 1 || s.Histograms["h"].Sum != 3 {
		t.Fatalf("round-trip mismatch: %+v", s)
	}
}

func TestFlattenAndDelta(t *testing.T) {
	r := New()
	r.Counter("c_total").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram(`h{k="v"}`, []int64{1}).Observe(4)
	f := r.Flatten()
	if f["c_total"] != 3 || f["g"] != -2 || f[`h_sum{k="v"}`] != 4 || f[`h_count{k="v"}`] != 1 {
		t.Fatalf("Flatten = %v", f)
	}
	before := map[string]int64{"a": 1, "b": 2, "gone": 5}
	after := map[string]int64{"a": 4, "b": 2, "new": 7}
	d := Delta(before, after)
	want := map[string]int64{"a": 3, "new": 7, "gone": -5}
	if len(d) != len(want) {
		t.Fatalf("Delta = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("Delta[%s] = %d, want %d", k, d[k], v)
		}
	}
	if Delta(after, after) != nil {
		t.Fatal("identical maps must yield nil delta")
	}
}

func TestTotalSumsAcrossLabels(t *testing.T) {
	r := New()
	r.Counter(`ev_total{kind="a"}`).Add(2)
	r.Counter(`ev_total{kind="b"}`).Add(3)
	r.Counter("other_total").Add(100)
	if got := r.Total("ev_total"); got != 5 {
		t.Fatalf("Total = %d, want 5", got)
	}
}

func TestProfilerReportOrderingAndRates(t *testing.T) {
	p := NewProfiler()
	p.Observe("tick", 2*time.Microsecond)
	p.Observe("timer", 10*time.Microsecond)
	p.Observe("tick", 3*time.Microsecond)
	rep := p.Report()
	if rep.TotalEvents != 3 || rep.TotalWallNS != 15_000 {
		t.Fatalf("totals: %+v", rep)
	}
	if rep.EventsPerSec <= 0 {
		t.Fatal("events/sec must be positive")
	}
	if len(rep.ByEvent) != 2 || rep.ByEvent[0].Key != "tick" || rep.ByEvent[1].Key != "timer" {
		t.Fatalf("ByEvent must be key-sorted (deterministic JSON order): %+v", rep.ByEvent)
	}
	if rep.ByEvent[0].Events != 2 || rep.ByEvent[0].NSPerEvent != 2500 {
		t.Fatalf("tick lane must sum its events: %+v", rep.ByEvent[0])
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ProfileReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := rep.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "by event kind") {
		t.Fatalf("text report: %s", buf.String())
	}
	// The human-facing text table shows the expensive kind first, without
	// disturbing the report value's key order.
	if strings.Index(buf.String(), "timer") > strings.Index(buf.String(), "tick") {
		t.Fatalf("text report must be cost-sorted:\n%s", buf.String())
	}
	if rep.ByEvent[0].Key != "tick" {
		t.Fatalf("WriteText must not mutate the report: %+v", rep.ByEvent)
	}
}

// TestCountsIsDeltaFromEmpty: Counts is the one-pass form of
// Delta(nil, Flatten()) — zero values dropped, nil when nothing counted.
func TestCountsIsDeltaFromEmpty(t *testing.T) {
	r := New()
	if r.Counts() != nil {
		t.Fatal("empty registry must count nothing")
	}
	r.Counter("zero_total")
	r.Counter(`a_total{k="x"}`).Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", DepthBuckets).Observe(4)
	if got, want := r.Counts(), Delta(nil, r.Flatten()); !reflect.DeepEqual(got, want) {
		t.Fatalf("Counts = %v, want %v", got, want)
	}
	var nilReg *Registry
	if nilReg.Counts() != nil {
		t.Fatal("nil registry must count nothing")
	}
}

func TestAmbientInstallRestore(t *testing.T) {
	if Ambient() != nil || AmbientProfiler() != nil {
		t.Fatal("ambient must default to nil")
	}
	r := New()
	prev := SetAmbient(r)
	if prev != nil || Ambient() != r {
		t.Fatal("SetAmbient install failed")
	}
	if got := SetAmbient(prev); got != r {
		t.Fatal("SetAmbient must return the displaced registry")
	}
	p := NewProfiler()
	prevP := SetAmbientProfiler(p)
	if prevP != nil || AmbientProfiler() != p {
		t.Fatal("SetAmbientProfiler install failed")
	}
	SetAmbientProfiler(prevP)
	if Ambient() != nil || AmbientProfiler() != nil {
		t.Fatal("ambient not restored")
	}
}
