package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// TestFamilyKindCollisionPanics: every label variant of a family is one
// kind, so the family's Prometheus TYPE line holds for all of them.
// Registering a second variant, or the bare base name, as another kind
// panics and leaves the registry exportable.
func TestFamilyKindCollisionPanics(t *testing.T) {
	for _, tc := range []struct {
		name        string
		first, then func(*Registry)
	}{
		{"labelled variants",
			func(r *Registry) { r.Counter(`x_total{a="1"}`).Inc() },
			func(r *Registry) { r.Gauge(`x_total{a="2"}`) }},
		{"base after variant",
			func(r *Registry) { r.Histogram(`x_total{a="1"}`, DepthBuckets) },
			func(r *Registry) { r.Counter("x_total") }},
		{"variant after base",
			func(r *Registry) { r.Gauge("x_total").Set(3) },
			func(r *Registry) { r.Histogram(`x_total{a="2"}`, DepthBuckets) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New()
			tc.first(r)
			func() {
				defer func() {
					if rec := recover(); rec == nil || !strings.Contains(fmt.Sprint(rec), "already registered") {
						t.Fatalf("recovered %v, want a cross-kind panic", rec)
					}
				}()
				tc.then(r)
			}()
			if len(r.Names()) != 1 {
				t.Fatalf("names %q: the rejected variant must not register", r.Names())
			}
			if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
		})
	}
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

// TestMergeMatchesDirectObservation: merging per-part registries into one
// yields the registry a single run observing everything directly would —
// counters, gauges, histogram buckets, sums and counts, and the names of
// instruments nobody moved.
func TestMergeMatchesDirectObservation(t *testing.T) {
	observe := func(r *Registry, part int) {
		r.Counter("events_total").Add(int64(3 + part))
		r.Counter(`out_total{reason="blocked"}`).Add(int64(part))
		r.Counter("idle_total")
		r.Gauge("depth").Set(int64(10 * part))
		h := r.Histogram("lat", []int64{10, 100})
		for _, v := range []int64{int64(part), 50, 1000 + int64(part)} {
			h.Observe(v)
		}
		if part == 2 {
			r.Histogram("late", DurationBuckets).Observe(7)
		}
	}
	direct := New()
	merged := New()
	for part := 0; part < 3; part++ {
		observe(direct, part)
		sub := New()
		observe(sub, part)
		merged.Merge(sub)
	}
	if !reflect.DeepEqual(merged.Flatten(), direct.Flatten()) {
		t.Fatalf("merged Flatten %v, want %v", merged.Flatten(), direct.Flatten())
	}
	if !reflect.DeepEqual(merged.Snapshot(), direct.Snapshot()) {
		t.Fatalf("merged snapshot %+v, want %+v", merged.Snapshot(), direct.Snapshot())
	}
	if !reflect.DeepEqual(merged.Names(), direct.Names()) {
		t.Fatalf("merged names %v, want %v", merged.Names(), direct.Names())
	}
	merged.Merge(nil)
	(*Registry)(nil).Merge(direct)
}

func TestMergeKindClashPanics(t *testing.T) {
	for _, tc := range []struct {
		name       string
		dst, src   func(*Registry)
		wantSubstr string
	}{
		{"counter into histogram",
			func(r *Registry) { r.Histogram("x", DepthBuckets) },
			func(r *Registry) { r.Counter("x").Inc() }, "already registered"},
		{"gauge into counter",
			func(r *Registry) { r.Counter("x") },
			func(r *Registry) { r.Gauge("x").Set(1) }, "already registered"},
		{"gauge variant into counter family",
			func(r *Registry) { r.Counter(`x{k="a"}`) },
			func(r *Registry) { r.Gauge(`x{k="b"}`).Set(1) }, "already registered"},
		{"histogram bounds",
			func(r *Registry) { r.Histogram("x", []int64{1, 2}) },
			func(r *Registry) { r.Histogram("x", []int64{1, 3}).Observe(1) }, "different bounds"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dst, src := New(), New()
			tc.dst(dst)
			tc.src(src)
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), tc.wantSubstr) {
					t.Fatalf("Merge recovered %v, want a panic mentioning %q", r, tc.wantSubstr)
				}
			}()
			dst.Merge(src)
		})
	}
}

func TestProfilerMergeSumsLanes(t *testing.T) {
	direct, merged := NewProfiler(), NewProfiler()
	parts := [][]struct {
		kind string
		d    time.Duration
	}{
		{{"tick", 2 * time.Microsecond}, {"timer", 10 * time.Microsecond}},
		{{"tick", 3 * time.Microsecond}},
		{{"wake", time.Microsecond}, {"timer", 4 * time.Microsecond}},
	}
	for _, part := range parts {
		sub := NewProfiler()
		for _, o := range part {
			direct.Observe(o.kind, o.d)
			sub.Observe(o.kind, o.d)
		}
		merged.Merge(sub)
	}
	if got, want := merged.Report(), direct.Report(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged report %+v, want %+v", got, want)
	}
	merged.Merge(nil)
	(*Profiler)(nil).Merge(direct)
}
