package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// testSizes shrink every workload so a full run takes about a second.
var testSizes = sizes{suite: []string{"tab2.1", "fig4.1"}, durable: 60, durableHalt: 30, pooled: 120,
	cluster: 60, shard: 10, setupReps: 1, resumeReps: 2}

func testRun(t *testing.T, workload string, seed uint64, trace bool) *record {
	t.Helper()
	o := options{workload: workload, seed: seed, seconds: 0.01, trace: trace, root: "..", sizes: testSizes}
	if trace {
		o.spans = t.TempDir() + "/spans.jsonl"
	}
	rec, err := run(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rec.Correct {
		t.Fatalf("%s: incorrect run: %v", workload, rec.Problems)
	}
	return rec
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) values.
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 7}, 4.5, 6, 7.5},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestProbesPositiveFinite(t *testing.T) {
	got := runProbes(probeEnv{seed: 1, dir: t.TempDir(), budget: 5 * time.Millisecond})
	for _, p := range probes {
		v, ok := got[p.name]
		if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("probe %s = %v (present %t), want a positive finite value", p.name, v, ok)
		}
	}
}

func TestReferenceLoop(t *testing.T) {
	ref := reference(50 * time.Millisecond)
	var total time.Duration
	for _, d := range ref {
		if d <= 0 {
			t.Fatalf("reference loop time %v, want > 0", d)
		}
		total += d
	}
	if len(ref) < refMinReps || total < 50*time.Millisecond {
		t.Errorf("reference loop ran %d times for %v, want >= %d times and >= 50ms", len(ref), total, refMinReps)
	}
	if k := normalizer([]time.Duration{refNominal / 2, refNominal / 2, 2 * refNominal}); math.Abs(k-2) > 1e-12 {
		t.Errorf("normalizer of a median half refNominal = %v, want 2", k)
	}
}

func TestCountsRepeatPerSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a := testRun(t, w.name, 3, false)
			b := testRun(t, w.name, 3, false)
			if a.Counts["kern.events"] == 0 {
				t.Fatalf("no simulated events counted: %v", a.Counts)
			}
			if !reflect.DeepEqual(a.Counts, b.Counts) {
				t.Errorf("counts differ across runs of one seed:\n%v\n%v", a.Counts, b.Counts)
			}
			if a.Digest == "" || a.Digest != b.Digest {
				t.Errorf("output digest differs across runs of one seed: %q vs %q", a.Digest, b.Digest)
			}
			for _, ms := range endToEnd {
				if m, ok := a.Metrics[ms.Name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", ms.Name, m.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	rec := testRun(t, "campaign-durable", 1, true)
	for _, ms := range perLayer() {
		m, ok := rec.Metrics[ms.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("per-layer metric %s missing or not finite: %+v", ms.Name, m)
		}
	}
	for _, name := range []string{"durable.fsyncs", "campaign.commit_ms.p50", "resume_s", "self.campaign_s",
		"fabric.http_requests", "fabric.http_ms.p50.poll"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 on campaign-durable", name, rec.Metrics[name].Value)
		}
	}
}

// synthetic builds n runs of one workload whose wall time is scale times
// a slightly noisy 1s.
func synthetic(n int, scale float64) []record {
	var out []record
	for i := 0; i < n; i++ {
		noise := 1 + 0.01*float64(i%3-1)
		wall := scale * noise
		out = append(out, record{Workload: "w", Seed: uint64(i + 1), Host: host{CPU: "x", NProc: 2},
			Metrics: map[string]metric{
				"wall_s":        {Value: wall},
				"entries_per_s": {Value: 1000 / wall},
			}})
	}
	return out
}

var testSpecs = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1},
	{Name: "entries_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
}

func TestCompareFlagsSlowdownAndPassesAA(t *testing.T) {
	for _, v := range compareSets(synthetic(10, 1), synthetic(10, 1), testSpecs) {
		if v.Outcome != "ok" {
			t.Errorf("A/A %s: outcome %s, want ok", v.Metric, v.Outcome)
		}
	}
	if code := report(io.Discard, synthetic(10, 1), synthetic(10, 1), testSpecs, false); code != 0 {
		t.Errorf("A/A report exit %d, want 0", code)
	}
	for _, v := range compareSets(synthetic(10, 1), synthetic(10, 2), testSpecs) {
		if v.Outcome != "regression" {
			t.Errorf("2x slowdown %s: outcome %s (worse %+.2f), want regression", v.Metric, v.Outcome, v.Worse)
		}
	}
	if code := report(io.Discard, synthetic(10, 1), synthetic(10, 2), testSpecs, false); code != 1 {
		t.Errorf("2x slowdown report exit %d, want 1", code)
	}
}

func TestCompareUnresolvedWhenSpreadExceedsBound(t *testing.T) {
	noisy := synthetic(4, 1)
	for i := range noisy {
		noisy[i].Metrics["wall_s"] = metric{Value: []float64{0.5, 1.5, 0.7, 1.3}[i]}
	}
	for _, v := range compareSets(synthetic(4, 1), noisy, testSpecs[:1]) {
		if v.Outcome != "unresolved" {
			t.Errorf("noisy head: outcome %s, want unresolved", v.Outcome)
		}
	}
}

func TestCompareRefusesOtherHostOrSeed(t *testing.T) {
	other := synthetic(10, 1)
	for i := range other {
		other[i].Host.CPU = "y"
	}
	if code := report(io.Discard, synthetic(10, 1), other, testSpecs, false); code != 1 {
		t.Errorf("cross-host compare exit %d, want 1 (refused)", code)
	}
	if code := report(io.Discard, synthetic(10, 1), other, testSpecs, true); code != 0 {
		t.Errorf("forced cross-host A/A compare exit %d, want 0", code)
	}
	if code := report(io.Discard, synthetic(10, 1), synthetic(9, 1), testSpecs, false); code != 1 {
		t.Errorf("different-seed compare exit %d, want 1 (refused)", code)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{id: 1, layer: "campaign", start: 0, end: 100},
		{id: 2, parent: 1, layer: "entry", start: 10, end: 40},
		{id: 3, parent: 1, layer: "entry", start: 30, end: 60},
		{id: 4, parent: 1, layer: "durable", start: 90, end: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"campaign": 100 - 50 - 10, "entry": 30 + 30, "durable": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined in the code", w.Name)
		}
	}
	for i := range bj.EndToEnd {
		bj.EndToEnd[i].Bound = 0
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v\ncode %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's list")
	}
}
