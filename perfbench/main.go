// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed wall budget, checks its outputs, and prints every
// end-to-end metric (untraced run) or every per-layer metric (traced run)
// by name and unit. The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// full result record (host and seed stamp, sample counts, simulated counts,
// output digest) that `perfbench compare` reads.
//
//	perfbench --workload suite --seed 1 --seconds 30 --trace 0
//	perfbench --workload suite --heldout --seconds 30      # the held-out seed
//	perfbench compare [--force] base.out head.out           # two sets of runs
//	perfbench aa --workload campaign-pooled --runs 5         # A/A self-compare
//
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// heldOutSeed is the seed kept out of tuning: a claim must also hold on it.
const heldOutSeed = 7919

// metricSpec describes one metric; Bound is set on end-to-end metrics
// loaded from BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricSpec{
	{"wall_s", "s", "lower", 0},
	{"setup_s", "s", "lower", 0},
	{"entries_per_s", "1/s", "higher", 0},
	{"sim_events_per_s", "1/s", "higher", 0},
	{"peak_heap_mb", "MB", "lower", 0},
}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{"bench", "repro", "campaign", "entry", "durable", "fabric", "http"}

// perLayer lists the metrics of a traced run, in print order.
func perLayer() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	for _, id := range suiteIDs(nil) {
		add("s", "lower", "exps."+id+"_s")
	}
	add("us", "lower", "exps.boot_fresh_us", "exps.boot_fork_us")
	add("count", "lower", "kern.events", "kern.switches")
	add("s", "lower", "kern.dispatch_s")
	add("ns", "lower", "kern.handoff_ns", "kern.event_ns")
	add("count", "lower", "kern.forks")
	add("count", "higher", "kern.pool_hits")
	add("count", "lower", "kern.pool_misses")
	for _, s := range []string{"cfs", "eevdf"} {
		add("ns", "lower", s+".enqueue_pick_ns.d1", s+".enqueue_pick_ns.d16", s+".enqueue_pick_ns.d256")
	}
	add("count", "lower", "cache.accesses", "tlb.accesses", "tlb.walks", "btb.lookups", "cpu.instructions")
	add("ns", "lower", "cache.touch_hit_ns", "cache.insert_miss_ns", "tlb.touch_hit_ns", "tlb.insert_miss_ns",
		"btb.lookup_ns", "btb.update_ns")
	add("ms", "lower", "rsakeys.generate_ms")
	add("us", "lower", "campaign.entry_run_us.p50")
	add("ratio", "lower", "campaign.harness_frac")
	add("ms", "lower", "campaign.commit_ms.p50", "campaign.commit_ms.p99", "campaign.recover_ms",
		"campaign.commit_ms.m10", "campaign.commit_ms.m1000", "campaign.commit_ms.m10000")
	add("s", "lower", "resume_s")
	add("count", "lower", "durable.fsyncs")
	add("B", "lower", "durable.bytes_written")
	add("ms", "lower", "durable.sync_ms", "durable.write_ms", "durable.write_atomic_ms", "durable.log_append_ms")
	add("count", "lower", "fabric.http_requests")
	add("ms", "lower", "fabric.http_ms.p50.submit", "fabric.http_ms.p50.poll", "fabric.http_ms.p50.manifest")
	add("ratio", "higher", "fabric.poll_useful_frac")
	add("ms", "lower", "fabric.merge_commit_ms")
	add("count", "lower", "fabric.requeues", "fabric.steals")
	add("ms", "lower", "labd.roundtrip_ms")
	add("ms", "lower", "entry_p50_ms", "entry_p99_ms")
	add("MB", "lower", "runtime.alloc_mb")
	add("count", "lower", "runtime.gc_cycles")
	add("ratio", "lower", "bench.trace_overhead_frac", "fail_frac")
	add("s", "lower", "raw.wall_s", "raw.setup_s", "raw.cpu_s")
	add("ms", "lower", "ref.loop_ms")
	for _, l := range selfLayers {
		add("s", "lower", "self."+l+"_s")
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// host stamps where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

func (h host) key() string {
	return fmt.Sprintf("%s %d cpu, GOMAXPROCS %d, %s %s/%s", h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.GOOS, h.GOARCH)
}

func thisHost() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel reads the CPU model name, or "unknown" where it is unreadable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// record is the full result of one run.
type record struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Host      host              `json:"host"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Metrics   map[string]metric `json:"metrics"`
	Counts    map[string]int64  `json:"counts"`
	Digest    string            `json:"digest"`
	Problems  []string          `json:"problems,omitempty"`
	Units     int               `json:"units"`
}

// recordLine wraps a record on its stdout line so compare can find it.
type recordLine struct {
	Record *record `json:"perfbench_record"`
}

// options are one run's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spans    string
	root     string
	sizes    sizes
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareCmd(os.Args[2:], os.Stdout))
		case "aa":
			os.Exit(aaCmd(os.Args[2:]))
		}
	}
	os.Exit(runCmd(os.Args[1:]))
}

func runCmd(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
	heldout := fs.Bool("heldout", false, fmt.Sprintf("use the held-out seed %d instead of -seed", heldOutSeed))
	seconds := fs.Float64("seconds", 30, "measured wall budget of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "span log path for a traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	root := fs.String("root", ".", "repository root (holds testdata/golden and .bench_build)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *heldout {
		*seed = heldOutSeed
	}
	if _, ok := lookupWorkload(*workload); !ok || *seed == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seed > 0, --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, root: *root, sizes: defaultSizes}
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(o.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	rec, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printRecord(os.Stderr, rec)
	if err := emit(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

// emit writes the record line and then the contract line.
func emit(w io.Writer, rec *record) error {
	full, err := json.Marshal(recordLine{rec})
	if err != nil {
		return err
	}
	short := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]metric{}}
	for name, m := range rec.Metrics {
		short.Metrics[name] = metric{Value: m.Value, Unit: m.Unit}
	}
	last, err := json.Marshal(short)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, last)
	return err
}

// printRecord prints the human-readable report.
func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "perfbench: %s seed %d (%s), %d units, %d/%d failed, correct=%t\n",
		rec.Workload, rec.Seed, rec.Host.key(), rec.Units, rec.Failed, rec.Attempted, rec.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintln(w, "perfbench: PROBLEM:", p)
	}
	specs := endToEnd
	if rec.Trace {
		specs = perLayer()
	}
	for _, ms := range specs {
		m := rec.Metrics[ms.Name]
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %-6s%s\n", ms.Name, m.Value, m.Unit, n)
	}
}

// run executes one benchmark run.
func run(o options) (*record, error) {
	w, _ := lookupWorkload(o.workload)
	tmp := filepath.Join(o.root, ".bench_build", "perfbench", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	rec := &record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Host: thisHost(), Metrics: map[string]metric{}}

	// Set up several times, and until the set-ups have taken setupBudget,
	// keeping the last session: setup_s is their median, so work moved into
	// set-up shows without one slow start deciding the number. The reference
	// loop runs before each set-up, since a fresh process runs at its own
	// speed.
	var su setups
	var sess session
	var dir string
	var setupTotal time.Duration
	for i := 0; i < o.sizes.setupReps || setupTotal < o.sizes.setupBudget; i++ {
		if sess != nil {
			sess.close()
			os.RemoveAll(dir)
			sess = nil
		}
		d, err := os.MkdirTemp(tmp, o.workload+"-")
		if err != nil {
			return nil, err
		}
		su.ref = append(su.ref, reference(0)...)
		runtime.GC()
		start := time.Now()
		s, err := w.setup(setupEnv{seed: o.seed, dir: d, root: o.root, sizes: o.sizes})
		took := time.Since(start)
		setupTotal += took
		su.times = append(su.times, took.Seconds())
		if err != nil {
			os.RemoveAll(d)
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		sess, dir = s, d
	}
	defer os.RemoveAll(dir)
	defer sess.close()
	for _, c := range sess.checks() {
		rec.Attempted++
		if c != "" {
			rec.Failed++
			rec.Problems = append(rec.Problems, c)
		}
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 2
	}
	plain := measure(sess, nil, budget)
	rec.Units = len(plain.units)
	for _, u := range plain.units {
		rec.Attempted += u.items
		rec.Failed += u.failed
		rec.Problems = append(rec.Problems, u.problems...)
	}
	rec.Counts, rec.Digest = plain.units[0].counts, plain.units[0].digest
	for i, u := range plain.units[1:] {
		if u.digest != rec.Digest {
			rec.Problems = append(rec.Problems, fmt.Sprintf("unit %d output digest %s differs from unit 0's %s", i+1, u.digest, rec.Digest))
			rec.Failed += u.items
		}
		if d := diffCounts(rec.Counts, u.counts); d != "" {
			rec.Problems = append(rec.Problems, fmt.Sprintf("unit %d simulated counts differ from unit 0's: %s", i+1, d))
		}
	}

	if !o.trace {
		e2e(rec, plain, su)
	} else {
		traced := measure(sess, newTracer(), budget)
		for _, u := range traced.units {
			rec.Attempted += u.items
			rec.Failed += u.failed
			rec.Problems = append(rec.Problems, u.problems...)
		}
		if err := layers(rec, o, plain, traced, su); err != nil {
			return nil, err
		}
	}
	if rec.Attempted > 0 {
		rec.FailFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
	rec.Correct = len(rec.Problems) == 0 && rec.Failed == 0
	return rec, nil
}

// setups are a run's set-up times (seconds) and the reference-loop times
// run between them.
type setups struct {
	times []float64
	ref   []time.Duration
}

// phase is a sequence of measured units and the reference-loop times run
// between them.
type phase struct {
	units []unitResult
	ref   []time.Duration
	t     *tracer
}

// measure runs units of the session until budget has elapsed (at least one
// unit). Before each it runs the reference loop, then a GC so a unit pays
// for neither its predecessor's garbage nor the loop's.
func measure(s session, t *tracer, budget time.Duration) phase {
	// observe raises peak to the current live heap. It runs on a ticker
	// while a unit runs, and once as the unit ends, so short units count.
	var peak atomic.Uint64
	var inUnit atomic.Bool
	observe := func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		for v := sample[0].Value.Uint64(); ; {
			old := peak.Load()
			if v <= old || peak.CompareAndSwap(old, v) {
				return
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if inUnit.Load() {
				observe()
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	ph := phase{t: t}
	start := time.Now()
	for len(ph.units) == 0 || time.Since(start) < budget {
		if p, ok := s.(preparer); ok {
			p.prepare()
		}
		var prev time.Duration
		if len(ph.units) > 0 {
			prev = ph.units[len(ph.units)-1].wall
		}
		ref := reference(time.Duration(refShare * float64(prev)))
		ph.ref = append(ph.ref, ref...)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		peak.Store(0)
		inUnit.Store(true)
		cpu0 := cpuTime()
		u := s.unit(t)
		u.cpu = cpuTime() - cpu0
		observe()
		inUnit.Store(false)
		u.peakMB = float64(peak.Load()) / (1 << 20)
		runtime.ReadMemStats(&after)
		u.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		u.gcs = float64(after.NumGC - before.NumGC)
		ph.units = append(ph.units, u)
		fmt.Fprintf(os.Stderr, "perfbench: unit %d: %d items in %.4fs, cpu %.4fs, reference loop %.4fs (traced %t)\n",
			len(ph.units), u.items, u.wall.Seconds(), u.cpu.Seconds(), ref[len(ref)/2].Seconds(), t != nil)
	}
	close(stop)
	wg.Wait()
	return ph
}

// cpuTime is the process's user plus system CPU time so far. On a shared
// host it excludes time the hypervisor stole from the process's CPUs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// e2e fills the end-to-end metrics: medians over the phase's units and
// set-ups, with every time normalized by the reference-loop times run
// beside them (calib.go).
func e2e(rec *record, ph phase, su setups) {
	var items, events, heap []float64
	for _, u := range ph.units {
		items = append(items, float64(u.items))
		events = append(events, float64(u.counts["kern.events"]))
		heap = append(heap, u.peakMB)
	}
	raw := unitWall(ph.units)
	wall := raw * normalizer(ph.ref)
	fmt.Fprintf(os.Stderr, "perfbench: raw wall %.4fs, raw setup %.4fs; reference loop %.2fms beside units, %.2fms beside set-ups\n",
		raw, median(su.times), 1e3*refNominal.Seconds()/normalizer(ph.ref), 1e3*refNominal.Seconds()/normalizer(su.ref))
	n := len(ph.units)
	set := func(name string, v float64, samples int) {
		rec.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name), Samples: samples}
	}
	set("wall_s", wall, n)
	set("setup_s", median(su.times)*normalizer(su.ref), len(su.times))
	set("entries_per_s", median(items)/wall, n)
	set("sim_events_per_s", median(events)/wall, n)
	set("peak_heap_mb", median(heap), n)
}

// unitWall is the median unit's wall time in seconds. Where units report
// their steps, it is the sum over steps of each step's median time: a burst
// of host noise then costs only the step it hit, not the whole unit.
func unitWall(units []unitResult) float64 {
	var wall []float64
	for _, u := range units {
		wall = append(wall, u.wall.Seconds())
	}
	if len(units[0].steps) == 0 {
		return median(wall)
	}
	sum := 0.0
	for i := range units[0].steps {
		var step []float64
		for _, u := range units {
			step = append(step, u.steps[i].Seconds())
		}
		sum += median(step)
	}
	return sum
}

// latencies returns the median over units of each unit's p50 and p99
// item latency, and the number of latency samples.
func latencies(units []unitResult) (p50, p99 float64, samples int) {
	var a, b []float64
	for _, u := range units {
		a = append(a, ms(percentile(u.lat, 50)))
		b = append(b, ms(percentile(u.lat, 99)))
		samples += len(u.lat)
	}
	return median(a), median(b), samples
}

// layers fills the per-layer metrics from the traced phase, the untraced
// phase it is compared with, and the layer probes. The raw.* metrics are
// the untraced phase's end-to-end times before normalization.
func layers(rec *record, o options, plain, traced phase, su setups) error {
	vals := map[string]float64{}
	var tracedWall []float64
	perUnit := map[string][]float64{}
	for _, u := range traced.units {
		tracedWall = append(tracedWall, u.wall.Seconds())
		for k, v := range u.layer {
			perUnit[k] = append(perUnit[k], v)
		}
	}
	for k, vs := range perUnit {
		vals[k] = median(vs)
	}
	var plainWall, plainCPU, alloc, gcs []float64
	for _, u := range plain.units {
		plainWall = append(plainWall, u.wall.Seconds())
		plainCPU = append(plainCPU, u.cpu.Seconds())
		alloc = append(alloc, u.allocMB)
		gcs = append(gcs, u.gcs)
	}
	vals["raw.wall_s"] = unitWall(plain.units)
	vals["raw.setup_s"] = median(su.times)
	vals["raw.cpu_s"] = median(plainCPU)
	vals["ref.loop_ms"] = 1e3 * refNominal.Seconds() / normalizer(plain.ref)
	var latSamples int
	vals["entry_p50_ms"], vals["entry_p99_ms"], latSamples = latencies(plain.units)
	vals["runtime.alloc_mb"] = median(alloc)
	vals["runtime.gc_cycles"] = median(gcs)
	vals["bench.trace_overhead_frac"] = (median(tracedWall) - median(plainWall)) / median(plainWall)
	vals["fail_frac"] = float64(rec.Failed) / float64(max(rec.Attempted, 1))
	for name, c := range rec.Counts {
		vals[name] = float64(c)
	}

	spans := traced.t.snapshot()
	probeRoot := traced.t.open(0, "probes", "probe")
	penv := probeEnv{seed: o.seed, dir: filepath.Join(o.root, ".bench_build", "perfbench", "tmp"),
		t: traced.t, parent: probeRoot.id, budget: probeBudget}
	for name, v := range runProbes(penv) {
		vals[name] = v
	}
	if o.workload != "cluster-loopback" {
		fabric, err := probeFabric(penv)
		if err != nil {
			return err
		}
		for name, v := range fabric {
			vals[name] = v
		}
	}
	probeRoot.close()
	for layer, d := range selfTimes(spans) {
		vals["self."+layer+"_s"] = d.Seconds() / float64(len(traced.units))
	}

	for _, ms := range perLayer() {
		v := vals[ms.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		rec.Metrics[ms.Name] = metric{Value: v, Unit: ms.Unit}
	}
	for _, name := range []string{"entry_p50_ms", "entry_p99_ms"} {
		m := rec.Metrics[name]
		m.Samples = latSamples
		rec.Metrics[name] = m
	}
	if err := os.MkdirAll(filepath.Dir(o.spans), 0o755); err != nil {
		return err
	}
	if err := writeSpans(o.spans, fmt.Sprintf("perfbench-%s-%d", o.workload, o.seed), traced.t.snapshot()); err != nil {
		return fmt.Errorf("writing span log: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: span log %s (render with `cplab timeline -o trace.json %s`)\n", o.spans, o.spans)
	return nil
}

func unitOf(specs []metricSpec, name string) string {
	for _, s := range specs {
		if s.Name == name {
			return s.Unit
		}
	}
	return ""
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// diffCounts describes the first differences between two count maps.
func diffCounts(a, b map[string]int64) string {
	var diffs []string
	for k, v := range a {
		if b[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s %d vs %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s missing vs %d", k, v))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// readRecords collects the result records from saved benchmark output.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseRecords(b, path)
}

// parseRecords extracts the result records from benchmark output.
func parseRecords(b []byte, name string) ([]record, error) {
	var out []record
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, `{"perfbench_record"`) {
			continue
		}
		var rl recordLine
		if err := json.Unmarshal([]byte(line), &rl); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, *rl.Record)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no perfbench result records", name)
	}
	return out, nil
}

// loadBounds reads the end-to-end metric bounds from BENCHMARK.json.
func loadBounds(path string) ([]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(bj.EndToEnd) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return bj.EndToEnd, nil
}

// compareCmd compares two saved sets of runs (each file holds the output
// of one or more runs). It refuses results from different hosts or seeds
// unless --force, which marks them instead.
func compareCmd(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	force := fs.Bool("force", false, "compare results from different hosts or seeds anyway (marked loudly)")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "perfbench compare [--bench BENCHMARK.json] [--force] base.out head.out")
		return 2
	}
	specs, err := loadBounds(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	base, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	head, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	return report(out, base, head, specs, *force)
}

// report prints the comparison and returns the exit code: 0 when nothing
// regressed, 1 on a regression or a refused comparison.
func report(out io.Writer, base, head []record, specs []metricSpec, force bool) int {
	if probs := comparable(base, head); len(probs) > 0 {
		for _, p := range probs {
			fmt.Fprintln(out, "NOT COMPARABLE:", p)
		}
		if !force {
			return 1
		}
		fmt.Fprintln(out, "!!! --force: comparing anyway; every verdict below is suspect !!!")
	}
	for _, m := range countMismatches(append(append([]record(nil), base...), head...)) {
		fmt.Fprintln(out, "simulated count changed:", m)
	}
	vs := compareSets(base, head, specs)
	writeVerdicts(out, vs)
	code := 0
	for _, v := range vs {
		if v.Outcome == "regression" {
			code = 1
		}
	}
	return code
}

// aaCmd runs the same build twice — alternating sides, in separate
// processes, over the same seeds — and compares the two sets. A sound
// benchmark reports no regression.
func aaCmd(args []string) int {
	fs := flag.NewFlagSet("aa", flag.ContinueOnError)
	workload := fs.String("workload", "campaign-pooled", "workload to run")
	runs := fs.Int("runs", 5, "runs per side")
	seconds := fs.Float64("seconds", 30, "measured wall budget per run")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil || *runs < 1 {
		return 2
	}
	specs, err := loadBounds(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var sides [2][]record
	for i := 0; i < *runs; i++ {
		for k := 0; k < 2; k++ {
			side := (i + k) % 2 // alternate which side runs first
			rec, err := runChild(self, *workload, uint64(i+1), *seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				return 1
			}
			sides[side] = append(sides[side], rec)
		}
	}
	return report(os.Stdout, sides[0], sides[1], specs, false)
}

// runChild runs one untraced benchmark run in a child process.
func runChild(self, workload string, seed uint64, seconds float64) (record, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return record{}, fmt.Errorf("child run %s seed %d: %w", workload, seed, err)
	}
	rs, err := parseRecords(out, "child output")
	if err != nil {
		return record{}, err
	}
	return rs[0], nil
}
