package main

// workloads.go defines the four workloads. Each drives the program only
// through its public entry points — repro.RunGuarded/RunTraced,
// campaign.New/Resume/RunParallel, labd.NewServer and fabric.New — so
// internal refactors do not touch this file.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/fabric"
	"repro/internal/labd"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// sizes are the workloads' input sizes.
type sizes struct {
	suite       []string      // suite experiment IDs; nil = every registered one
	durable     int           // checkpointed campaign plan entries
	durableHalt int           // entries committed before the injected halt
	pooled      int           // in-memory campaign plan entries
	cluster     int           // cluster plan entries
	shard       int           // cluster entries per shard
	setupReps   int           // fewest set-ups per run (setup_s is their median)
	setupBudget time.Duration // set-ups continue until they have taken this long
	resumeReps  int           // reopenings of the halted checkpoint per unit
}

var defaultSizes = sizes{durable: 1000, durableHalt: 500, pooled: 4000, cluster: 1000, shard: 10,
	setupReps: 5, setupBudget: time.Second, resumeReps: 5}

// width is the campaign worker count: two, or one on a one-CPU host.
func width() int { return min(2, runtime.NumCPU()) }

// pooledWidth is campaign-pooled's worker count. At width 2 its wall time
// spread 26% across ten processes on a shared 2-vCPU host, past any usable
// bound; serially it measures the same per-entry acquisition path.
const pooledWidth = 1

// Suite options: those `cplab all` uses, and the golden-trace recording
// settings of the repository's golden gate.
const (
	suiteRetries   = 2
	goldenSeed     = 1
	goldenEventCap = 2500
)

var goldenIDs = []string{"fig4.1", "fig4.6", "tab2.1"}

// pollInterval is the coordinator's job-poll cadence, as in the fabric
// tests.
const pollInterval = 10 * time.Millisecond

type setupEnv struct {
	seed  uint64
	dir   string // private scratch directory, removed after the run
	root  string // repository root
	sizes sizes
}

// session is a set-up workload ready to run measured units.
type session interface {
	// checks returns the set-up correctness checks: "" for a pass, else
	// what failed.
	checks() []string
	// unit runs one unit of measured work, traced when t is non-nil.
	unit(t *tracer) unitResult
	close()
}

// preparer is a session with untimed work to do before each unit.
type preparer interface {
	prepare()
}

// unitResult is one unit of measured work.
type unitResult struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time spent in the unit
	items    int           // experiments or plan entries completed
	failed   int           // failed, degraded, skipped or output-mismatched items
	lat      []time.Duration
	counts   map[string]int64   // simulated counts; repeat exactly per seed
	digest   string             // output digest; repeats exactly per seed
	layer    map[string]float64 // per-layer values (traced units)
	problems []string
	allocMB  float64
	gcs      float64
	peakMB   float64         // highest live heap seen while the unit ran
	steps    []time.Duration // wall time of each step, in the same order every unit
}

type workload struct {
	name  string
	setup func(setupEnv) (session, error)
}

// workloads, each stressing different layers (README.md says which and
// why): the simulator, checkpoint commits and recovery, machine
// acquisition, and the cluster fabric.
var workloads = []workload{
	{"suite", setupSuite},
	{"campaign-durable", setupDurable},
	{"campaign-pooled", setupPooled},
	{"cluster-loopback", setupCluster},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// suiteIDs returns ids, or every registered experiment in paper order.
func suiteIDs(ids []string) []string {
	if ids != nil {
		return ids
	}
	for _, e := range repro.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// simCounts maps each reported simulated count to the telemetry it sums.
var simCounts = []struct {
	name  string
	bases []string
}{
	{"kern.events", []string{"kern_events_total"}},
	{"kern.switches", []string{"kern_sched_in_total"}},
	{"cache.accesses", []string{"cache_access_total"}},
	{"tlb.accesses", []string{"tlb_hits_total", "tlb_walks_total"}},
	{"tlb.walks", []string{"tlb_walks_total"}},
	{"btb.lookups", []string{"btb_lookup_total"}},
	{"cpu.instructions", []string{"cpu_instructions_total"}},
}

// poolCounts are the machine-pool counters, reported per layer.
var poolCounts = map[string]string{
	"kern.forks":       "kern_forks_total",
	"kern.pool_hits":   "kern_pool_hits_total",
	"kern.pool_misses": "kern_pool_misses_total",
}

// byBase sums flattened telemetry by metric base name.
func byBase(flat map[string]int64, into map[string]int64) {
	for name, v := range flat {
		base, _ := metrics.SplitName(name)
		into[base] += v
	}
}

func simCountsOf(bases map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, c := range simCounts {
		for _, b := range c.bases {
			out[c.name] += bases[b]
		}
	}
	return out
}

// manifestCounts sums the simulated counts over a manifest's records.
func manifestCounts(man *campaign.Manifest) map[string]int64 {
	bases := map[string]int64{}
	for _, rec := range man.Entries {
		byBase(rec.Telemetry, bases)
	}
	return simCountsOf(bases)
}

// poolDelta reports the machine-pool counters reg gained since before.
func poolDelta(layer map[string]float64, before, after map[string]int64) {
	bases := map[string]int64{}
	byBase(metrics.Delta(before, after), bases)
	for name, base := range poolCounts {
		layer[name] = float64(bases[base])
	}
}

func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// ---- suite ----

type suiteSession struct {
	seed   uint64
	ids    []string
	golden []string
}

func setupSuite(env setupEnv) (session, error) {
	s := &suiteSession{seed: env.seed, ids: suiteIDs(env.sizes.suite)}
	for _, id := range goldenIDs {
		s.golden = append(s.golden, replayGolden(env.root, id))
	}
	return s, nil
}

// replayGolden re-records one golden experiment and diffs it against the
// committed trace; "" means no divergence.
func replayGolden(root, id string) string {
	want, err := trace.ReadFile(filepath.Join(root, "testdata", "golden", id+".cptrace"))
	if err != nil {
		return fmt.Sprintf("golden %s: %v", id, err)
	}
	_, got, err := repro.RunTraced(id, repro.Options{Scale: repro.Quick, Seed: goldenSeed}, goldenEventCap)
	if err != nil {
		return fmt.Sprintf("golden %s: %v", id, err)
	}
	if d := trace.Diff(got, want); d != nil {
		return fmt.Sprintf("golden %s diverged: %s", id, d)
	}
	return ""
}

func (s *suiteSession) checks() []string { return s.golden }
func (s *suiteSession) close()           {}

func (s *suiteSession) unit(t *tracer) unitResult {
	reg := metrics.New()
	defer metrics.SetAmbient(metrics.SetAmbient(reg))
	var prof *metrics.Profiler
	if t != nil {
		prof = metrics.NewProfiler()
		defer metrics.SetAmbientProfiler(metrics.SetAmbientProfiler(prof))
	}
	u := unitResult{layer: map[string]float64{}}
	h := sha256.New()
	root := t.open(0, "suite", "bench")
	start := time.Now()
	for _, id := range s.ids {
		sp := t.open(root.id, id, "repro")
		t0 := time.Now()
		rep := repro.RunGuarded(id, repro.Options{Scale: repro.Quick, Seed: s.seed}, suiteRetries)
		rendered := ""
		if rep.Result != nil {
			rendered = rep.Result.String()
		}
		d := time.Since(t0)
		sp.close()
		u.items++
		u.lat = append(u.lat, d)
		u.steps = append(u.steps, d)
		u.layer["exps."+id+"_s"] = d.Seconds()
		if rep.Result == nil || rep.Err != nil || rep.Degraded {
			u.failed++
			u.problems = append(u.problems, fmt.Sprintf("%s: attempts %d, degraded %t, err %v", id, rep.Attempts, rep.Degraded, rep.Err))
		}
		fmt.Fprintf(h, "== %s\n%s\n", id, rendered)
	}
	u.wall = time.Since(start)
	root.close()
	u.digest = hex.EncodeToString(h.Sum(nil)[:8])
	bases := map[string]int64{}
	flat := reg.Flatten()
	byBase(flat, bases)
	u.counts = simCountsOf(bases)
	poolDelta(u.layer, nil, flat)
	if prof != nil {
		u.layer["kern.dispatch_s"] = float64(prof.Report().TotalWallNS) / 1e9
	}
	return u
}

// ---- campaign plans and per-entry timing ----

// microPlan builds the n-entry micro plan with its machine-pool telemetry
// reporting into reg. The pools' counters are plain fields, so reg must be
// nil when entries of the plan run concurrently.
func microPlan(reg *metrics.Registry, n int) []campaign.Entry {
	defer metrics.SetAmbient(metrics.SetAmbient(reg))
	return repro.MicroBenchEntries(n)
}

// serialPoolCounts reports the machine-pool counters of an n-entry micro
// plan replayed in memory at width 1, where counting is safe.
func serialPoolCounts(layer map[string]float64, seed uint64, n int) {
	reg := metrics.New()
	c, err := campaign.New(campaign.Config{Seed: seed}, microPlan(reg, n))
	if err != nil {
		return
	}
	if _, err := c.RunParallel(context.Background(), 1); err == nil {
		poolDelta(layer, nil, reg.Flatten())
	}
}

// entryTimes times every plan entry: its start and return (in the
// wrapped Entry.Run, on a worker goroutine) and its commit (OnRecord, on
// the committing goroutine).
type entryTimes struct {
	index map[string]int
	start []atomic.Int64
	ret   []atomic.Int64

	mu     sync.Mutex
	lat    []time.Duration // start → OnRecord
	commit []time.Duration // return → OnRecord
	run    []time.Duration // start → return
}

func newEntryTimes(ids []string) *entryTimes {
	tm := &entryTimes{index: map[string]int{}, start: make([]atomic.Int64, len(ids)), ret: make([]atomic.Int64, len(ids))}
	for i, id := range ids {
		tm.index[id] = i
	}
	return tm
}

// wrap times each entry's Run; traced, each run is an entry span on the
// given process track.
func (tm *entryTimes) wrap(entries []campaign.Entry, t *tracer, proc string, parent uint64) []campaign.Entry {
	out := make([]campaign.Entry, len(entries))
	for i, e := range entries {
		idx, ok := tm.index[e.ID]
		run := e.Run
		if !ok || run == nil {
			out[i] = e
			continue
		}
		id := e.ID
		out[i] = campaign.Entry{ID: id, Run: func(seed uint64) campaign.Attempt {
			sp := t.openProc(proc, parent, id, "entry")
			tm.start[idx].Store(time.Now().UnixNano())
			att := run(seed)
			tm.ret[idx].Store(time.Now().UnixNano())
			sp.close()
			return att
		}}
	}
	return out
}

// onRecord is the campaign.Config.OnRecord hook.
func (tm *entryTimes) onRecord(rec *campaign.Record) {
	now := time.Now().UnixNano()
	idx, ok := tm.index[rec.ID]
	if !ok {
		return
	}
	start, ret := tm.start[idx].Load(), tm.ret[idx].Load()
	tm.mu.Lock()
	tm.lat = append(tm.lat, time.Duration(now-start))
	tm.commit = append(tm.commit, time.Duration(now-ret))
	tm.run = append(tm.run, time.Duration(ret-start))
	tm.mu.Unlock()
}

// campaignLayer fills the campaign per-layer values from entry timings.
func (tm *entryTimes) campaignLayer(layer map[string]float64, wall time.Duration, workers int) {
	var busy time.Duration
	for _, d := range tm.run {
		busy += d
	}
	layer["campaign.entry_run_us.p50"] = float64(percentile(tm.run, 50)) / 1e3
	layer["campaign.harness_frac"] = 1 - float64(busy)/(float64(wall)*float64(workers))
	layer["campaign.commit_ms.p50"] = ms(percentile(tm.commit, 50))
	layer["campaign.commit_ms.p99"] = ms(percentile(tm.commit, 99))
}

// fsLayer fills the durable per-layer values from timing-FS accounting.
func fsLayer(layer map[string]float64, fts ...*fsTrace) {
	for _, ft := range fts {
		layer["durable.fsyncs"] += float64(ft.fsyncs.Load())
		layer["durable.bytes_written"] += float64(ft.bytes.Load())
		layer["durable.sync_ms"] += float64(ft.syncNS.Load()) / 1e6
		layer["durable.write_ms"] += float64(ft.writNS.Load()) / 1e6
	}
}

// checkOutcomes counts failed, degraded or skipped records.
func checkOutcomes(man *campaign.Manifest) (failed int, problems []string) {
	for _, id := range man.IDs {
		rec := man.Entries[id]
		if rec == nil || rec.Status != campaign.StatusOK {
			failed++
			if len(problems) < 5 {
				st := "missing"
				if rec != nil {
					st = string(rec.Status)
				}
				problems = append(problems, fmt.Sprintf("entry %s: %s", id, st))
			}
		}
	}
	return failed, problems
}

// referenceBytes runs plan uninterrupted at width 1, in memory, and
// returns the manifest as checkpointed on disk: the bytes every other way
// of running the plan must reproduce.
func referenceBytes(dir string, seed uint64, note string, plan []campaign.Entry) ([]byte, error) {
	c, err := campaign.New(campaign.Config{Seed: seed, Note: note}, plan)
	if err != nil {
		return nil, err
	}
	man, err := c.RunParallel(context.Background(), 1)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "reference.json")
	if err := man.SaveFS(durable.OS(), path); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// ---- campaign-durable ----

const durableNote = "perfbench campaign-durable"

type durableSession struct {
	env setupEnv
	ref []byte
	ids []string
}

func setupDurable(env setupEnv) (session, error) {
	plan := microPlan(metrics.New(), env.sizes.durable)
	ref, err := referenceBytes(env.dir, env.seed, durableNote, plan)
	if err != nil {
		return nil, err
	}
	return &durableSession{env: env, ref: ref, ids: idsOf(plan)}, nil
}

func (s *durableSession) checks() []string { return nil }
func (s *durableSession) close()           {}

func (s *durableSession) unit(t *tracer) unitResult {
	u := unitResult{layer: map[string]float64{}}
	fail := func(err error) unitResult {
		u.items, u.failed = len(s.ids), len(s.ids)
		u.problems = append(u.problems, err.Error())
		return u
	}
	dir, err := os.MkdirTemp(s.env.dir, "unit-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	tm := newEntryTimes(s.ids)
	root := t.open(0, "campaign-durable", "bench")
	plan := tm.wrap(microPlan(nil, len(s.ids)), t, benchProc, root.id)
	cfg := campaign.Config{Path: filepath.Join(dir, "manifest.json"), Seed: s.env.seed, Note: durableNote,
		HaltAfter: s.env.sizes.durableHalt, OnRecord: tm.onRecord}
	var tfs *timingFS
	if t != nil {
		tfs = newTimingFS(durable.OS(), benchProc)
		cfg.FS = tfs
	}
	var fts []*fsTrace
	phaseFS := func(sp span) {
		if tfs != nil {
			fts = append(fts, tfs.attach(t, sp.id))
		}
	}

	// Session 1: run until the injected halt.
	start := time.Now()
	sp := t.open(root.id, "campaign.New+RunParallel", "campaign")
	phaseFS(sp)
	c, err := campaign.New(cfg, plan)
	if err == nil {
		_, err = c.RunParallel(context.Background(), width())
	}
	sp.close()
	first := time.Since(start)
	if !errors.Is(err, campaign.ErrHalted) {
		return fail(fmt.Errorf("halting session: want ErrHalted, got %v", err))
	}

	// Recovery: reopen the halted checkpoint several times (reopening is
	// read-only) and keep the median; the last campaign continues.
	cfg.HaltAfter = 0
	var reopen []float64
	var last time.Duration
	for i := 0; i < s.env.sizes.resumeReps; i++ {
		sp := t.open(root.id, "campaign.Resume", "campaign")
		phaseFS(sp)
		t0 := time.Now()
		c, err = campaign.Resume(cfg, plan)
		last = time.Since(t0)
		sp.close()
		if err != nil {
			return fail(fmt.Errorf("resume: %w", err))
		}
		reopen = append(reopen, last.Seconds())
	}

	// Session 2: finish the plan.
	sp = t.open(root.id, "campaign.RunParallel (resumed)", "campaign")
	phaseFS(sp)
	t0 := time.Now()
	man, err := c.RunParallel(context.Background(), width())
	second := time.Since(t0)
	sp.close()
	if tfs != nil {
		tfs.detach()
	}
	root.close()
	if err != nil {
		return fail(fmt.Errorf("resumed session: %w", err))
	}
	u.wall = first + last + second
	u.items = len(man.IDs)
	u.failed, u.problems = checkOutcomes(man)
	got, err := os.ReadFile(cfg.Path)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(got, s.ref) {
		u.failed = u.items
		u.problems = append(u.problems, "halted-and-resumed manifest differs from the uninterrupted run's")
	}
	u.digest = digestOf(got)
	u.counts = manifestCounts(man)
	u.lat = tm.lat
	resume := median(reopen)
	u.layer["resume_s"] = resume
	u.layer["campaign.recover_ms"] = 1e3 * last.Seconds()
	tm.campaignLayer(u.layer, u.wall, width())
	fsLayer(u.layer, fts...)
	if t != nil {
		serialPoolCounts(u.layer, s.env.seed, len(s.ids))
	}
	return u
}

func idsOf(entries []campaign.Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}

// ---- campaign-pooled ----

const pooledNote = "perfbench campaign-pooled"

type pooledSession struct {
	env setupEnv
	ref string
	ids []string
}

func setupPooled(env setupEnv) (session, error) {
	plan := microPlan(metrics.New(), env.sizes.pooled)
	c, err := campaign.New(campaign.Config{Seed: env.seed, Note: pooledNote}, plan)
	if err != nil {
		return nil, err
	}
	man, err := c.RunParallel(context.Background(), 1)
	if err != nil {
		return nil, err
	}
	ref, err := manifestDigest(man)
	if err != nil {
		return nil, err
	}
	return &pooledSession{env: env, ref: ref, ids: idsOf(plan)}, nil
}

// manifestDigest digests an in-memory manifest's JSON encoding.
func manifestDigest(man *campaign.Manifest) (string, error) {
	b, err := json.Marshal(man)
	if err != nil {
		return "", err
	}
	return digestOf(b), nil
}

func (s *pooledSession) checks() []string { return nil }
func (s *pooledSession) close()           {}

func (s *pooledSession) unit(t *tracer) unitResult {
	u := unitResult{layer: map[string]float64{}}
	tm := newEntryTimes(s.ids)
	root := t.open(0, "campaign-pooled", "bench")
	sp := t.open(root.id, "campaign.RunParallel", "campaign")
	plan := tm.wrap(microPlan(nil, len(s.ids)), t, benchProc, sp.id)
	start := time.Now()
	c, err := campaign.New(campaign.Config{Seed: s.env.seed, Note: pooledNote, OnRecord: tm.onRecord}, plan)
	var man *campaign.Manifest
	if err == nil {
		man, err = c.RunParallel(context.Background(), pooledWidth)
	}
	u.wall = time.Since(start)
	sp.close()
	root.close()
	if err != nil {
		u.items, u.failed = len(s.ids), len(s.ids)
		u.problems = append(u.problems, err.Error())
		return u
	}
	u.items = len(man.IDs)
	u.failed, u.problems = checkOutcomes(man)
	d, err := manifestDigest(man)
	if err != nil || d != s.ref {
		u.failed = u.items
		u.problems = append(u.problems, "pooled manifest differs from the unwrapped reference run's")
	}
	u.digest = d
	u.counts = manifestCounts(man)
	u.lat = tm.lat
	tm.campaignLayer(u.layer, u.wall, pooledWidth)
	if t != nil {
		serialPoolCounts(u.layer, s.env.seed, len(s.ids))
	}
	return u
}

// ---- cluster-loopback ----

// noSyncFS is the real disk with fsync turned into a no-op. The cluster
// workers checkpoint through it, so the workload's figures measure HTTP,
// labd and fabric work rather than the shared disk's fsync latency, which
// campaign-durable measures. The traced run still counts the fsyncs asked
// for (durable.fsyncs).
type noSyncFS struct{ durable.FS }

func (noSyncFS) Sync(string) error    { return nil }
func (noSyncFS) SyncDir(string) error { return nil }

// memFS is an in-memory durable.FS. The coordinator keeps its merged
// manifest in one: rewritten after every shard commit, that manifest is
// most of the workload's write volume, and on a shared disk its file churn
// slows every later run. (Workers must stay on disk: labd serves job
// manifests straight from the file system.)
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

func notExist(op, path string) error { return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist} }

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, notExist("open", path)
	}
	return append([]byte(nil), b...), nil
}

func (m *memFS) WriteFile(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) Append(path string, data []byte, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = append(m.files[path], data...)
	return nil
}

func (m *memFS) Sync(string) error    { return nil }
func (m *memFS) SyncDir(string) error { return nil }

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	m.files[newpath] = b
	delete(m.files, oldpath)
	return nil
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return notExist("remove", path)
	}
	delete(m.files, path)
	return nil
}

func (m *memFS) Stat(path string) (os.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[path]
	if !ok {
		return nil, notExist("stat", path)
	}
	return memInfo{name: filepath.Base(path), size: int64(len(b))}, nil
}

func (m *memFS) ReadDir(dir string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []os.DirEntry
	for p, b := range m.files {
		if filepath.Dir(p) == filepath.Clean(dir) {
			out = append(out, fs.FileInfoToDirEntry(memInfo{name: filepath.Base(p), size: int64(len(b))}))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) MkdirAll(string, os.FileMode) error { return nil }

// memInfo describes a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

const clusterNote = "perfbench cluster-loopback"

type clusterSession struct {
	env      setupEnv
	ref      []byte
	ids      []string
	regs     []*metrics.Registry // per worker: its pool counters
	servers  []*labd.Server
	fronts   []*httptest.Server
	fss      []*timingFS
	gen      int
	used     bool  // the current workers have run a unit
	startErr error // from the last worker restart
	cur      atomic.Pointer[clusterUnit]
}

// clusterUnit is the timing state the workers' entries report into.
type clusterUnit struct {
	tm     *entryTimes
	t      *tracer
	parent uint64
}

func setupCluster(env setupEnv) (session, error) {
	s := &clusterSession{env: env}
	ref, err := referenceBytes(env.dir, env.seed, clusterNote, microPlan(metrics.New(), env.sizes.cluster))
	if err != nil {
		return nil, err
	}
	s.ref = ref
	if err := s.startWorkers(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// startWorkers starts two labd workers with fresh state directories, each
// behind a loopback HTTP server.
func (s *clusterSession) startWorkers() error {
	s.gen++
	for i := 0; i < 2; i++ {
		reg := metrics.New()
		plan := microPlan(reg, s.env.sizes.cluster)
		if s.ids == nil {
			s.ids = idsOf(plan)
		}
		byID := map[string]campaign.Entry{}
		for _, e := range plan {
			byID[e.ID] = e
		}
		proc := workerProc(i)
		tfs := newTimingFS(noSyncFS{durable.OS()}, proc)
		srv, err := labd.NewServer(labd.Config{
			StateDir: filepath.Join(s.env.dir, fmt.Sprintf("%s.%d", proc, s.gen)),
			Entries: func(sp labd.Spec) []campaign.Entry {
				var out []campaign.Entry
				for _, id := range sp.IDs {
					out = append(out, byID[id])
				}
				if u := s.cur.Load(); u != nil {
					return u.tm.wrap(out, u.t, proc, u.parent)
				}
				return out
			},
			Note: func(labd.Spec) string { return clusterNote },
			FS:   tfs,
		})
		if err != nil {
			return err
		}
		srv.Start()
		s.servers = append(s.servers, srv)
		s.fronts = append(s.fronts, httptest.NewServer(srv.Handler()))
		s.fss = append(s.fss, tfs)
		s.regs = append(s.regs, reg)
	}
	return nil
}

func (s *clusterSession) checks() []string { return nil }

// close stops the workers: HTTP fronts first, then each labd dispatcher.
func (s *clusterSession) close() {
	for _, f := range s.fronts {
		f.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	for _, srv := range s.servers {
		srv.Drain(ctx)
	}
	s.servers, s.fronts, s.fss, s.regs = nil, nil, nil, nil
}

// prepare replaces used workers with fresh ones, so no unit inherits its
// predecessors' job history.
func (s *clusterSession) prepare() {
	if !s.used {
		return
	}
	s.close()
	s.startErr = s.startWorkers()
	s.used = false
}

// unit runs the plan once through the coordinator.
func (s *clusterSession) unit(t *tracer) unitResult {
	u := unitResult{layer: map[string]float64{}}
	s.used = true
	fail := func(err error) unitResult {
		u.items, u.failed = len(s.ids), len(s.ids)
		u.problems = append(u.problems, err.Error())
		return u
	}
	if s.startErr != nil {
		return fail(fmt.Errorf("starting workers: %w", s.startErr))
	}
	dir, err := os.MkdirTemp(s.env.dir, "unit-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	tm := newEntryTimes(s.ids)
	root := t.open(0, "cluster-loopback", "bench")
	sp := t.open(root.id, "fabric.Run", "fabric")
	s.cur.Store(&clusterUnit{tm: tm, t: t, parent: sp.id})
	defer s.cur.Store(nil)

	var urls []string
	for _, f := range s.fronts {
		urls = append(urls, f.URL)
	}
	cfg := fabric.Config{Workers: urls, Spec: labd.Spec{Seed: s.env.seed, Parallel: 1}, Note: clusterNote,
		Path: filepath.Join(dir, "merged.json"), ShardSize: s.env.sizes.shard, PollInterval: pollInterval}
	mem := newMemFS()
	cfg.FS = mem
	var ht *httpTrace
	var fts []*fsTrace
	if t != nil {
		ht = newHTTPTrace(t, sp.id)
		cfg.Transport = ht
		coordFS := newTimingFS(mem, benchProc)
		cfg.FS = coordFS
		fts = append(fts, coordFS.attach(t, sp.id))
		for _, f := range s.fss {
			fts = append(fts, f.attach(t, sp.id))
			defer f.detach()
		}
	}
	co, err := fabric.New(cfg, s.ids)
	if err != nil {
		return fail(err)
	}

	// Shards commit into the merged manifest in plan order, so sampling
	// the committed-shard count dates every entry's commit.
	commits := make([]int64, 0, len(s.ids)/max(s.env.sizes.shard, 1)+1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			n := co.Status().ShardsCommitted
			now := time.Now().UnixNano()
			for len(commits) < n {
				commits = append(commits, now)
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	start := time.Now()
	man, err := co.Run(context.Background())
	u.wall = time.Since(start)
	close(stop)
	wg.Wait()
	sp.close()
	root.close()
	if err != nil {
		return fail(fmt.Errorf("cluster run: %w", err))
	}
	end := start.Add(u.wall).UnixNano()
	for i := range s.ids {
		at := end
		if k := i / s.env.sizes.shard; k < len(commits) {
			at = commits[k]
		}
		u.lat = append(u.lat, time.Duration(at-tm.start[i].Load()))
	}
	u.items = len(man.IDs)
	u.failed, u.problems = checkOutcomes(man)
	got, err := mem.ReadFile(cfg.Path)
	if err != nil {
		return fail(err)
	}
	if !bytes.Equal(got, s.ref) {
		u.failed = u.items
		u.problems = append(u.problems, "merged cluster manifest differs from the serial width-1 run's")
	}
	u.digest = digestOf(got)
	u.counts = manifestCounts(man)
	pool := map[string]int64{}
	for _, reg := range s.regs {
		for name, v := range reg.Flatten() {
			pool[name] += v
		}
	}
	poolDelta(u.layer, nil, pool)
	var prom bytes.Buffer
	if err := co.WriteMetrics(&prom); err == nil {
		u.layer["fabric.requeues"] = promValue(prom.String(), "fabric_shard_requeues_total")
		u.layer["fabric.steals"] = promValue(prom.String(), "fabric_shard_steals_total")
	}
	if ht != nil {
		total := 0
		for route, ms := range ht.ms {
			total += len(ms)
			u.layer["fabric.http_ms.p50."+route] = median(ms)
		}
		u.layer["fabric.http_requests"] = float64(total)
		if ht.polls > 0 {
			u.layer["fabric.poll_useful_frac"] = float64(ht.useful) / float64(ht.polls)
		}
		coord := fts[0]
		shards := (len(s.ids) + s.env.sizes.shard - 1) / s.env.sizes.shard
		u.layer["fabric.merge_commit_ms"] = float64(coord.syncNS.Load()+coord.writNS.Load()) / 1e6 / float64(shards)
		fsLayer(u.layer, fts...)
		var run []time.Duration
		for i := range s.ids {
			run = append(run, time.Duration(tm.ret[i].Load()-tm.start[i].Load()))
		}
		u.layer["campaign.entry_run_us.p50"] = float64(percentile(run, 50)) / 1e3
	}
	return u
}
