// Package fabric is the distributed campaign coordinator: it splits a
// campaign plan into contiguous shards, drives N cplabd workers over the
// lab service's HTTP job API (submit, poll, fetch manifest), and merges
// the per-shard manifests into one byte-stable manifest.
//
// Robustness is the design surface:
//
//   - Every request carries a per-request timeout and a bounded retry
//     budget with seeded-jitter exponential backoff (internal/rng, so the
//     schedule is deterministic and race-free under -race).
//   - Shard jobs are watched for progress; a job that advances no entries
//     within HangTimeout is cancelled and its shard requeued.
//   - A worker that exhausts a retry budget is marked unhealthy and
//     reprobed on a cadence; its shard is requeued to a healthy worker,
//     resumed from the shard's last fetched checkpoint via the lab
//     service's campaign.Resume path, so committed entries are never
//     re-run.
//   - Idle workers steal straggler shards. A duplicated shard is harmless
//     by construction — entry records are functions of the plan and seed
//     alone — so whichever attempt finishes first commits and the loser
//     is cancelled.
//   - The sweep completes (slower) with any strictly-positive subset of
//     workers alive. When every worker is unhealthy at once, or a shard
//     keeps failing everywhere, the coordinator halts into a resumable
//     cluster checkpoint (the merged-prefix manifest plus per-shard
//     partials) that Resume continues.
//
// Determinism contract: shards commit into the merged manifest strictly
// in plan order — the internal/pool in-order-commit discipline lifted one
// level up, from entries to shards — so the merged manifest, and every
// checkpoint prefix of it, is byte-identical to a width-1 serial `cplab
// campaign` run of the same plan, regardless of worker count, network
// faults, requeues, steals or worker deaths. Entry-level failures follow
// the same semantics as `cplab resume`: a requeued shard re-runs
// previously failed entries with bumped seeds, exactly as a serial
// halt+resume of that subset would, and the merged manifest itself can be
// handed to `cplab resume` for serial retry of its failures.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/labd"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ErrHalted reports a cluster run that stopped before completing its plan
// (cancellation, every worker unhealthy, or a shard failing everywhere);
// the merged-prefix manifest and the cluster checkpoint are on disk and
// Resume continues from them.
var ErrHalted = errors.New("fabric: cluster halted before completion (resumable)")

// errStopping is the internal signal that the run is shutting down and an
// in-flight shard attempt should be abandoned without blaming its worker.
var errStopping = errors.New("fabric: run is stopping")

// Config tunes a Coordinator.
type Config struct {
	// Workers are the cplabd base URLs (e.g. "http://10.0.0.7:8642").
	// At least one is required; duplicates are rejected.
	Workers []string
	// Spec is the job template submitted for every shard: Seed, Paper,
	// Faults, SimBudget, Retries and the per-worker Parallel width. IDs and
	// Resume are owned by the coordinator and overwritten per shard.
	// Spec.Seed must be nonzero (workers normalize 0, which would desync
	// the merged manifest's seed).
	Spec labd.Spec
	// Note is the merged manifest's configuration note. It must equal the
	// note the workers derive from Spec, or every shard submission is
	// refused; cplab cluster builds both from the same format string.
	Note string
	// Path is the merged manifest checkpoint (required). Every in-order
	// shard commit is journaled to Path + ".wal"; when Run returns the
	// file is compacted, byte-identical to a serial run's manifest at the
	// same prefix.
	Path string
	// ClusterPath is the cluster checkpoint sidecar holding uncommitted
	// shards' partial manifests (default Path + ".cluster").
	ClusterPath string
	// ShardSize is the number of plan entries per shard (default 4).
	ShardSize int
	// RequestTimeout bounds every single HTTP request (default 10s).
	RequestTimeout time.Duration
	// PollInterval is the job-progress polling cadence (default 250ms).
	PollInterval time.Duration
	// HangTimeout cancels and requeues a shard job that has committed no
	// new entries for this long (default 2m).
	HangTimeout time.Duration
	// StealAfter is how long a shard must have been running before an idle
	// worker may duplicate it (default 2s).
	StealAfter time.Duration
	// ProbeInterval is the unhealthy-worker reprobe cadence (default 1s).
	ProbeInterval time.Duration
	// MaxRetries is the per-request retry budget after the first attempt
	// (default 4).
	MaxRetries int
	// BaseBackoff and MaxBackoff shape the exponential retry backoff
	// (defaults 50ms and 2s).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxShardAttempts halts the run (resumable) when one shard has been
	// dispatched this many times without completing — the brake on a shard
	// that fails on every worker (default 8).
	MaxShardAttempts int
	// Transport overrides the HTTP transport (nil = default). Tests and
	// `cplab cluster -chaosnet` install a ChaosTransport here.
	Transport http.RoundTripper
	// FS is the filesystem all checkpoint I/O (merged manifest, journal,
	// cluster sidecar) goes through; nil means the real disk. Tests
	// install an fsfault.Injector here.
	FS durable.FS
	// Log receives coordinator progress lines (nil discards them).
	Log io.Writer
	// Obs, when set, is the tracing context the coordinator roots its
	// cluster/shard spans under instead of the process-wide ambient one.
	// The CLI leaves it nil; tests hosting coordinator and workers in one
	// process set it so each side traces into its own log.
	Obs *obs.Ctx
}

// Validate checks the configuration in the style of fault.Config.Validate:
// worker URLs must be absolute, unique http(s) endpoints, the manifest
// path present, the seed nonzero, and every numeric tunable non-negative.
func (c Config) Validate() error {
	if len(c.Workers) == 0 {
		return fmt.Errorf("fabric: at least one worker URL is required")
	}
	seen := map[string]bool{}
	for _, w := range c.Workers {
		u, err := url.Parse(w)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("fabric: worker %q is not an absolute http(s) URL", w)
		}
		if seen[w] {
			return fmt.Errorf("fabric: duplicate worker %q", w)
		}
		seen[w] = true
	}
	if c.Spec.Seed == 0 {
		return fmt.Errorf("fabric: Spec.Seed must be nonzero (workers normalize seed 0, desyncing the merged manifest)")
	}
	if c.Spec.Parallel < 0 {
		return fmt.Errorf("fabric: negative Spec.Parallel %d", c.Spec.Parallel)
	}
	if c.Path == "" {
		return fmt.Errorf("fabric: Config.Path is required")
	}
	if c.ShardSize < 0 {
		return fmt.Errorf("fabric: negative ShardSize %d", c.ShardSize)
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"RequestTimeout", c.RequestTimeout}, {"PollInterval", c.PollInterval},
		{"HangTimeout", c.HangTimeout}, {"StealAfter", c.StealAfter},
		{"ProbeInterval", c.ProbeInterval}, {"BaseBackoff", c.BaseBackoff},
		{"MaxBackoff", c.MaxBackoff},
	} {
		if d.v < 0 {
			return fmt.Errorf("fabric: negative %s %s", d.name, d.v)
		}
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("fabric: negative MaxRetries %d", c.MaxRetries)
	}
	if c.MaxShardAttempts < 0 {
		return fmt.Errorf("fabric: negative MaxShardAttempts %d", c.MaxShardAttempts)
	}
	return nil
}

// fs resolves the configured filesystem.
func (c Config) fs() durable.FS {
	if c.FS != nil {
		return c.FS
	}
	return durable.OS()
}

// withDefaults fills zero tunables.
func (c Config) withDefaults() Config {
	if c.ClusterPath == "" {
		c.ClusterPath = c.Path + ".cluster"
	}
	if c.ShardSize == 0 {
		c.ShardSize = 4
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.PollInterval == 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.HangTimeout == 0 {
		c.HangTimeout = 2 * time.Minute
	}
	if c.StealAfter == 0 {
		c.StealAfter = 2 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.MaxShardAttempts == 0 {
		c.MaxShardAttempts = 8
	}
	return c
}

// shardState is one shard's lifecycle state.
type shardState string

const (
	shardPending   shardState = "pending"   // waiting for a worker
	shardRunning   shardState = "running"   // ≥1 attempt in flight
	shardDone      shardState = "done"      // records ready, waiting for in-order commit
	shardCommitted shardState = "committed" // folded into the merged manifest
)

// shardStates lists every state, for the gauges.
var shardStates = []shardState{shardPending, shardRunning, shardDone, shardCommitted}

// shard is one contiguous slice of the plan; guarded by Coordinator.mu.
type shard struct {
	index    int
	ids      []string
	state    shardState
	runners  []int // worker indexes with an attempt in flight (≤2: owner + thief)
	attempts int   // dispatches ever (requeues and steals included)
	started  time.Time
	// partial is the freshest checkpoint fetched from any worker; it seeds
	// campaign.Resume on requeue and steal, and rides in the cluster
	// checkpoint. Never mutated once set — safe to share with marshalers.
	partial *campaign.Manifest
	// records is the shard's final record per entry ID, set exactly once.
	records map[string]*campaign.Record
}

// workerState is one worker's health; guarded by Coordinator.mu.
type workerState struct {
	index   int
	base    string
	healthy bool
	fails   int // infrastructure failures since the last success
	// Live-progress fields for /status: the shard attempt this worker is
	// driving right now (-1 idle) and the worker-side job ID it runs as.
	curShard int
	curJob   string
}

// Coordinator runs one cluster campaign. Build with New or Resume, run
// with Run. A Coordinator is single-shot: Run may be called once.
type Coordinator struct {
	cfg  Config
	plan []string

	mu         sync.Mutex
	shards     []*shard
	workers    []*workerState
	man        *campaign.Manifest // merged; records appear shard-by-shard in plan order
	nextCommit int                // shards[0:nextCommit] are committed
	halted     bool
	haltReason string

	cond   *sync.Cond
	ckptMu sync.Mutex // serializes cluster-checkpoint file writes

	// fresh marks a coordinator built by New: opening the durable store
	// discards the prior store instead of reconciling with it.
	fresh bool
	cp    *campaign.Checkpointer

	reg            *metrics.Registry
	mShards        map[shardState]*metrics.Gauge
	mWorkersOK     *metrics.Gauge
	mWorkersBad    *metrics.Gauge
	mRequeues      *metrics.Counter
	mSteals        *metrics.Counter
	mRetries       *metrics.Counter
	mHung          *metrics.Counter
	mSubmitted     *metrics.Counter
	mWorkerEntries []*metrics.Counter // by worker index
	mUptime        *metrics.Gauge

	// Span state: the ambient context and cluster root span, resolved in
	// Run before the drivers start (immutable afterwards, so drivers read
	// them without co.mu). started/baseDone feed /status rates.
	octx     *obs.Ctx
	root     *obs.Span
	started  time.Time
	baseDone int // entries already committed when Run began (resume credit)

	logMu sync.Mutex
}

// New builds a coordinator for a fresh cluster campaign over plan,
// discarding any prior state at cfg.Path (the first commit overwrites it).
func New(cfg Config, plan []string) (*Coordinator, error) {
	co, err := build(cfg, plan)
	if err != nil {
		return nil, err
	}
	co.man = &campaign.Manifest{
		Version: campaign.ManifestVersion,
		Seed:    co.cfg.Spec.Seed,
		Note:    co.cfg.Note,
		IDs:     append([]string(nil), plan...),
		Entries: map[string]*campaign.Record{},
	}
	co.fresh = true
	return co, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config, plan []string) *Coordinator {
	co, err := New(cfg, plan)
	if err != nil {
		panic(err)
	}
	return co
}

// Resume loads the merged manifest at cfg.Path (and the cluster checkpoint
// sidecar, when present) and continues the cluster campaign: fully
// committed shards are kept, the rest are requeued, resuming from their
// checkpointed partials so committed entries are never re-run. The stored
// plan must match the given one (same seed, note and IDs).
func Resume(cfg Config, plan []string) (*Coordinator, error) {
	co, err := build(cfg, plan)
	if err != nil {
		return nil, err
	}
	man, _, err := campaign.LoadRecovered(co.cfg.fs(), co.cfg.Path)
	if err != nil {
		return nil, err
	}
	if man.Seed != co.cfg.Spec.Seed {
		return nil, fmt.Errorf("fabric: manifest %s was recorded with seed %d, not %d", co.cfg.Path, man.Seed, co.cfg.Spec.Seed)
	}
	if man.Note != co.cfg.Note {
		return nil, fmt.Errorf("fabric: manifest %s was recorded under config %q, not %q", co.cfg.Path, man.Note, co.cfg.Note)
	}
	if len(man.IDs) != len(plan) {
		return nil, fmt.Errorf("fabric: manifest %s plans %d experiments, not %d", co.cfg.Path, len(man.IDs), len(plan))
	}
	for i, id := range plan {
		if man.IDs[i] != id {
			return nil, fmt.Errorf("fabric: manifest %s plans %q at position %d, not %q", co.cfg.Path, man.IDs[i], i, id)
		}
	}
	co.man = man
	// The merged manifest only ever gains whole shards in order, so the
	// committed work is the longest fully-recorded shard prefix.
	for _, sh := range co.shards {
		if !shardRecorded(man, sh) {
			break
		}
		sh.state = shardCommitted
		co.nextCommit++
	}
	if err := co.loadClusterCheckpoint(); err != nil {
		return nil, err
	}
	return co, nil
}

// shardRecorded reports whether every entry of the shard has a record.
func shardRecorded(man *campaign.Manifest, sh *shard) bool {
	for _, id := range sh.ids {
		if man.Entries[id] == nil {
			return false
		}
	}
	return true
}

// build validates and assembles the coordinator state shared by New and
// Resume.
func build(cfg Config, plan []string) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("fabric: empty campaign plan")
	}
	seen := map[string]bool{}
	for _, id := range plan {
		if seen[id] {
			return nil, fmt.Errorf("fabric: duplicate plan entry %q", id)
		}
		seen[id] = true
	}
	cfg = cfg.withDefaults()
	co := &Coordinator{cfg: cfg, plan: append([]string(nil), plan...)}
	co.cond = sync.NewCond(&co.mu)
	for i := 0; i < len(plan); i += cfg.ShardSize {
		end := i + cfg.ShardSize
		if end > len(plan) {
			end = len(plan)
		}
		co.shards = append(co.shards, &shard{
			index: len(co.shards),
			ids:   append([]string(nil), plan[i:end]...),
			state: shardPending,
		})
	}
	for i, base := range cfg.Workers {
		co.workers = append(co.workers, &workerState{index: i, base: base, healthy: true, curShard: -1})
	}

	co.reg = metrics.New()
	co.mShards = map[shardState]*metrics.Gauge{}
	for _, st := range shardStates {
		co.mShards[st] = co.reg.Gauge(fmt.Sprintf("fabric_shards{state=%q}", st))
	}
	co.mWorkersOK = co.reg.Gauge(`fabric_workers{state="healthy"}`)
	co.mWorkersBad = co.reg.Gauge(`fabric_workers{state="unhealthy"}`)
	co.mRequeues = co.reg.Counter("fabric_shard_requeues_total")
	co.mSteals = co.reg.Counter("fabric_shard_steals_total")
	co.mRetries = co.reg.Counter("fabric_http_retries_total")
	co.mHung = co.reg.Counter("fabric_jobs_hung_total")
	co.mSubmitted = co.reg.Counter("fabric_jobs_submitted_total")
	for _, w := range co.workers {
		co.mWorkerEntries = append(co.mWorkerEntries,
			co.reg.Counter(fmt.Sprintf("fabric_worker_entries_total{worker=%q}", w.base)))
	}
	co.started = time.Now()
	co.reg.Gauge(fmt.Sprintf("fabric_build_info{goversion=%q,version=%q}",
		runtime.Version(), obs.Version())).Set(1)
	co.reg.Gauge("fabric_process_start_time_seconds").Set(co.started.Unix())
	co.mUptime = co.reg.Gauge("fabric_process_uptime_seconds")
	co.mu.Lock()
	co.updateShardGaugesLocked()
	co.updateWorkerGaugesLocked()
	co.mu.Unlock()
	return co, nil
}

// Manifest returns the merged manifest. It is owned by Run while Run is in
// flight; read it after Run returns.
func (co *Coordinator) Manifest() *campaign.Manifest { return co.man }

// WriteMetrics renders the coordinator telemetry in the Prometheus text
// format: shards by state, workers by health, requeues, steals, HTTP
// retries, hung-job cancellations, and per-worker committed entries
// (rate() gives per-worker entries/sec).
func (co *Coordinator) WriteMetrics(w io.Writer) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.mUptime.Set(int64(time.Since(co.started).Seconds()))
	return co.reg.WritePrometheus(w)
}

// Run executes the cluster campaign: one driver goroutine per worker pulls
// shards (and steals stragglers), while this goroutine folds finished
// shards into the merged manifest strictly in plan order, journaling
// every commit and compacting the manifest when it returns. It returns
// the manifest and nil on a completed plan, ErrHalted when the run
// stopped resumably (ctx cancelled, every worker unhealthy, a shard
// exhausted MaxShardAttempts, or a disk fault), or the checkpoint I/O
// error that stopped it.
func (co *Coordinator) Run(ctx context.Context) (*campaign.Manifest, error) {
	// Open the durable store up front: a fresh cluster campaign discards
	// the prior store at the path, a resumed one reconciles the entry
	// journal with the recovered merged manifest.
	cp, err := campaign.NewCheckpointer(co.cfg.fs(), co.cfg.Path, co.man, co.fresh)
	if err != nil {
		if durable.DiskErr(err) {
			co.logf("fabric: disk fault opening checkpoint store: %v (halted, resumable)", err)
			return co.man, fmt.Errorf("fabric: disk fault: %v: %w", err, ErrHalted)
		}
		return co.man, err
	}
	co.cp = cp
	co.fresh = false

	// Root the cluster trace before any driver starts: shard spans parent
	// here, and the span's reference propagates to workers over the job
	// API. Resolved once — drivers read co.octx/co.root lock-free.
	co.octx = co.cfg.Obs
	if co.octx == nil {
		co.octx = obs.Ambient()
	}
	co.mu.Lock()
	co.baseDone = len(co.man.Entries)
	if co.octx.Enabled() {
		co.root = co.octx.Tracer.Start("cluster", obs.TierCluster, co.octx.Parent)
		co.root.SetAttr("seed", strconv.FormatUint(co.cfg.Spec.Seed, 10))
		co.root.SetAttr("shards", strconv.Itoa(len(co.shards)))
		co.root.SetAttr("workers", strconv.Itoa(len(co.workers)))
		co.root.SetAttr("entries", strconv.Itoa(len(co.plan)))
		if co.baseDone > 0 {
			co.root.SetAttr("resumed_entries", strconv.Itoa(co.baseDone))
		}
	}
	co.mu.Unlock()

	// A cancelled ctx must wake the commit loop and every cond waiter.
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			co.mu.Lock()
			co.haltLocked("cancelled: " + ctx.Err().Error())
			co.mu.Unlock()
		case <-watchDone:
		}
	}()
	defer close(watchDone)

	var wg sync.WaitGroup
	for _, w := range co.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			co.driver(ctx, w)
		}(w)
	}

	var commitErr error
	for {
		co.mu.Lock()
		for !co.halted && co.nextCommit < len(co.shards) && co.shards[co.nextCommit].state != shardDone {
			co.cond.Wait()
		}
		if co.halted || co.nextCommit >= len(co.shards) {
			co.mu.Unlock()
			break
		}
		sh := co.shards[co.nextCommit]
		recs := make([]*campaign.Record, 0, len(sh.ids))
		for _, id := range sh.ids {
			co.man.Entries[id] = sh.records[id]
			recs = append(recs, sh.records[id])
		}
		sh.state = shardCommitted
		sh.records = nil
		sh.partial = nil
		co.nextCommit++
		committed := co.nextCommit
		co.updateShardGaugesLocked()
		co.mu.Unlock()
		co.cond.Broadcast()
		co.logf("fabric: shard %d/%d committed (%s..%s)", committed, len(co.shards), sh.ids[0], sh.ids[len(sh.ids)-1])
		if err := co.cp.Commit(co.man, recs...); err != nil {
			if durable.DiskErr(err) {
				// Disk full / failing: every previously committed shard is
				// durable, so halt resumably instead of reporting a fatal
				// checkpoint error — the operator frees space and resumes.
				co.logf("fabric: disk fault: %v (halted, resumable)", err)
				co.mu.Lock()
				co.haltLocked("disk fault: " + err.Error())
				co.mu.Unlock()
				break
			}
			commitErr = fmt.Errorf("fabric: checkpoint %s: %w", co.cfg.Path, err)
			co.mu.Lock()
			co.haltLocked(commitErr.Error())
			co.mu.Unlock()
			break
		}
		co.saveClusterCheckpoint()
	}
	wg.Wait()

	// The run is over, whatever ended it: compact the journal into the
	// merged manifest. A failed compaction loses nothing — the journal
	// holds every committed shard — so a disk fault here halts resumably.
	compactErr := co.cp.Compact(co.man)
	if compactErr != nil && commitErr == nil && !durable.DiskErr(compactErr) {
		commitErr = fmt.Errorf("fabric: checkpoint %s: %w", co.cfg.Path, compactErr)
	}
	if commitErr != nil {
		co.endRoot("error: " + commitErr.Error())
		return co.man, commitErr
	}
	co.mu.Lock()
	complete := co.nextCommit >= len(co.shards)
	reason := co.haltReason
	co.mu.Unlock()
	if compactErr != nil {
		co.logf("fabric: disk fault: %v (halted, resumable)", compactErr)
		complete, reason = false, "disk fault: "+compactErr.Error()
	}
	if !complete {
		co.saveClusterCheckpoint()
		co.logf("fabric: halted (%s); resume from %s + %s", reason, co.cfg.Path, co.cfg.ClusterPath)
		co.endRoot("halted: " + reason)
		return co.man, ErrHalted
	}
	// Complete: the sidecar is stale; the merged manifest alone is the
	// result. A leftover sidecar would confuse the next Resume.
	co.cfg.fs().Remove(co.cfg.ClusterPath)
	co.endRoot("complete")
	return co.man, nil
}

// endRoot closes the cluster span with its outcome and flushes the log.
func (co *Coordinator) endRoot(outcome string) {
	if co.root == nil {
		return
	}
	co.root.SetAttr("outcome", outcome)
	co.root.Finish()
	_ = co.octx.Tracer.Flush()
}

// driver is one worker's loop: probe health, pull the next shard (or steal
// a straggler), run it, settle the outcome, repeat until the run is over.
func (co *Coordinator) driver(ctx context.Context, w *workerState) {
	// The jitter stream is forked from the campaign seed by worker index:
	// deterministic given the fault schedule, and owned by this goroutine.
	jit := rng.New(co.cfg.Spec.Seed).Fork(uint64(w.index) + 1)
	cl := newClient(w.base, co.cfg.Transport, co.cfg.RequestTimeout)
	ret := &retrier{
		max:  co.cfg.MaxRetries,
		base: co.cfg.BaseBackoff,
		cap:  co.cfg.MaxBackoff,
		rng:  jit,
		onRetry: func(string) {
			co.mu.Lock()
			co.mRetries.Inc()
			co.mu.Unlock()
		},
	}
	for {
		if co.finished() {
			return
		}
		if !co.workerHealthy(w) {
			if sleepCtx(ctx, co.cfg.ProbeInterval) != nil {
				return
			}
			if err := cl.ping(ctx); err == nil {
				co.setWorkerHealthy(w)
				co.logf("fabric: worker %s is back", w.base)
			} else {
				co.noteProbeFailed(w)
			}
			continue
		}
		sh := co.next(w)
		if sh == nil {
			return
		}
		err := co.runShard(ctx, w, cl, ret, sh)
		co.settle(ctx, w, sh, err)
	}
}

// next blocks until a shard is available for w (first pending in plan
// order, else the straggler with the most remaining entries once it has
// run for StealAfter) and assigns it, or returns nil when the run is over.
func (co *Coordinator) next(w *workerState) *shard {
	co.mu.Lock()
	defer co.mu.Unlock()
	for {
		if co.halted || co.nextCommit >= len(co.shards) {
			return nil
		}
		for _, sh := range co.shards[co.nextCommit:] {
			if sh.state != shardPending {
				continue
			}
			sh.state = shardRunning
			sh.started = time.Now()
			sh.attempts++
			sh.runners = append(sh.runners, w.index)
			w.curShard = sh.index
			co.updateShardGaugesLocked()
			return sh
		}
		var best *shard
		bestLeft := -1
		wait := time.Duration(-1)
		now := time.Now()
		for _, sh := range co.shards[co.nextCommit:] {
			if sh.state != shardRunning || len(sh.runners) != 1 || sh.runners[0] == w.index {
				continue
			}
			if d := co.cfg.StealAfter - now.Sub(sh.started); d > 0 {
				if wait < 0 || d < wait {
					wait = d
				}
				continue
			}
			if left := remaining(sh); left > bestLeft {
				best, bestLeft = sh, left
			}
		}
		if best != nil {
			best.attempts++
			best.runners = append(best.runners, w.index)
			w.curShard = best.index
			co.mSteals.Inc()
			if co.root != nil {
				co.octx.Tracer.Mark(fmt.Sprintf("steal shard %02d", best.index), co.root,
					map[string]string{"worker": w.base, "left": strconv.Itoa(bestLeft)})
			}
			co.logf("fabric: worker %s steals straggler shard %d (%d entries left)", w.base, best.index, bestLeft)
			return best
		}
		if wait > 0 {
			// Nobody broadcasts when a straggler merely ages past
			// StealAfter, so schedule the wake-up ourselves.
			time.AfterFunc(wait+time.Millisecond, co.cond.Broadcast)
		}
		co.cond.Wait()
	}
}

// remaining counts shard entries without a final record in the partial;
// the caller holds co.mu.
func remaining(sh *shard) int {
	left := 0
	for _, id := range sh.ids {
		if sh.partial == nil {
			left++
			continue
		}
		rec := sh.partial.Entries[id]
		if rec == nil || !rec.Status.Final() {
			left++
		}
	}
	return left
}

// runShard drives one attempt of one shard on one worker: submit (resumed
// from the latest partial), poll with hang detection, fetch the final
// manifest, finish the shard. A non-nil return means the attempt failed
// and the shard needs requeueing — except ctx/stop errors, which settle
// treats as shutdown.
func (co *Coordinator) runShard(ctx context.Context, w *workerState, cl *client, ret *retrier, sh *shard) (err error) {
	spec := co.cfg.Spec
	spec.IDs = append([]string(nil), sh.ids...)
	spec.Resume = co.partialSnapshot(sh)

	// One span per shard attempt, under the cluster root. Its reference
	// travels with the submission so the worker's job span links back
	// here; the attempt's outcome lands on the span in the deferred close.
	var sp *obs.Span
	var trace, spanRef string
	if co.root != nil {
		sp = co.octx.Tracer.Start(fmt.Sprintf("shard %02d", sh.index), obs.TierShard, co.root)
		sp.SetAttr("worker", w.base)
		sp.SetAttr("attempt", strconv.Itoa(co.shardAttempts(sh)))
		sp.SetAttr("entries", strconv.Itoa(len(sh.ids)))
		trace, spanRef = sp.Trace, sp.Ref()
		defer func() {
			switch {
			case err == nil:
				sp.SetAttr("outcome", "done")
			case ctx.Err() != nil || errors.Is(err, errStopping):
				sp.SetAttr("outcome", "stopped")
			default:
				sp.SetAttr("outcome", "requeued")
				sp.SetAttr("error", err.Error())
			}
			sp.Finish()
		}()
	}

	var view labd.JobView
	if err := ret.do(ctx, "submit", func() error {
		v, serr := cl.submit(ctx, spec, trace, spanRef)
		if serr == nil {
			view = v
		}
		return serr
	}); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("submitting shard %d: %w", sh.index, err)
	}
	sp.SetAttr("job", view.ID)
	co.mu.Lock()
	co.mSubmitted.Inc()
	w.curJob = view.ID
	co.mu.Unlock()
	co.logf("fabric: shard %d -> %s %s (%d entries, attempt %d)", sh.index, w.base, view.ID, len(sh.ids), co.shardAttempts(sh))

	seenDone := -1
	lastProgress := time.Now()
	for {
		if co.stopping() {
			co.abort(cl, view.ID)
			return errStopping
		}
		if co.shardSettled(sh) {
			// Someone else (the owner, or a thief) finished this shard
			// first; this attempt is surplus.
			sp.SetAttr("surplus", "true")
			co.abort(cl, view.ID)
			return nil
		}
		var v labd.JobView
		if err := ret.do(ctx, "poll", func() error {
			vv, err := cl.job(ctx, view.ID)
			if err == nil {
				v = vv
			}
			return err
		}); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("polling shard %d job %s: %w", sh.index, view.ID, err)
		}
		if v.Done > seenDone {
			if seenDone >= 0 {
				co.noteWorkerEntries(w, int64(v.Done-seenDone))
			}
			seenDone = v.Done
			lastProgress = time.Now()
			// Refresh the shard's crash-recovery partial opportunistically;
			// a failed fetch only costs recovery freshness, never progress.
			if man, err := cl.manifest(ctx, view.ID); err == nil {
				co.updatePartial(sh, man)
				co.saveClusterCheckpoint()
			}
		}
		switch v.State {
		case labd.StateDone:
			var man *campaign.Manifest
			if err := ret.do(ctx, "manifest", func() error {
				m, err := cl.manifest(ctx, view.ID)
				if err == nil {
					man = m
				}
				return err
			}); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				return fmt.Errorf("fetching shard %d manifest from %s: %w", sh.index, w.base, err)
			}
			records := make(map[string]*campaign.Record, len(sh.ids))
			for _, id := range sh.ids {
				rec := man.Entries[id]
				if rec == nil {
					return fmt.Errorf("worker %s finished shard %d without a record for %s", w.base, sh.index, id)
				}
				records[id] = rec
			}
			co.finishShard(sh, records, w)
			return nil
		case labd.StateFailed:
			return fmt.Errorf("shard %d job %s failed on %s: %s", sh.index, view.ID, w.base, v.Error)
		case labd.StateHalted:
			// The worker drained under us; bank its checkpoint and requeue.
			if man, err := cl.manifest(ctx, view.ID); err == nil {
				co.updatePartial(sh, man)
			}
			return fmt.Errorf("shard %d job %s halted on %s (worker drained)", sh.index, view.ID, w.base)
		case labd.StateCanceled:
			return fmt.Errorf("shard %d job %s was canceled on %s", sh.index, view.ID, w.base)
		}
		if co.cfg.HangTimeout > 0 && time.Since(lastProgress) > co.cfg.HangTimeout {
			co.mu.Lock()
			co.mHung.Inc()
			co.mu.Unlock()
			co.abort(cl, view.ID)
			return fmt.Errorf("shard %d job %s on %s committed nothing for %s (hung; cancelled)", sh.index, view.ID, w.base, co.cfg.HangTimeout)
		}
		if err := sleepCtx(ctx, co.cfg.PollInterval); err != nil {
			co.abort(cl, view.ID)
			return err
		}
	}
}

// settle folds one attempt's outcome back into shard and worker state: a
// failed attempt requeues the shard (unless a concurrent attempt finished
// it) and marks the worker unhealthy; shutdown errors blame nobody.
func (co *Coordinator) settle(ctx context.Context, w *workerState, sh *shard, err error) {
	co.mu.Lock()
	defer func() {
		co.cond.Broadcast()
		co.mu.Unlock()
	}()
	keep := sh.runners[:0]
	for _, r := range sh.runners {
		if r != w.index {
			keep = append(keep, r)
		}
	}
	sh.runners = keep
	w.curShard = -1
	w.curJob = ""

	switch {
	case err == nil:
		w.fails = 0
	case ctx.Err() != nil || errors.Is(err, errStopping):
		// Shutdown: the shard's partial is already banked for the
		// checkpoint; no requeue, no health penalty.
	default:
		w.fails++
		w.healthy = false
		co.updateWorkerGaugesLocked()
		if sh.state == shardRunning {
			co.mRequeues.Inc()
			if co.root != nil {
				co.octx.Tracer.Mark(fmt.Sprintf("requeue shard %02d", sh.index), co.root,
					map[string]string{"worker": w.base, "error": err.Error()})
			}
		}
		co.logf("fabric: worker %s lost shard %d: %v", w.base, sh.index, err)
	}

	if sh.state == shardRunning && len(sh.runners) == 0 {
		sh.state = shardPending
		co.updateShardGaugesLocked()
		if sh.attempts >= co.cfg.MaxShardAttempts {
			co.haltLocked(fmt.Sprintf("shard %d failed %d times across the cluster", sh.index, sh.attempts))
			return
		}
	}
	co.maybeHaltLocked()
}

// finishShard records a completed shard exactly once; a concurrent
// duplicate attempt that loses the race is discarded (its records would
// be identical anyway).
func (co *Coordinator) finishShard(sh *shard, records map[string]*campaign.Record, w *workerState) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w.fails = 0
	if sh.state == shardDone || sh.state == shardCommitted {
		return
	}
	sh.state = shardDone
	sh.records = records
	co.updateShardGaugesLocked()
	co.cond.Broadcast()
}

// updatePartial keeps the freshest checkpoint for an unfinished shard.
func (co *Coordinator) updatePartial(sh *shard, man *campaign.Manifest) {
	if man.Seed != co.cfg.Spec.Seed || man.Note != co.cfg.Note {
		return // foreign manifest; never resume from it
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if sh.state == shardDone || sh.state == shardCommitted {
		return
	}
	if finalRecords(man, sh.ids) > finalRecords(sh.partial, sh.ids) {
		sh.partial = man
	}
}

// finalRecords counts shard ids with final records in man (0 for nil).
func finalRecords(man *campaign.Manifest, ids []string) int {
	if man == nil {
		return 0
	}
	n := 0
	for _, id := range ids {
		if rec := man.Entries[id]; rec != nil && rec.Status.Final() {
			n++
		}
	}
	return n
}

// partialSnapshot returns the shard's resume manifest (nil = fresh start).
func (co *Coordinator) partialSnapshot(sh *shard) *campaign.Manifest {
	co.mu.Lock()
	defer co.mu.Unlock()
	return sh.partial
}

// abort cancels a job best-effort on a background context: the caller's
// ctx may already be dead, and a failed cancel only wastes worker time.
func (co *Coordinator) abort(cl *client, jobID string) {
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.RequestTimeout)
	defer cancel()
	_ = cl.cancel(ctx, jobID)
}

// noteWorkerEntries credits newly committed entries to a worker.
func (co *Coordinator) noteWorkerEntries(w *workerState, n int64) {
	co.mu.Lock()
	co.mWorkerEntries[w.index].Add(n)
	co.mu.Unlock()
}

// shardAttempts reads a shard's dispatch count.
func (co *Coordinator) shardAttempts(sh *shard) int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return sh.attempts
}

// shardSettled reports whether the shard no longer needs this attempt.
func (co *Coordinator) shardSettled(sh *shard) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return sh.state == shardDone || sh.state == shardCommitted
}

// stopping reports whether the run is halting.
func (co *Coordinator) stopping() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.halted
}

// finished reports whether the run is over (halted or fully committed).
func (co *Coordinator) finished() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.halted || co.nextCommit >= len(co.shards)
}

// workerHealthy reads one worker's health.
func (co *Coordinator) workerHealthy(w *workerState) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return w.healthy
}

// setWorkerHealthy returns a reprobed worker to the rotation.
func (co *Coordinator) setWorkerHealthy(w *workerState) {
	co.mu.Lock()
	w.healthy = true
	w.fails = 0
	co.updateWorkerGaugesLocked()
	co.cond.Broadcast()
	co.mu.Unlock()
}

// haltLocked flips the run into (resumable) shutdown; caller holds co.mu.
func (co *Coordinator) haltLocked(reason string) {
	if !co.halted {
		co.halted = true
		co.haltReason = reason
	}
	co.cond.Broadcast()
}

// deadProbes is how many consecutive failures (lost shards plus failed
// reprobes) a worker must accumulate before the halt check counts it as
// dead — one transient loss must not make a one-worker fleet look gone.
const deadProbes = 3

// noteProbeFailed records a failed reprobe; enough of them across the
// whole fleet triggers the halt check.
func (co *Coordinator) noteProbeFailed(w *workerState) {
	co.mu.Lock()
	w.fails++
	co.maybeHaltLocked()
	co.mu.Unlock()
}

// maybeHaltLocked halts when every worker has been failing for several
// probe rounds and nothing is in flight: with the whole fleet gone the
// sweep cannot advance, so the coordinator checkpoints and leaves instead
// of spinning probes forever. Caller holds co.mu.
func (co *Coordinator) maybeHaltLocked() {
	if co.halted || co.nextCommit >= len(co.shards) {
		return
	}
	for _, w := range co.workers {
		if w.healthy || w.fails < deadProbes {
			return
		}
	}
	for _, sh := range co.shards {
		if len(sh.runners) > 0 {
			return
		}
	}
	co.haltLocked("every worker is unhealthy")
}

// updateShardGaugesLocked recomputes the shards-by-state gauges.
func (co *Coordinator) updateShardGaugesLocked() {
	counts := map[shardState]int64{}
	for _, sh := range co.shards {
		counts[sh.state]++
	}
	for _, st := range shardStates {
		co.mShards[st].Set(counts[st])
	}
}

// updateWorkerGaugesLocked recomputes the workers-by-health gauges.
func (co *Coordinator) updateWorkerGaugesLocked() {
	ok := int64(0)
	for _, w := range co.workers {
		if w.healthy {
			ok++
		}
	}
	co.mWorkersOK.Set(ok)
	co.mWorkersBad.Set(int64(len(co.workers)) - ok)
}

// logf writes one coordinator progress line; drivers log concurrently.
func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Log == nil {
		return
	}
	co.logMu.Lock()
	defer co.logMu.Unlock()
	fmt.Fprintf(co.cfg.Log, format+"\n", args...)
}

// sleepCtx sleeps d or returns ctx's error, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
