// Package campaign supervises long experiment sweeps: it runs a set of
// experiments with per-entry panic containment (a crash becomes a
// structured failure record with the kernel invariant dump attached, and
// the campaign continues), commits every outcome to a journal the moment
// it lands, compacts the journal into a JSON manifest when the session
// ends, and resumes an interrupted or crashed campaign from the two,
// re-running only the missing and failed entries — with bumped
// seeds for the failed ones, so a retry explores a different schedule.
//
// The package is deliberately generic: an Entry is any ID plus a run
// closure. The glue binding entries to the experiment registry (via the
// guarded retry runner) lives in the root repro package; the cplab CLI's
// campaign/resume subcommands sit on top of that.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pool"
)

// DefaultSeedBump is the seed offset applied per previously failed session
// when a failed entry is re-run on resume. It is co-prime with (and far
// from) the guarded runner's per-attempt bump, so resume schedules never
// collide with in-session retry schedules.
const DefaultSeedBump = 7_777_777

// ErrHalted reports a campaign that checkpointed and stopped before
// completing its plan (wall deadline or injected halt); resuming it
// continues from its store.
var ErrHalted = errors.New("campaign halted before completion (resumable)")

// Entry is one experiment in the campaign plan. Run executes it under the
// given base seed and reports the attempt; a nil Run marks the entry
// skipped (unknown experiment). Run is invoked on the pool worker that
// picked the entry (on a goroutine of its own under Config.ExpWall) and may
// panic — the campaign contains it.
type Entry struct {
	ID  string
	Run func(seed uint64) Attempt
}

// Attempt is what one contained execution reports back.
type Attempt struct {
	// Rendered is the experiment's full figure/table text.
	Rendered string
	// Metrics are the headline numbers.
	Metrics map[string]float64
	// Attempts counts guarded-runner attempts (retries included).
	Attempts int
	// Degraded marks a result that needed bumped-seed retries.
	Degraded bool
	// Err is the final failure; nil means Rendered/Metrics are valid.
	Err error
	// Telemetry is the entry's own metric counts (flattened names, zero
	// values dropped — metrics.Registry.Counts), recorded verbatim as
	// Record.Telemetry. An entry owns its registry: it builds one per run
	// and reports only what that run counted, so concurrent entries can
	// never bleed into each other's records.
	Telemetry map[string]int64
}

// Config tunes a campaign.
type Config struct {
	// Path is the manifest checkpoint file; "" disables checkpointing (the
	// campaign still runs, but cannot be resumed).
	Path string
	// Seed is the campaign's base seed.
	Seed uint64
	// Note pins the non-seed configuration; resume refuses a manifest
	// recorded under a different note.
	Note string
	// Bump is the extra seed offset per previously failed session when
	// re-running a failed entry (default 7_777_777).
	Bump uint64
	// ExpWall bounds each entry's wall-clock time; an entry exceeding it is
	// recorded failed and its goroutine abandoned (the simulation holds no
	// locks or external resources). 0 disables the bound.
	ExpWall time.Duration
	// Deadline is the campaign-wide wall-clock deadline; when it passes the
	// campaign checkpoints and returns ErrHalted. Zero disables it.
	Deadline time.Time
	// HaltAfter, when positive, checkpoints and returns ErrHalted after
	// that many entries have run this session — deterministic interruption
	// injection for the resume tests and CI.
	HaltAfter int
	// OnRecord, when set, observes every record the moment it is committed
	// (after its journal line is fsynced). It runs on the committing
	// goroutine — the one that called Run/RunParallel — so it may touch
	// shared state without extra locking. The lab service's progress
	// metrics hang off this.
	OnRecord func(*Record)
	// FS is the filesystem all checkpoint I/O goes through; nil means the
	// real disk. Tests and the -diskchaos flag install an fsfault.Injector
	// here.
	FS durable.FS
	// Log receives progress lines (nil discards them).
	Log io.Writer
	// Obs, when set, is the tracing context the campaign's spans nest
	// under (labd passes its job span here); nil falls back to the
	// process-wide obs.Ambient().
	Obs *obs.Ctx
}

// fs resolves the configured filesystem.
func (c *Config) fs() durable.FS {
	if c.FS != nil {
		return c.FS
	}
	return durable.OS()
}

// Campaign is a supervised, resumable experiment sweep.
type Campaign struct {
	cfg     Config
	entries map[string]Entry
	man     *Manifest
	logMu   sync.Mutex
	// fresh marks a campaign built by New: opening its checkpointer
	// discards the prior store instead of reconciling with it. covered
	// marks a resumed one whose journal, as Resume read it, already holds
	// every recovered record: opening its checkpointer keeps the journal
	// without reading it again.
	fresh, covered bool
	cp             *Checkpointer
	// unsynced are the records written to the journal since the last
	// flush: not yet committed, not yet shown to OnRecord.
	unsynced []*Record
}

// New starts a fresh campaign over the given entries, discarding any prior
// store at cfg.Path (opening the store when the campaign first runs
// removes it).
func New(cfg Config, entries []Entry) (*Campaign, error) {
	c := &Campaign{cfg: cfg, entries: indexEntries(entries), fresh: true}
	c.man = &Manifest{
		Version: ManifestVersion,
		Seed:    cfg.Seed,
		Note:    cfg.Note,
		IDs:     idsOf(entries),
		Entries: make(map[string]*Record, len(entries)),
	}
	return c, nil
}

// Resume loads the committed state at cfg.Path — the manifest overlaid
// with the entry journal, corrupt files quarantined (LoadRecovered) — and
// continues the campaign: entries with final records are kept as-is,
// missing entries run normally, and failed entries re-run with a bumped
// seed. The stored plan must match the given
// one (same seed, note and IDs).
func Resume(cfg Config, entries []Entry) (*Campaign, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("campaign: resume needs a manifest path")
	}
	man, _, covered, err := loadRecovered(cfg.fs(), cfg.Path)
	if err != nil {
		return nil, err
	}
	if man.Seed != cfg.Seed {
		return nil, fmt.Errorf("campaign: manifest %s was recorded with seed %d, not %d", cfg.Path, man.Seed, cfg.Seed)
	}
	if man.Note != cfg.Note {
		return nil, fmt.Errorf("campaign: manifest %s was recorded under config %q, not %q", cfg.Path, man.Note, cfg.Note)
	}
	want := idsOf(entries)
	if len(want) != len(man.IDs) {
		return nil, fmt.Errorf("campaign: manifest %s plans %d experiments, not %d", cfg.Path, len(man.IDs), len(want))
	}
	for i, id := range want {
		if man.IDs[i] != id {
			return nil, fmt.Errorf("campaign: manifest %s plans %q at position %d, not %q", cfg.Path, man.IDs[i], i, id)
		}
	}
	return &Campaign{cfg: cfg, entries: indexEntries(entries), man: man, covered: covered}, nil
}

// Manifest returns the campaign's (live) manifest.
func (c *Campaign) Manifest() *Manifest { return c.man }

// Run executes the plan serially: every entry without a final record runs
// contained, its record is committed immediately, and the campaign
// presses on past failures. It returns the manifest and nil on a completed
// plan, ErrHalted on a deadline/injected halt (resume later), or the
// checkpoint I/O error that stopped it. Run is RunParallel with one worker.
func (c *Campaign) Run() (*Manifest, error) {
	return c.RunParallel(context.Background(), 1)
}

// job is one plan position the campaign still has to process, snapshotted
// before the pool starts so workers never read the live manifest map.
type job struct {
	pos     int // position in the plan (for progress lines)
	id      string
	skip    bool // no runner: record skipped, don't count toward HaltAfter
	seed    uint64
	prev    *Record // the record at snapshot time; nil for a position never recorded
	entry   Entry
	session int
}

// RunParallel executes the plan with up to workers entries in flight at
// once: workers is an upper bound, capped by the process-wide CPU budget
// the pool's helpers draw from (package pool). Each entry runs contained on
// the worker that picked it and reports its own telemetry (Attempt.Telemetry);
// the pool's in-order commit folds results into the manifest and commits
// them to the journal in strict plan order. Because seeds are fixed up
// front, each entry's execution is isolated, and commits are ordered, the
// manifest — and every committed prefix of it — is byte-identical to a
// serial run's. Results that are ready together are written to the
// journal and committed by one fsync (group commit): while an fsync is
// slow the workers run on, so its cost is shared by more records instead
// of being paid by each. The manifest file is written once, when
// RunParallel returns, complete or halted.
//
// Cancelling ctx stops dispatching new entries, drains the ones in flight,
// commits the completed in-order prefix and returns ErrHalted — the same
// resumable state an injected halt leaves.
//
// When a process-wide telemetry registry is installed (metrics.SetAmbient),
// RunParallel counts entries, failures, skips, checkpoints and resume hits
// there, in the in-order commit; per-entry telemetry always comes from the
// entry itself, never the shared registry.
func (c *Campaign) RunParallel(ctx context.Context, workers int) (*Manifest, error) {
	// Open the durable store before anything runs: a fresh campaign
	// discards the prior store and seeds its journal; a resumed one
	// reconciles the journal with the recovered state, so the journal
	// alone holds every committed record before the first append.
	if c.cfg.Path != "" && c.cp == nil {
		cp, err := openCheckpointer(c.cfg.fs(), c.cfg.Path, c.man, c.fresh, c.covered)
		if err != nil {
			return c.man, c.haltOnDiskErr(err)
		}
		c.cp = cp
		c.fresh = false
	}

	// Resolve every campaign counter once up front: Counter() is a map
	// lookup, and the commit otherwise pays it per checkpoint.
	reg := metrics.Ambient()
	mEntries := reg.Counter("campaign_entries_total")
	mFailures := reg.Counter("campaign_failures_total")
	mSkipped := reg.Counter("campaign_skipped_total")
	mResumeHits := reg.Counter("campaign_resume_hits_total")
	mCheckpoints := reg.Counter("campaign_checkpoints_total")

	// Span context, resolved once like the registry. The campaign span
	// roots this run's entry spans; when a caller (labd) already opened a
	// parent (the job span), entries nest under a campaign span below it so
	// multi-campaign processes stay separable.
	octx := c.cfg.Obs
	if octx == nil {
		octx = obs.Ambient()
	}
	var root *obs.Span
	if octx.Enabled() {
		root = octx.Tracer.Start("campaign", obs.TierCampaign, octx.Parent)
		root.SetAttr("seed", strconv.FormatUint(c.man.Seed, 10))
		root.SetAttr("entries", strconv.Itoa(len(c.man.IDs)))
		root.SetAttr("workers", strconv.Itoa(workers))
	}

	// Snapshot the work: plan order, minus final records. Seeds and session
	// numbers are derived here, before anything runs, so they cannot depend
	// on execution order. pending counts the plan positions without any
	// record; the commit loop decrements it as they land, so "is the plan
	// complete?" (Manifest.Complete) costs O(1) per commit instead of a
	// scan of the whole plan.
	jobs := make([]job, 0, len(c.man.IDs))
	pending := 0
	for i, id := range c.man.IDs {
		rec := c.man.Entries[id]
		if rec == nil {
			pending++
		}
		if rec != nil && rec.Status.Final() {
			mResumeHits.Inc()
			continue
		}
		e, ok := c.entries[id]
		if !ok || e.Run == nil {
			jobs = append(jobs, job{pos: i, id: id, skip: true, prev: rec})
			continue
		}
		prevFails := 0
		if rec != nil {
			prevFails = rec.FailedSessions
		}
		jobs = append(jobs, job{
			pos: i, id: id, entry: e, prev: rec,
			seed:    c.cfg.Seed + c.bump()*uint64(prevFails),
			session: sessionsOf(rec) + 1,
		})
	}

	ranThisSession := 0
	halted := false
	c.unsynced = c.unsynced[:0]
	err := pool.Run(ctx, workers, len(jobs),
		func(_ context.Context, i int) Attempt {
			j := jobs[i]
			if j.skip {
				return Attempt{}
			}
			// Format and time only for a configured log: boxing logf's
			// arguments costs allocations on every entry otherwise.
			var start time.Time
			if c.cfg.Log != nil {
				c.logf("campaign: %s (seed %d, session %d)", j.id, j.seed, j.session)
				start = time.Now()
			}
			var esp *obs.Span
			if octx.Enabled() {
				esp = octx.Tracer.Start(j.id, obs.TierEntry, root)
				esp.SetAttr("seed", strconv.FormatUint(j.seed, 10))
				esp.SetAttr("session", strconv.Itoa(j.session))
				if j.prev != nil && j.prev.FailedSessions > 0 {
					esp.SetAttr("failed_sessions", strconv.Itoa(j.prev.FailedSessions))
				}
			}
			att := c.contain(j.id, j.entry, j.seed, octx.Child(esp))
			if esp != nil {
				esp.SetAttr("attempts", strconv.Itoa(att.Attempts))
				esp.SetAttr("outcome", outcomeOf(j, att))
				if att.Err != nil {
					esp.SetAttr("error", firstLine(att.Err.Error()))
				}
				esp.Finish()
			}
			if c.cfg.Log != nil {
				c.logf("campaign: %s finished in %v", j.id, time.Since(start).Round(time.Millisecond))
			}
			return att
		},
		func(i int, att Attempt) (bool, error) {
			j := jobs[i]
			if j.prev == nil {
				pending--
			}
			if j.skip {
				mSkipped.Inc()
				return false, c.commit(mCheckpoints, &Record{ID: j.id, Status: StatusSkipped,
					Failure: &Failure{Msg: "no runner (unknown experiment id)"}})
			}
			mEntries.Inc()
			if att.Err != nil {
				mFailures.Inc()
			}
			if err := c.commit(mCheckpoints, buildRecord(j.id, j.seed, j.prev, att)); err != nil {
				return false, err
			}
			ranThisSession++
			if pending > 0 {
				if c.cfg.HaltAfter > 0 && ranThisSession >= c.cfg.HaltAfter {
					c.logf("campaign: halting after %d experiments (resumable)", ranThisSession)
					halted = true
					return true, nil
				}
				if !c.cfg.Deadline.IsZero() && time.Now().After(c.cfg.Deadline) {
					c.logf("campaign: wall deadline passed after %d/%d experiments (resumable)", j.pos+1, len(c.man.IDs))
					halted = true
					return true, nil
				}
			}
			return false, nil
		},
		c.flush)
	if root != nil {
		root.SetAttr("ran", strconv.Itoa(ranThisSession))
		if halted || err != nil {
			root.SetAttr("halted", "true")
		}
		root.Finish()
		// Flush here, not at Close: a halted labd job's spans must reach
		// the log before the process drains.
		_ = octx.Tracer.Flush()
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.logf("campaign: halted by cancellation (resumable)")
		halted, err = true, nil
	}
	// The session is over, whatever ended it: compact the journal into the
	// manifest. A failed compaction loses nothing — the journal holds every
	// committed record — so it only surfaces when nothing else went wrong.
	if c.cp != nil {
		if cerr := c.cp.Compact(c.man); err == nil {
			err = cerr
		}
	}
	switch {
	case err != nil:
		return c.man, c.haltOnDiskErr(err)
	case halted:
		return c.man, ErrHalted
	}
	return c.man, nil
}

// outcomeOf labels an entry span's result, carrying retry/resume
// provenance: "retried" marks a success that needed a prior failed
// session's seed bump.
func outcomeOf(j job, att Attempt) string {
	switch {
	case att.Err != nil:
		return "failed"
	case att.Degraded:
		return "degraded"
	case j.prev != nil && j.prev.FailedSessions > 0:
		return "retried"
	default:
		return "ok"
	}
}

// haltOnDiskErr turns an environmental disk fault (ENOSPC, EIO, quota,
// read-only remount) into a resumable halt: every record committed before
// the fault is already checkpointed, so the right move is to stop cleanly
// (exit 3 at the CLI, StateHalted in labd) and let the operator free
// space and resume — not to crash. Every other error passes through.
func (c *Campaign) haltOnDiskErr(err error) error {
	if err == nil || !durable.DiskErr(err) {
		return err
	}
	c.logf("campaign: disk fault: %v — halting (resumable)", err)
	return fmt.Errorf("campaign: disk fault: %v: %w", err, ErrHalted)
}

// contain runs one entry under panic recovery and the per-entry wall
// budget. Without a budget the entry runs on the calling goroutine — the
// pool worker that picked it — so an entry costs no goroutine, channel or
// wakeup. With one, the entry runs on a goroutine of its own, because only
// a goroutine can be abandoned: a timed-out runner is left behind, not
// killed (the deterministic simulation holds nothing that needs
// unwinding). An entry that panics outside its own recovery, or times out,
// records no telemetry — its counts died with it.
func (c *Campaign) contain(id string, e Entry, seed uint64, octx *obs.Ctx) Attempt {
	if c.cfg.ExpWall <= 0 {
		return runContained(id, e, seed, octx)
	}
	ch := make(chan Attempt, 1)
	go func() { ch <- runContained(id, e, seed, octx) }()
	timer := time.NewTimer(c.cfg.ExpWall)
	defer timer.Stop()
	select {
	case att := <-ch:
		return att
	case <-timer.C:
		return Attempt{Attempts: 1, Err: fmt.Errorf("entry %s exceeded its wall budget %s (runner abandoned)", id, c.cfg.ExpWall)}
	}
}

// runContained runs e on the calling goroutine and turns a panic into a
// failed attempt. For a traced campaign, octx — the entry's span context —
// is the one goroutine-scoped value left: it is scoped to this goroutine
// for the entry's run so the machines built here phase under the entry's
// span (obs.ScopeAmbient). Whether the entry returns or panics, its open
// machine phase is closed and the goroutine's prior scope restored, so a
// worker leaves each entry exactly as it found it.
func runContained(id string, e Entry, seed uint64, octx *obs.Ctx) (att Attempt) {
	if octx != nil {
		defer obs.ScopeAmbient(octx)()
	}
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("%v", r)
			}
			att = Attempt{Attempts: 1, Err: fmt.Errorf("entry %s panicked outside its guarded runner: %w", id, err)}
		}
		octx.ClosePhase() // a panicking entry still logs its open machine phase
	}()
	return e.Run(seed)
}

// buildRecord folds an attempt into the entry's record.
func buildRecord(id string, seed uint64, prev *Record, att Attempt) *Record {
	rec := &Record{ID: id, Attempts: att.Attempts, Seed: seed, Sessions: sessionsOf(prev) + 1,
		Telemetry: att.Telemetry}
	if prev != nil {
		rec.FailedSessions = prev.FailedSessions
	}
	if att.Err != nil {
		rec.Status = StatusFailed
		rec.FailedSessions++
		rec.Failure = classify(att.Err)
		return rec
	}
	switch {
	case rec.FailedSessions > 0:
		rec.Status = StatusRetried
	case att.Degraded:
		rec.Status = StatusDegraded
	default:
		rec.Status = StatusOK
	}
	rec.Rendered = att.Rendered
	rec.Metrics = att.Metrics
	return rec
}

// classify turns an error into a structured Failure, surfacing a kernel
// invariant violation (name, time, detail, machine dump) when one is in the
// cause chain.
func classify(err error) *Failure {
	f := &Failure{Msg: firstLine(err.Error())}
	var inv *kern.InvariantError
	if errors.As(err, &inv) {
		f.Invariant = inv.Name
		f.At = inv.At.String()
		f.Detail = inv.Detail
		f.Dump = inv.Dump
	}
	return f
}

// firstLine trims an error message to its headline.
func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// commit folds rec into the manifest and, if a path is configured,
// writes it to the journal. The flush that ends its batch commits it and
// shows it to the OnRecord hook. The caller passes its pre-resolved
// campaign_checkpoints_total handle (possibly nil).
func (c *Campaign) commit(m *metrics.Counter, rec *Record) error {
	c.man.Entries[rec.ID] = rec
	if c.cp != nil {
		m.Inc()
		if err := c.cp.Write(rec); err != nil {
			return err
		}
	}
	c.unsynced = append(c.unsynced, rec)
	return nil
}

// flush commits the records written since the last flush with one fsync
// (group commit), then shows them to the OnRecord hook in plan order.
func (c *Campaign) flush() error {
	if c.cp != nil {
		if err := c.cp.Sync(); err != nil {
			return err
		}
	}
	if c.cfg.OnRecord != nil {
		for _, rec := range c.unsynced {
			c.cfg.OnRecord(rec)
		}
	}
	c.unsynced = c.unsynced[:0]
	return nil
}

// bump returns the configured or default resume seed stride.
func (c *Campaign) bump() uint64 {
	if c.cfg.Bump != 0 {
		return c.cfg.Bump
	}
	return DefaultSeedBump
}

// logf writes one progress line; workers log concurrently, so writes are
// serialized (lines stay whole, their order reflects execution, not plan,
// order).
func (c *Campaign) logf(format string, args ...any) {
	if c.cfg.Log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.cfg.Log, format+"\n", args...)
}

// sessionsOf reads a possibly-nil record's session count.
func sessionsOf(r *Record) int {
	if r == nil {
		return 0
	}
	return r.Sessions
}

// indexEntries maps entries by ID.
func indexEntries(entries []Entry) map[string]Entry {
	out := make(map[string]Entry, len(entries))
	for _, e := range entries {
		out[e.ID] = e
	}
	return out
}

// idsOf lists entry IDs in plan order.
func idsOf(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.ID
	}
	return out
}
