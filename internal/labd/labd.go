// Package labd is the lab job service: a long-running daemon wrapper
// around the campaign engine. Clients submit campaign specs over HTTP, the
// service runs them one at a time (FIFO) with the spec's own intra-job
// parallelism, every job checkpoints to its own manifest under the state
// directory, and a drained or crashed service picks its unfinished jobs
// back up on restart via campaign.Resume — the same crash-safety contract
// the CLI campaigns have, lifted to a service.
//
// The package is experiment-agnostic, mirroring package campaign: the
// binding to the experiment registry (entry construction, spec validation,
// the manifest note) is injected through Config, so tests drive the full
// HTTP surface with fake entries and cmd/cplabd supplies the real ones.
package labd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Spec is one submitted campaign: the subset of cplab's campaign flags
// that shape results, plus the intra-job parallelism. SimBudget is
// nanoseconds (JSON numbers), matching time.Duration's encoding.
type Spec struct {
	// IDs is the experiment subset in plan order (empty = the full
	// registry, in paper order).
	IDs []string `json:"ids,omitempty"`
	// Paper selects the paper's sample sizes over quick shapes.
	Paper bool `json:"paper,omitempty"`
	// Seed is the campaign base seed (0 is normalized by the service's
	// Normalize hook; cplabd maps it to 1, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// Faults is the fault-injection rate per opportunity in [0,1].
	Faults float64 `json:"faults,omitempty"`
	// SimBudget bounds each watchdog phase in simulated time (0 = the
	// experiment defaults).
	SimBudget time.Duration `json:"simbudget,omitempty"`
	// Retries is the guarded bumped-seed retry budget per experiment.
	Retries int `json:"retries,omitempty"`
	// Parallel is the upper bound on this job's campaign workers (0 or 1 =
	// serial; the manifest is byte-identical at any width). The process's
	// CPU budget caps it: workers beyond the caller start only while a
	// helper token is free (package pool), so a job never runs more
	// entries at once than GOMAXPROCS.
	Parallel int `json:"parallel,omitempty"`
	// Resume optionally seeds the job with a previously checkpointed
	// manifest: before the job first runs, the manifest is written to the
	// job's state directory (unless one already exists) and the campaign
	// continues from it via campaign.Resume, re-running only missing and
	// failed entries. The cluster fabric uses this to requeue a shard on
	// another worker without losing the committed prefix. The manifest's
	// seed and note must match the spec's.
	Resume *campaign.Manifest `json:"resume,omitempty"`
}

// State is a job's lifecycle state.
type State string

// Job states. Queued, Running and Halted survive a restart as work (a
// halted job resumes from its manifest); the rest are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateHalted   State = "halted"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// States lists every job state, for metrics and views.
var States = []State{StateQueued, StateRunning, StateDone, StateHalted, StateFailed, StateCanceled}

// terminal reports whether a state needs no further work.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Config wires a Server to an experiment registry and a state directory.
type Config struct {
	// StateDir holds one subdirectory per job (state.json + the campaign's
	// manifest.json). It is created if missing.
	StateDir string
	// Entries builds the campaign plan for a spec. Required.
	Entries func(Spec) []campaign.Entry
	// ValidateSpec vets a spec at submission (nil accepts everything).
	ValidateSpec func(Spec) error
	// Normalize canonicalizes a spec at submission, before validation and
	// persistence (nil keeps it as-is); cplabd uses it to default the seed.
	Normalize func(Spec) Spec
	// Note derives the campaign note pinning the spec's non-seed
	// configuration (nil leaves notes empty). cplabd's note matches the
	// cplab CLI's format exactly, so daemon and CLI manifests are
	// interchangeable.
	Note func(Spec) string
	// QueueLimit caps jobs waiting to run (default 64).
	QueueLimit int
	// ExpWall bounds each entry's wall-clock time (0 = unbounded).
	ExpWall time.Duration
	// MaxBodyBytes caps the POST /jobs request body (default 8 MiB). Resume
	// manifests ride in the spec, so the cap is generous but present: an
	// unbounded body would let one client exhaust the daemon's memory.
	MaxBodyBytes int64
	// FS is the filesystem all job-state and campaign checkpoint I/O goes
	// through; nil means the real disk. cplabd's -diskchaos flag installs
	// an fsfault.Injector here.
	FS durable.FS
	// Log receives service progress lines (nil discards them).
	Log io.Writer
	// Obs, when set, is the tracing context jobs run under instead of the
	// process-wide ambient one. cplabd leaves it nil (one daemon, one
	// ambient tracer); tests hosting several in-process workers set it so
	// each worker traces into its own log, as separate daemons would.
	Obs *obs.Ctx
}

// fs resolves the configured filesystem.
func (c Config) fs() durable.FS {
	if c.FS != nil {
		return c.FS
	}
	return durable.OS()
}

// Validate checks the configuration in the style of fault.Config.Validate:
// the two required hooks must be present and every numeric tunable
// non-negative, so a mis-wired daemon fails loudly at construction instead
// of misbehaving under load.
func (c Config) Validate() error {
	if c.Entries == nil {
		return fmt.Errorf("labd: Config.Entries is required")
	}
	if c.StateDir == "" {
		return fmt.Errorf("labd: Config.StateDir is required")
	}
	if c.QueueLimit < 0 {
		return fmt.Errorf("labd: negative QueueLimit %d", c.QueueLimit)
	}
	if c.ExpWall < 0 {
		return fmt.Errorf("labd: negative ExpWall %s", c.ExpWall)
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("labd: negative MaxBodyBytes %d", c.MaxBodyBytes)
	}
	return nil
}

// JobView is the HTTP-facing snapshot of one job.
type JobView struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	Spec  Spec   `json:"spec"`
	// Done/Total count committed plan entries (Total is fixed at start).
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Error string `json:"error,omitempty"`
	// Clean reports a completed job whose records are all OK.
	Clean bool `json:"clean,omitempty"`
}

// job is the server-internal state, guarded by Server.mu.
type job struct {
	id         string
	seq        int
	state      State
	spec       Spec
	done       int
	total      int
	errMsg     string
	clean      bool
	cancel     context.CancelFunc // set while running
	userCancel bool               // DELETE requested (vs drain)
	// Propagated span lineage (Cp-Trace-Id / Cp-Span-Id): the job's spans
	// join the submitter's trace so coordinator and worker timelines
	// stitch. Persisted, so a restarted worker's resumed run stays on the
	// original trace.
	trace     string
	traceFrom string
}

// jobState is the persisted shape of a job (stateDir/<id>/state.json).
type jobState struct {
	ID          string `json:"id"`
	Seq         int    `json:"seq"`
	State       State  `json:"state"`
	Spec        Spec   `json:"spec"`
	Error       string `json:"error,omitempty"`
	Clean       bool   `json:"clean,omitempty"`
	Trace       string `json:"trace,omitempty"`
	TraceParent string `json:"trace_parent,omitempty"`
}

// Server runs the lab service. Build with NewServer, start the dispatcher
// with Start, expose Handler over HTTP, stop with Drain.
type Server struct {
	cfg Config

	mu           sync.Mutex
	jobs         map[string]*job
	order        []string // submission order
	nextSeq      int
	draining     bool
	entriesTotal int64 // committed entries across all jobs, this process
	busy         int   // entry-running campaign workers right now

	queue chan *job
	quit  chan struct{}
	idle  chan struct{} // closed when the dispatcher exits

	started time.Time // process start, for the uptime metrics
}

// NewServer loads (or initializes) the state directory and returns a
// server. Unfinished jobs from a previous process are found here but only
// re-enqueued by Start.
func NewServer(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 64
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("labd: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.QueueLimit),
		quit:    make(chan struct{}),
		idle:    make(chan struct{}),
		started: time.Now(),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNewServer is NewServer that panics on error, for wiring where the
// configuration is statically known to be valid.
func MustNewServer(cfg Config) *Server {
	s, err := NewServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// load scans the state directory for persisted jobs. Crash litter is
// cleaned as it goes: orphaned *.tmp files (from atomic writes a dead
// process never finished) are swept from the state dir and every job dir,
// and a corrupt state.json is quarantined — its bytes kept for postmortem
// but never mistaken for live state again.
func (s *Server) load() error {
	f := s.cfg.fs()
	if swept, err := durable.SweepTmp(f, s.cfg.StateDir); err == nil {
		for _, p := range swept {
			s.logf("labd: swept orphaned %s", p)
		}
	}
	dirs, err := f.ReadDir(s.cfg.StateDir)
	if err != nil {
		return fmt.Errorf("labd: %w", err)
	}
	var loaded []*job
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		jobDir := filepath.Join(s.cfg.StateDir, d.Name())
		if swept, err := durable.SweepTmp(f, jobDir); err == nil {
			for _, p := range swept {
				s.logf("labd: swept orphaned %s", p)
			}
		}
		statePath := filepath.Join(jobDir, "state.json")
		b, err := f.ReadFile(statePath)
		if err != nil {
			continue // not a job dir (or a torn submit); skip it
		}
		var st jobState
		if err := json.Unmarshal(b, &st); err != nil {
			dst, qerr := durable.Quarantine(f, statePath)
			if qerr != nil {
				dst = "(quarantine failed: " + qerr.Error() + ")"
			}
			s.logf("labd: corrupt state for %s quarantined as %s: %v", d.Name(), dst, err)
			continue
		}
		j := &job{id: st.ID, seq: st.Seq, state: st.State, spec: st.Spec, errMsg: st.Error, clean: st.Clean,
			trace: st.Trace, traceFrom: st.TraceParent}
		// A job that was mid-run when the process died is requeued; its
		// committed records survive in its journal and Resume skips them.
		if !j.state.terminal() {
			j.state = StateQueued
		}
		loaded = append(loaded, j)
		if st.Seq >= s.nextSeq {
			s.nextSeq = st.Seq + 1
		}
	}
	sort.Slice(loaded, func(i, k int) bool { return loaded[i].seq < loaded[k].seq })
	for _, j := range loaded {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	return nil
}

// Start launches the dispatcher and re-enqueues unfinished jobs from a
// previous process in their original submission order.
func (s *Server) Start() {
	s.mu.Lock()
	var backlog []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateQueued {
			backlog = append(backlog, j)
		}
	}
	s.mu.Unlock()
	for _, j := range backlog {
		select {
		case s.queue <- j:
			s.logf("labd: requeued %s from a previous session", j.id)
		default:
			s.logf("labd: queue full, leaving %s for the next restart", j.id)
		}
	}
	go s.dispatch()
}

// BeginDrain synchronously puts the service into shutdown: no new
// submissions are accepted, the queue stops dispatching, and the running
// job (if any) is cancelled — its campaign checkpoints the completed
// prefix and the job lands halted, to be resumed by the next process.
// Idempotent; returns as soon as the cancellation is delivered, without
// waiting for the job to wind down.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return
	}
	s.draining = true
	close(s.quit)
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
}

// Drain is BeginDrain plus waiting for the dispatcher to stop (the running
// job to checkpoint and settle) or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("labd: drain timed out: %w", ctx.Err())
	}
}

// dispatch is the FIFO job loop: one job at a time, each with its own
// intra-job parallelism.
func (s *Server) dispatch() {
	defer close(s.idle)
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one dequeued job through the campaign engine.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	if s.draining {
		s.mu.Unlock()
		return // stays queued; the next process picks it up
	}
	j.state = StateRunning
	j.cancel = cancel
	j.done, j.total = 0, 0
	spec := j.spec
	trace, traceFrom := j.trace, j.traceFrom
	s.persistLocked(j)
	s.mu.Unlock()

	// The job span roots this worker's share of the submitter's trace;
	// the campaign below runs under a child context (campaign.Config.Obs)
	// so its entry spans nest here. Disabled tracing makes all of this nil.
	octx := s.cfg.Obs
	if octx == nil {
		octx = obs.Ambient()
	}
	var jsp *obs.Span
	var campaignObs *obs.Ctx
	if octx.Enabled() {
		jsp = octx.Tracer.StartRemote("job "+j.id, obs.TierJob, trace, traceFrom)
		jsp.SetAttr("entries", strconv.Itoa(len(spec.IDs)))
		jsp.SetAttr("seed", strconv.FormatUint(spec.Seed, 10))
		if spec.Resume != nil {
			jsp.SetAttr("resume", "carried")
		}
		defer func() {
			s.mu.Lock()
			st, done := j.state, j.done
			s.mu.Unlock()
			jsp.SetAttr("state", string(st))
			jsp.SetAttr("done", strconv.Itoa(done))
			jsp.Finish()
			_ = octx.Tracer.Flush()
		}()
		campaignObs = octx.Child(jsp)
	}

	entries := s.wrapEntries(s.cfg.Entries(spec))
	workers := spec.Parallel
	if workers < 1 {
		workers = 1
	}
	note := ""
	if s.cfg.Note != nil {
		note = s.cfg.Note(spec)
	}
	ccfg := campaign.Config{
		Path:    filepath.Join(s.cfg.StateDir, j.id, "manifest.json"),
		Seed:    spec.Seed,
		Note:    note,
		ExpWall: s.cfg.ExpWall,
		FS:      s.cfg.FS,
		Log:     s.cfg.Log,
		Obs:     campaignObs,
		OnRecord: func(*campaign.Record) {
			s.mu.Lock()
			j.done++
			s.entriesTotal++
			s.mu.Unlock()
		},
	}

	// A spec-carried resume manifest seeds the job's checkpoint before the
	// first run: the check below then finds it and the ordinary Resume path
	// takes over. A store already on disk (this worker ran part of the job
	// before) wins over the carried manifest, which is at best a copy of it.
	if spec.Resume != nil && !campaign.Exists(s.cfg.fs(), ccfg.Path) {
		if err := spec.Resume.SaveFS(s.cfg.fs(), ccfg.Path); err != nil {
			s.finish(j, StateFailed, fmt.Sprintf("seeding resume manifest: %v", err), false)
			return
		}
	}

	var c *campaign.Campaign
	var err error
	if campaign.Exists(s.cfg.fs(), ccfg.Path) {
		c, err = campaign.Resume(ccfg, entries)
	} else {
		c, err = campaign.New(ccfg, entries)
	}
	if err != nil {
		s.finish(j, StateFailed, err.Error(), false)
		return
	}

	resumed := 0
	for _, rec := range c.Manifest().Entries {
		if rec.Status.Final() {
			resumed++
		}
	}
	s.mu.Lock()
	j.total = len(c.Manifest().IDs)
	j.done = resumed // final records kept across a resume
	s.mu.Unlock()

	s.logf("labd: %s running (%d entries, parallel %d)", j.id, len(c.Manifest().IDs), workers)
	man, runErr := c.RunParallel(ctx, workers)
	switch {
	case runErr == nil:
		s.finish(j, StateDone, "", man.Clean())
	case errors.Is(runErr, campaign.ErrHalted):
		s.mu.Lock()
		userCancel := j.userCancel
		s.mu.Unlock()
		if userCancel {
			s.finish(j, StateCanceled, "canceled by client", false)
		} else {
			s.finish(j, StateHalted, "", false)
		}
	default:
		s.finish(j, StateFailed, runErr.Error(), false)
	}
}

// wrapEntries tracks worker business around each entry run, for the
// utilization gauge.
func (s *Server) wrapEntries(entries []campaign.Entry) []campaign.Entry {
	out := make([]campaign.Entry, len(entries))
	for i, e := range entries {
		out[i] = e
		if run := e.Run; run != nil {
			out[i].Run = func(seed uint64) campaign.Attempt {
				s.mu.Lock()
				s.busy++
				s.mu.Unlock()
				defer func() {
					s.mu.Lock()
					s.busy--
					s.mu.Unlock()
				}()
				return run(seed)
			}
		}
	}
	return out
}

// finish records a job's terminal (or halted) state and persists it.
func (s *Server) finish(j *job, st State, errMsg string, clean bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.state = st
	j.errMsg = errMsg
	j.clean = clean
	j.cancel = nil
	s.persistLocked(j)
	s.logf("labd: %s %s", j.id, st)
}

// Submit validates, persists and enqueues a job for the given spec.
func (s *Server) Submit(spec Spec) (JobView, error) { return s.SubmitTraced(spec, "", "") }

// SubmitTraced is Submit carrying propagated span lineage: trace is the
// submitter's Cp-Trace-Id and parentRef its Cp-Span-Id ("proc:id"). Empty
// values mean an unlinked job (plain curl submissions).
func (s *Server) SubmitTraced(spec Spec, trace, parentRef string) (JobView, error) {
	if s.cfg.Normalize != nil {
		spec = s.cfg.Normalize(spec)
	}
	if s.cfg.ValidateSpec != nil {
		if err := s.cfg.ValidateSpec(spec); err != nil {
			return JobView{}, &submitError{status: http.StatusBadRequest, msg: err.Error()}
		}
	}
	// A carried resume manifest that cannot possibly match the spec is
	// refused up front, so a mis-assembled requeue fails the submission
	// (where the client retries against a different plan) instead of
	// landing the job in a terminal failed state.
	if spec.Resume != nil {
		if spec.Resume.Seed != spec.Seed {
			return JobView{}, &submitError{status: http.StatusBadRequest,
				msg: fmt.Sprintf("resume manifest seed %d does not match spec seed %d", spec.Resume.Seed, spec.Seed)}
		}
		if s.cfg.Note != nil {
			if note := s.cfg.Note(spec); spec.Resume.Note != note {
				return JobView{}, &submitError{status: http.StatusBadRequest,
					msg: fmt.Sprintf("resume manifest note %q does not match spec note %q", spec.Resume.Note, note)}
			}
		}
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, &submitError{status: http.StatusServiceUnavailable, msg: "service is draining"}
	}
	// Bound on channel occupancy, not the queued-state count: cancelled
	// jobs linger in the channel until the dispatcher skips them, and the
	// send below must never block while s.mu is held.
	if len(s.queue) >= cap(s.queue) {
		s.mu.Unlock()
		return JobView{}, &submitError{status: http.StatusServiceUnavailable, msg: "queue is full"}
	}
	seq := s.nextSeq
	s.nextSeq++
	j := &job{id: fmt.Sprintf("job-%06d", seq), seq: seq, state: StateQueued, spec: spec,
		trace: trace, traceFrom: parentRef}
	if err := os.MkdirAll(filepath.Join(s.cfg.StateDir, j.id), 0o755); err != nil {
		s.mu.Unlock()
		return JobView{}, &submitError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	s.persistLocked(j)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	view := viewLocked(j)
	s.queue <- j // guaranteed space: only Submit (under s.mu) sends
	s.mu.Unlock()

	s.logf("labd: %s queued", j.id)
	return view, nil
}

// Cancel cancels a job: a queued job is marked canceled in place, a
// running one has its context cancelled (the campaign checkpoints and the
// job lands canceled). Terminal jobs return an error.
func (s *Server) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, &submitError{status: http.StatusNotFound, msg: "no such job"}
	}
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled by client"
		s.persistLocked(j)
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	default:
		return JobView{}, &submitError{status: http.StatusConflict, msg: fmt.Sprintf("job is %s", j.state)}
	}
	return viewLocked(j), nil
}

// Job returns one job's view.
func (s *Server) Job(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return viewLocked(j), true
}

// Jobs lists every job in submission order.
func (s *Server) Jobs() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, viewLocked(s.jobs[id]))
	}
	return out
}

// ManifestPath returns the job's manifest file path.
func (s *Server) ManifestPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id, "manifest.json")
}

// WriteMetrics renders the service-level telemetry in the Prometheus text
// format: queue depth, jobs by state, committed entries (rate() gives
// entries/sec), and worker busy/capacity for utilization.
func (s *Server) WriteMetrics(w io.Writer) error {
	reg := metrics.New()
	s.mu.Lock()
	counts := map[State]int64{}
	for _, j := range s.jobs {
		counts[j.state]++
	}
	for _, st := range States {
		reg.Gauge(fmt.Sprintf("labd_jobs{state=%q}", st)).Set(counts[st])
	}
	reg.Gauge("labd_queue_depth").Set(counts[StateQueued])
	reg.Counter("labd_entries_total").Add(s.entriesTotal)
	reg.Gauge("labd_workers_busy").Set(int64(s.busy))
	reg.Gauge("labd_worker_capacity").Set(int64(runtime.GOMAXPROCS(0)))
	reg.Gauge(fmt.Sprintf("labd_build_info{goversion=%q,version=%q}",
		runtime.Version(), obs.Version())).Set(1)
	reg.Gauge("labd_process_start_time_seconds").Set(s.started.Unix())
	reg.Gauge("labd_process_uptime_seconds").Set(int64(time.Since(s.started).Seconds()))
	s.mu.Unlock()
	return reg.WritePrometheus(w)
}

// viewLocked snapshots a job; the caller holds s.mu. The spec's carried
// resume manifest is stripped from views: it can be megabytes of records
// the client already has, and job listings must stay cheap.
func viewLocked(j *job) JobView {
	spec := j.spec
	spec.Resume = nil
	return JobView{ID: j.id, State: j.state, Spec: spec, Done: j.done, Total: j.total, Error: j.errMsg, Clean: j.clean}
}

// persistLocked writes the job's state.json atomically; the caller holds
// s.mu. Persistence failures are logged, not fatal: the live service keeps
// working, only restart fidelity degrades.
func (s *Server) persistLocked(j *job) {
	st := jobState{ID: j.id, Seq: j.seq, State: j.state, Spec: j.spec, Error: j.errMsg, Clean: j.clean,
		Trace: j.trace, TraceParent: j.traceFrom}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		s.logf("labd: persist %s: %v", j.id, err)
		return
	}
	b = append(b, '\n')
	path := filepath.Join(s.cfg.StateDir, j.id, "state.json")
	if err := durable.WriteFileAtomic(s.cfg.fs(), path, b, 0o644); err != nil {
		s.logf("labd: persist %s: %v", j.id, err)
	}
}

// logf writes one service log line.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, format+"\n", args...)
}

// submitError pairs an HTTP status with a message.
type submitError struct {
	status int
	msg    string
}

func (e *submitError) Error() string { return e.msg }

// httpStatus maps an error to a status code (500 when unclassified).
func httpStatus(err error) int {
	var se *submitError
	if errors.As(err, &se) {
		return se.status
	}
	return http.StatusInternalServerError
}
