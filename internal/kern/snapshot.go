package kern

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// Snapshot is a deep, deterministic capture of a machine's full state:
// kernel (event queue, cores, runqueues, threads, yield/TID counters),
// microarchitectural arenas, both RNG streams, and fault/defense state. It
// is self-contained — mutating or shutting down the source machine after
// Snapshot returns does not invalidate it — and immutable: one snapshot can
// seed any number of forks, concurrently-built machines included (forks of
// one snapshot from multiple goroutines must still be externally
// serialized, like every other kern entry point).
//
// The one thing Go cannot capture is a goroutine stack, so Snapshot is
// gated on the machine never having executed a thread instruction
// (yieldCount == 0): spawned-but-never-run threads are restorable — their
// goroutines are parked at the initial resume, a state t.start() recreates
// exactly — but a machine that has run is not. This is no restriction for
// the pooling workload the snapshot serves: templates are captured right
// after construction, and each fork then spawns and runs its own workload.
//
// Telemetry, tracers and profilers are deliberately NOT captured: a fork
// resolves them at fork time (the snapshot's Params.Metrics/Profiler, or
// the sinks handed to Pool.GetSeeded), exactly as a fresh NewMachine
// would, so per-fork registries see per-fork counts.
type Snapshot struct {
	p        Params
	pristine bool

	now        timebase.Time
	nextTID    int
	sinceCheck int64

	simState  uint64
	progState uint64

	hasFaults  bool
	faultState fault.InjectorState

	hasDefense   bool
	defenseState defense.SetState

	threads []threadSnap
	cores   []coreSnap
	// rqs are snapshot-owned runqueue clones, one per core, whose task
	// pointers resolve into the threads slice's task copies.
	rqs []sched.Cloner

	events   []eventSnap
	eventSeq int64

	bytes int64
}

// threadSnap captures one spawned (never-run) thread. The program closure is
// shared by reference — thread bodies are pure simulated programs.
type threadSnap struct {
	id      int
	name    string
	prog    Func
	pinned  int
	enclave bool
	ctx     cpu.Context

	timerSlack timebase.Duration
	clock      timebase.Time
	coreID     int

	task sched.Task

	sleepStart     timebase.Time
	blockedIn      blockKind
	wakeTime       timebase.Time
	wakePreempted  bool
	signalExtra    timebase.Duration
	pendingSignals int
}

// coreSnap captures one core's scheduling clock state; the runqueue itself
// is held in Snapshot.rqs.
type coreSnap struct {
	currTID    int // 0 when the core idles
	clock      timebase.Time
	currStart  timebase.Time
	lastUpdate timebase.Time
	tickArmed  bool
}

// eventSnap captures one queued event, in the queue's internal (heap-array)
// order with its original tie-breaking sequence number.
type eventSnap struct {
	at        timebase.Time
	seq       int64
	kind      eventKind
	threadID  int // 0 when the event targets no thread
	coreID    int // -1 when the event targets no core
	cancelled bool
	dropped   bool
}

// Snapshot deep-captures the machine's state. It errors if the machine has
// executed any thread instruction (goroutine stacks cannot be captured), is
// inside Run, holds state only execution can create (pending hardware-timer
// deliveries), or runs a scheduler policy that does not implement
// sched.Cloner.
func (m *Machine) Snapshot() (*Snapshot, error) {
	if m.running {
		return nil, fmt.Errorf("kern: Snapshot inside Run")
	}
	if m.inPool {
		return nil, fmt.Errorf("kern: Snapshot of a pooled (shut down) machine")
	}
	if m.yieldCount != 0 {
		return nil, fmt.Errorf("kern: Snapshot after %d thread yields: executed goroutine stacks cannot be captured; snapshot before the first Run that resumes a thread", m.yieldCount)
	}
	s := &Snapshot{
		p:          m.p,
		now:        m.now,
		nextTID:    m.nextTID,
		sinceCheck: m.sinceCheck,
		simState:   m.simRNG.State(),
		progState:  m.progRNG.State(),
	}
	s.pristine = m.now == 0 && len(m.threads) == 0
	if m.faults != nil {
		s.hasFaults = true
		s.faultState = m.faults.CaptureState()
	}
	if m.defense != nil {
		s.hasDefense = true
		s.defenseState = m.defense.CaptureState()
	}

	if len(m.threads) > 0 {
		s.threads = make([]threadSnap, 0, len(m.threads))
		for _, t := range m.threads {
			if t.done {
				return nil, fmt.Errorf("kern: Snapshot found exited thread %s before any yield", t)
			}
			if t.wakeEvent != nil || t.specPeek != nil {
				return nil, fmt.Errorf("kern: Snapshot found execution state on never-run thread %s", t)
			}
			s.threads = append(s.threads, threadSnap{
				id:             t.id,
				name:           t.name,
				prog:           t.prog,
				pinned:         t.pinned,
				enclave:        t.enclave,
				ctx:            t.ctx,
				timerSlack:     t.timerSlack,
				clock:          t.clock,
				coreID:         t.core.id,
				task:           *t.task,
				sleepStart:     t.sleepStart,
				blockedIn:      t.blockedIn,
				wakeTime:       t.wakeTime,
				wakePreempted:  t.wakePreempted,
				signalExtra:    t.signalExtra,
				pendingSignals: t.pendingSignals,
			})
		}
	}
	rm := s.taskRemap()

	s.cores = make([]coreSnap, len(m.cores))
	s.rqs = make([]sched.Cloner, len(m.cores))
	for i, c := range m.cores {
		cl, ok := c.rq.(sched.Cloner)
		if !ok {
			return nil, fmt.Errorf("kern: Snapshot requires runqueues implementing sched.Cloner; core %d's %q does not", i, c.rq.Name())
		}
		hold := m.p.NewSched()
		holdCl, ok := hold.(sched.Cloner)
		if !ok {
			return nil, fmt.Errorf("kern: Params.NewSched built a %q without sched.Cloner", hold.Name())
		}
		cl.CloneInto(hold, rm)
		s.rqs[i] = holdCl
		cs := coreSnap{
			clock:      c.clock,
			currStart:  c.currStart,
			lastUpdate: c.lastUpdate,
			tickArmed:  c.tickArmed,
		}
		if c.curr != nil {
			cs.currTID = c.curr.id
		}
		s.cores[i] = cs
	}

	for _, e := range m.events.heap {
		if e.timer != nil {
			return nil, fmt.Errorf("kern: Snapshot found a pending periodic-timer delivery; timers only exist after execution")
		}
		switch e.kind {
		case evFault, evTick, evBalance:
		default:
			return nil, fmt.Errorf("kern: Snapshot found a pending %s event; such events only exist after execution", e.kind)
		}
		es := eventSnap{
			at:        e.at,
			seq:       e.seq,
			kind:      e.kind,
			coreID:    -1,
			cancelled: e.cancelled,
			dropped:   e.dropped,
		}
		if e.core != nil {
			es.coreID = e.core.id
		}
		if e.thread != nil {
			es.threadID = e.thread.id
		}
		s.events = append(s.events, es)
	}
	s.eventSeq = m.events.seq

	s.bytes = s.estimateBytes()
	return s, nil
}

// taskRemap returns a translator from any task ID present in the snapshot
// to the snapshot-owned task copy, or nil when no threads were captured.
func (s *Snapshot) taskRemap() func(*sched.Task) *sched.Task {
	if len(s.threads) == 0 {
		return nil
	}
	byID := make(map[int]*sched.Task, len(s.threads))
	for i := range s.threads {
		byID[s.threads[i].id] = &s.threads[i].task
	}
	return func(t *sched.Task) *sched.Task {
		nt := byID[t.ID]
		if nt == nil {
			panic(fmt.Sprintf("kern: snapshot remap of unknown task %d (%s)", t.ID, t.Name))
		}
		return nt
	}
}

// Params returns the captured machine parameters.
func (s *Snapshot) Params() Params { return s.p }

// Pristine reports whether the capture predates all spawning and time
// advance, which is what makes re-seeded forks (ForkSeeded) valid.
func (s *Snapshot) Pristine() bool { return s.pristine }

// Bytes returns a deterministic estimate of the snapshot's retained size,
// exported as the kern_snapshot_bytes gauge by exps.MachinePool.
func (s *Snapshot) Bytes() int64 { return s.bytes }

func (s *Snapshot) estimateBytes() int64 {
	// Struct-size constants are stated rather than measured so the gauge is
	// identical across architectures; they track the field lists above.
	const (
		baseBytes   = 1024 // Snapshot header + Params + per-core runqueue holders
		coreBytes   = 96
		eventBytes  = 64
		threadBytes = 256
	)
	b := int64(baseBytes)
	b += int64(len(s.cores)) * coreBytes
	b += int64(len(s.events)) * eventBytes
	for i := range s.threads {
		b += threadBytes + int64(len(s.threads[i].name))
	}
	return b
}

// Fork builds a fresh machine that is a byte-exact replica of the captured
// one: same seed, same RNG stream positions, same queued events, threads and
// runqueue state. Telemetry, tracer and profiler wiring are re-resolved at
// fork time from the captured Params, never copied.
func (s *Snapshot) Fork() (*Machine, error) {
	m := buildShell(s.p)
	if err := s.applyTo(m, s.p); err != nil {
		return nil, err
	}
	return m, nil
}

// ForkSeeded builds a machine identical to a fresh NewMachine with the
// captured parameters under a different seed. Only pristine snapshots
// (captured before any spawn or time advance) support re-seeding: the
// captured machine has consumed no randomness, so re-deriving every stream
// from the new seed reproduces construction exactly.
func (s *Snapshot) ForkSeeded(seed uint64) (*Machine, error) {
	if seed != s.p.Seed && !s.pristine {
		return nil, fmt.Errorf("kern: ForkSeeded on a non-pristine snapshot (threads or time captured); only the original seed %d can be forked", s.p.Seed)
	}
	p := s.p
	p.Seed = seed
	m := buildShell(p)
	if err := s.applyTo(m, p); err != nil {
		return nil, err
	}
	return m, nil
}

// applyTo completes a machine shell (fresh or pool-scrubbed) from the
// snapshot under p: the captured parameters with the fork's seed and
// telemetry sinks. With the original seed the captured state is restored
// verbatim; with a new seed (pristine snapshots only) construction is
// re-run from the new seed and the template's post-construction event
// schedule (a started balancer) is replayed.
func (s *Snapshot) applyTo(m *Machine, p Params) error {
	m.init(p)

	if p.Seed != s.p.Seed {
		// Re-seeded pristine fork: init re-derived everything, including
		// the fault injector's first check event. Replay only the events a
		// caller scheduled on the template after construction.
		for _, es := range s.events {
			if es.kind == evFault {
				continue
			}
			e := m.events.alloc()
			e.at, e.seq, e.kind = es.at, es.seq, es.kind
			e.cancelled, e.dropped = es.cancelled, es.dropped
			if es.coreID >= 0 {
				e.core = m.cores[es.coreID]
			}
			m.events.pushRaw(e)
		}
		m.events.seq = s.eventSeq
		return nil
	}

	// Original seed: overwrite init's freshly derived state with the
	// captured state, byte for byte.
	m.now = s.now
	m.nextTID = s.nextTID
	m.sinceCheck = s.sinceCheck
	m.simRNG.SetState(s.simState)
	m.progRNG.SetState(s.progState)
	if s.hasFaults {
		m.faults.RestoreState(s.faultState)
	}
	if s.hasDefense {
		m.defense.RestoreState(s.defenseState)
	}

	// Threads re-park their goroutines at the initial resume; restoring
	// them moves no telemetry and emits no tracer events (wiring is
	// re-attached per fork, never snapshotted).
	var rm func(*sched.Task) *sched.Task
	if len(s.threads) > 0 {
		byID := make(map[int]*sched.Task, len(s.threads))
		for i := range s.threads {
			ts := &s.threads[i]
			t := &Thread{
				id:             ts.id,
				name:           ts.name,
				m:              m,
				prog:           ts.prog,
				pinned:         ts.pinned,
				enclave:        ts.enclave,
				ctx:            ts.ctx,
				timerSlack:     ts.timerSlack,
				clock:          ts.clock,
				core:           m.cores[ts.coreID],
				sleepStart:     ts.sleepStart,
				blockedIn:      ts.blockedIn,
				wakeTime:       ts.wakeTime,
				wakePreempted:  ts.wakePreempted,
				signalExtra:    ts.signalExtra,
				pendingSignals: ts.pendingSignals,
			}
			task := ts.task
			t.task = &task
			m.threads = append(m.threads, t)
			byID[t.id] = t.task
			t.start()
		}
		rm = func(t *sched.Task) *sched.Task {
			nt := byID[t.ID]
			if nt == nil {
				panic(fmt.Sprintf("kern: fork remap of unknown task %d (%s)", t.ID, t.Name))
			}
			return nt
		}
	}
	for i, c := range m.cores {
		cs := &s.cores[i]
		s.rqs[i].CloneInto(c.rq, rm)
		if cs.currTID != 0 {
			t := m.threadByID(cs.currTID)
			if t == nil {
				return fmt.Errorf("kern: fork restore of core %d: unknown current thread %d", i, cs.currTID)
			}
			c.curr = t
		}
		c.clock = cs.clock
		c.currStart = cs.currStart
		c.lastUpdate = cs.lastUpdate
		c.tickArmed = cs.tickArmed
	}

	// Replace init's event schedule with the captured one verbatim: the
	// heap-array capture order is a valid heap, and pushRaw preserves the
	// recorded tie-breaking sequence numbers.
	m.events.reset()
	for _, es := range s.events {
		e := m.events.alloc()
		e.at, e.seq, e.kind = es.at, es.seq, es.kind
		e.cancelled, e.dropped = es.cancelled, es.dropped
		if es.coreID >= 0 {
			e.core = m.cores[es.coreID]
		}
		if es.threadID != 0 {
			e.thread = m.threadByID(es.threadID)
		}
		m.events.pushRaw(e)
	}
	m.events.seq = s.eventSeq
	return nil
}

// threadByID finds a thread by simulated PID, or nil.
func (m *Machine) threadByID(id int) *Thread {
	for _, t := range m.threads {
		if t.id == id {
			return t
		}
	}
	return nil
}

// Pool is a free-pool of machines built from one snapshot: Get forks a
// machine (reusing the memory of a previously shut-down one when
// available), and Shutdown on a pooled machine scrubs it and returns it
// instead of discarding it. In steady state a Get+Run+Shutdown cycle
// reuses the event arena, runqueue nodes, cache/TLB slabs, telemetry block
// and flight ring of earlier cycles — the warm fork path allocates nothing.
//
// A Pool is single-goroutine, like the machines it manages: parallel
// campaign workers each keep their own pool (see exps.PoolSet).
type Pool struct {
	snap  *Snapshot
	free  []*Machine
	stats PoolStats
}

// PoolStats counts a pool's activity: Forks machines handed out, split by
// whether pooled memory was reused (Hits) or a shell was built (Misses).
// They are plain counts, not registry instruments, so the owner decides
// when (and under which lock) to publish them.
type PoolStats struct {
	Forks, Hits, Misses int64
}

// NewPool builds a pool over s.
func NewPool(s *Snapshot) *Pool { return &Pool{snap: s} }

// Stats returns the pool's activity so far.
func (p *Pool) Stats() PoolStats { return p.stats }

// Snapshot returns the pool's template snapshot.
func (p *Pool) Snapshot() *Snapshot { return p.snap }

// Idle returns how many scrubbed machines are parked in the pool.
func (p *Pool) Idle() int { return len(p.free) }

// Get forks the snapshot under its original seed and sinks, reusing pooled
// memory when available. Shutdown returns the machine here.
func (p *Pool) Get() (*Machine, error) {
	return p.GetSeeded(p.snap.p.Seed, p.snap.p.Metrics, p.snap.p.Profiler)
}

// GetSeeded forks the snapshot under the given seed (pristine snapshots
// only, unless the seed is the original), reporting into reg and prof
// (either may be nil) instead of the snapshot's own sinks — so one
// template serves machines with per-fork registries. Shutdown returns the
// machine here.
func (p *Pool) GetSeeded(seed uint64, reg *metrics.Registry, prof *metrics.Profiler) (*Machine, error) {
	if seed != p.snap.p.Seed && !p.snap.pristine {
		return nil, fmt.Errorf("kern: pool over a non-pristine snapshot can only fork the original seed %d", p.snap.p.Seed)
	}
	var m *Machine
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		m.inPool = false
		p.stats.Hits++
	} else {
		m = buildShell(p.snap.p)
		p.stats.Misses++
	}
	fp := p.snap.p
	fp.Seed, fp.Metrics, fp.Profiler = seed, reg, prof
	if err := p.snap.applyTo(m, fp); err != nil {
		return nil, err
	}
	m.pool = p
	p.stats.Forks++
	return m, nil
}

// put files a scrubbed machine for reuse (called by Machine.Shutdown).
func (p *Pool) put(m *Machine) { p.free = append(p.free, m) }
