package kern

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/defense"
	"repro/internal/eevdf"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/timebase"
)

// sigTracer records every scheduling event as a formatted line; two machines
// behaving identically produce identical transcripts.
type sigTracer struct{ lines []string }

func (r *sigTracer) SchedIn(t *Thread, core int, decideAt, startAt timebase.Time) {
	r.lines = append(r.lines, fmt.Sprintf("in t%d c%d %d %d", t.id, core, decideAt, startAt))
}

func (r *sigTracer) SchedOut(t *Thread, core int, at timebase.Time, reason SchedOutReason) {
	r.lines = append(r.lines, fmt.Sprintf("out t%d c%d %d %s", t.id, core, at, reason))
}

func (r *sigTracer) Wake(t *Thread, core int, at timebase.Time, preempted bool, curr *Thread) {
	cid := 0
	if curr != nil {
		cid = curr.id
	}
	r.lines = append(r.lines, fmt.Sprintf("wake t%d c%d %d %v vs t%d", t.id, core, at, preempted, cid))
}

// stateSig fingerprints a machine's post-run simulation state: clocks, RNG
// stream positions, event tie-breaking counter, and per-thread accounting.
func stateSig(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d yields=%d sim=%#x prog=%#x evseq=%d tid=%d\n",
		m.Now(), m.yieldCount, m.simRNG.State(), m.progRNG.State(), m.events.seq, m.nextTID)
	for _, t := range m.Threads() {
		fmt.Fprintf(&b, "t%d %s state=%v vrt=%d exec=%d ret=%d core=%d\n",
			t.ID(), t.Name(), t.State(), t.Task().Vruntime, t.Task().SumExec, t.Retired(), t.CoreID())
	}
	for _, c := range m.Cores() {
		curr := 0
		if c.Curr() != nil {
			curr = c.Curr().ID()
		}
		fmt.Fprintf(&b, "c%d curr=t%d clock=%d nq=%d\n", c.ID(), curr, c.clock, c.RQ().NrQueued())
	}
	return b.String()
}

// snapWorkload runs a deterministic mixed workload: a slack-lowered
// sleeper (the attack's hibernation shape), two compute hogs, the load
// balancer, and 20ms of simulated time.
func snapWorkload(m *Machine) {
	m.Spawn("hiber", func(e *Env) {
		e.SetTimerSlack(1)
		for i := 0; i < 40; i++ {
			e.Burn(20 * timebase.Microsecond)
			e.Nanosleep(150 * timebase.Microsecond)
		}
	})
	m.Spawn("cpu1", func(e *Env) { e.RunLoopForever(loopBody(64)) })
	m.Spawn("cpu2", func(e *Env) { e.RunLoopForever(loopBody(32)) })
	m.StartBalancer()
	m.RunFor(20 * timebase.Millisecond)
}

func snapParams(cores int, seed uint64) Params {
	p := DefaultParams(cores, func() sched.Scheduler {
		return cfs.New(sched.DefaultParams(cores))
	})
	p.Seed = seed
	return p
}

// runWithRecorder drives the workload under a recording tracer and returns
// transcript plus final-state fingerprint.
func runWithRecorder(m *Machine) (string, string) {
	rec := &sigTracer{}
	m.AttachTracer(rec)
	snapWorkload(m)
	return strings.Join(rec.lines, "\n"), stateSig(m)
}

func TestForkSeededMatchesFreshMachine(t *testing.T) {
	for _, kind := range []string{"cfs", "eevdf"} {
		t.Run(kind, func(t *testing.T) {
			newP := func(seed uint64) Params {
				if kind == "eevdf" {
					p := DefaultParams(2, func() sched.Scheduler {
						return eevdf.New(sched.DefaultParams(2))
					})
					p.Seed = seed
					return p
				}
				return snapParams(2, seed)
			}
			tmpl := NewMachine(newP(1))
			defer tmpl.Shutdown()
			snap, err := tmpl.Snapshot()
			if err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if !snap.Pristine() {
				t.Fatal("template snapshot not pristine")
			}
			for _, seed := range []uint64{1, 7, 99} {
				fresh := NewMachine(newP(seed))
				wantTrace, wantSig := runWithRecorder(fresh)
				fresh.Shutdown()

				forked, err := snap.ForkSeeded(seed)
				if err != nil {
					t.Fatalf("ForkSeeded(%d): %v", seed, err)
				}
				gotTrace, gotSig := runWithRecorder(forked)
				forked.Shutdown()

				if gotTrace != wantTrace {
					t.Fatalf("seed %d: forked trace diverges from fresh machine", seed)
				}
				if gotSig != wantSig {
					t.Fatalf("seed %d: forked final state diverges:\nfresh:\n%s\nforked:\n%s", seed, wantSig, gotSig)
				}
			}
		})
	}
}

func TestForkSeededUnderFaultsAndDefense(t *testing.T) {
	newP := func(seed uint64) Params {
		p := snapParams(4, seed)
		p.Faults = fault.Config{
			Rate:  0.2,
			Kinds: []fault.Kind{fault.DelayIRQ, fault.SpuriousWake, fault.Preempt},
		}
		cfg, err := defense.Preset("slackrand")
		if err != nil {
			t.Fatalf("preset: %v", err)
		}
		p.Defense = cfg
		return p
	}
	tmpl := NewMachine(newP(1))
	defer tmpl.Shutdown()
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, seed := range []uint64{1, 42} {
		fresh := NewMachine(newP(seed))
		wantTrace, wantSig := runWithRecorder(fresh)
		fresh.Shutdown()
		forked, err := snap.ForkSeeded(seed)
		if err != nil {
			t.Fatalf("ForkSeeded(%d): %v", seed, err)
		}
		gotTrace, gotSig := runWithRecorder(forked)
		forked.Shutdown()
		if gotTrace != wantTrace || gotSig != wantSig {
			t.Fatalf("seed %d: chaotic+defended fork diverges from fresh machine", seed)
		}
	}
}

func TestForkRestoresSpawnedThreads(t *testing.T) {
	// Spawn before any Run: the machine holds placed-but-never-executed
	// threads, runqueue state, armed ticks and consumed switch jitter.
	build := func() *Machine {
		m := NewMachine(snapParams(2, 5))
		m.Spawn("a", func(e *Env) { e.RunLoopForever(loopBody(64)) }, WithPin(0))
		m.Spawn("b", func(e *Env) { e.RunLoopForever(loopBody(32)) }, WithPin(0))
		m.Spawn("c", func(e *Env) {
			e.SetTimerSlack(1)
			for i := 0; i < 10; i++ {
				e.Burn(10 * timebase.Microsecond)
				e.Nanosleep(100 * timebase.Microsecond)
			}
		}, WithPin(1), WithNice(-5))
		m.StartBalancer()
		return m
	}
	src := build()
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if snap.Pristine() {
		t.Fatal("snapshot with spawned threads must not be pristine")
	}
	forked, err := snap.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}

	run := func(m *Machine) (string, string) {
		rec := &sigTracer{}
		m.AttachTracer(rec)
		m.RunFor(10 * timebase.Millisecond)
		return strings.Join(rec.lines, "\n"), stateSig(m)
	}
	wantTrace, wantSig := run(src)
	gotTrace, gotSig := run(forked)
	src.Shutdown()
	forked.Shutdown()
	if gotTrace != wantTrace {
		t.Fatal("forked machine's schedule diverges from the captured one")
	}
	if gotSig != wantSig {
		t.Fatalf("forked final state diverges:\nsrc:\n%s\nfork:\n%s", wantSig, gotSig)
	}

	// Re-seeding a non-pristine snapshot is invalid: the capture already
	// consumed seed-derived randomness at spawn placement.
	if _, err := snap.ForkSeeded(6); err == nil {
		t.Fatal("ForkSeeded on a non-pristine snapshot should fail")
	}
}

func TestSnapshotRejectsExecutedMachine(t *testing.T) {
	m := newTestMachine(t, 1)
	m.Spawn("w", func(e *Env) { e.Burn(timebase.Microsecond) })
	m.RunFor(timebase.Millisecond)
	if _, err := m.Snapshot(); err == nil {
		t.Fatal("Snapshot after thread execution should fail")
	}
}

// noCloneSched strips the Cloner extension off a real scheduler: interface
// embedding only promotes Scheduler methods.
type noCloneSched struct{ sched.Scheduler }

func TestSnapshotRequiresClonerScheduler(t *testing.T) {
	p := DefaultParams(1, func() sched.Scheduler {
		return noCloneSched{cfs.New(sched.DefaultParams(1))}
	})
	m := NewMachine(p)
	defer m.Shutdown()
	if _, err := m.Snapshot(); err == nil || !strings.Contains(err.Error(), "Cloner") {
		t.Fatalf("Snapshot with a non-Cloner scheduler: err=%v, want Cloner error", err)
	}
}

func TestPoolReuseStaysByteIdentical(t *testing.T) {
	tmpl := NewMachine(snapParams(2, 1))
	defer tmpl.Shutdown()
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	pool := NewPool(snap)

	seeds := []uint64{3, 11, 3, 11, 3}
	want := map[uint64][2]string{}
	for cycle, seed := range seeds {
		m, err := pool.GetSeeded(seed, nil, nil)
		if err != nil {
			t.Fatalf("GetSeeded(%d): %v", seed, err)
		}
		trace, sig := runWithRecorder(m)
		m.Shutdown()
		if prev, ok := want[seed]; ok {
			if trace != prev[0] || sig != prev[1] {
				t.Fatalf("cycle %d: reused pooled machine diverges for seed %d", cycle, seed)
			}
		} else {
			want[seed] = [2]string{trace, sig}
		}
	}
	if pool.Idle() != 1 {
		t.Fatalf("pool idle = %d, want 1 (serial reuse)", pool.Idle())
	}

	// And a pooled fork must equal a from-scratch machine, not merely be
	// self-consistent across reuse.
	fresh := NewMachine(snapParams(2, 11))
	wantTrace, wantSig := runWithRecorder(fresh)
	fresh.Shutdown()
	if got := want[11]; got[0] != wantTrace || got[1] != wantSig {
		t.Fatal("pooled fork diverges from a freshly built machine")
	}
}

func TestShutdownMidRunDoesNotPool(t *testing.T) {
	tmpl := NewMachine(snapParams(1, 1))
	defer tmpl.Shutdown()
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	pool := NewPool(snap)
	m, err := pool.Get()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	// A machine that unwound out of Run (panic from an invariant check or a
	// thread body) leaves running=true; Shutdown must refuse to pool it.
	m.running = true
	m.Shutdown()
	if pool.Idle() != 0 {
		t.Fatal("a machine that never cleanly left Run must not return to the pool")
	}
	m.running = false
	m.Shutdown()
	if pool.Idle() != 1 {
		t.Fatal("a cleanly finished pooled machine should return to the pool")
	}
}

// TestForkZeroAllocsSteadyState pins the warm fork+reset cycle at zero heap
// allocations: with telemetry, faults and defense off and the flight
// recorder on (it always is), a Get/Run/Shutdown round trip reuses pooled
// machine and arena memory outright.
func TestForkZeroAllocsSteadyState(t *testing.T) {
	p := snapParams(2, 1)
	tmpl := NewMachine(p)
	defer tmpl.Shutdown()
	snap, err := tmpl.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	pool := NewPool(snap)
	cycle := func() {
		m, err := pool.Get()
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		m.RunFor(timebase.Millisecond)
		m.Shutdown()
	}
	// Warm up the pool's free list and the shell's arenas.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("warm fork+reset cycle allocates %v/run, want 0", avg)
	}
}
