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

// poolWorkload runs a deterministic mixed workload: a slack-lowered
// sleeper (the attack's hibernation shape), two compute hogs, the load
// balancer, and 20ms of simulated time.
func poolWorkload(m *Machine) {
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

func poolParams(cores int, seed uint64) Params {
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
	poolWorkload(m)
	return strings.Join(rec.lines, "\n"), stateSig(m)
}

// TestPoolMatchesFreshMachine: a pooled machine under seed S behaves
// exactly like NewMachine under S, on a cold shell and on a reused one
// (seed 7 comes back after the pool has run 1, 7 and 99).
func TestPoolMatchesFreshMachine(t *testing.T) {
	for _, tc := range []struct {
		name string
		newP func(seed uint64) Params
	}{
		{"cfs", func(seed uint64) Params { return poolParams(2, seed) }},
		{"eevdf", func(seed uint64) Params {
			p := DefaultParams(2, func() sched.Scheduler {
				return eevdf.New(sched.DefaultParams(2))
			})
			p.Seed = seed
			return p
		}},
		{"faults+slackrand", func(seed uint64) Params {
			p := poolParams(4, seed)
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
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool(tc.newP(1))
			for _, seed := range []uint64{1, 7, 99, 7} {
				fresh := NewMachine(tc.newP(seed))
				wantTrace, wantSig := runWithRecorder(fresh)
				fresh.Shutdown()

				pooled := pool.Get(seed, nil, nil)
				gotTrace, gotSig := runWithRecorder(pooled)
				pooled.Shutdown()

				if gotTrace != wantTrace {
					t.Fatalf("seed %d: pooled trace diverges from fresh machine", seed)
				}
				if gotSig != wantSig {
					t.Fatalf("seed %d: pooled final state diverges:\nfresh:\n%s\npooled:\n%s", seed, wantSig, gotSig)
				}
			}
			if s := pool.Stats(); s != (PoolStats{Forks: 4, Hits: 3, Misses: 1}) {
				t.Fatalf("pool stats = %+v, want 4 forks, 3 hits, 1 miss", s)
			}
		})
	}
}

// noResetSched strips the Resetter extension off a real scheduler:
// interface embedding only promotes Scheduler methods.
type noResetSched struct{ sched.Scheduler }

func TestNewPoolRequiresResetter(t *testing.T) {
	p := DefaultParams(1, func() sched.Scheduler {
		return noResetSched{cfs.New(sched.DefaultParams(1))}
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Resetter") {
			t.Fatalf("NewPool with a non-Resetter scheduler: recover()=%v, want a Resetter panic", r)
		}
	}()
	NewPool(p)
}

func TestPoolReuseStaysByteIdentical(t *testing.T) {
	pool := NewPool(poolParams(2, 1))

	seeds := []uint64{3, 11, 3, 11, 3}
	want := map[uint64][2]string{}
	for cycle, seed := range seeds {
		m := pool.Get(seed, nil, nil)
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

	// And a pooled machine must equal a from-scratch one, not merely be
	// self-consistent across reuse.
	fresh := NewMachine(poolParams(2, 11))
	wantTrace, wantSig := runWithRecorder(fresh)
	fresh.Shutdown()
	if got := want[11]; got[0] != wantTrace || got[1] != wantSig {
		t.Fatal("pooled machine diverges from a freshly built machine")
	}
}

func TestShutdownMidRunDoesNotPool(t *testing.T) {
	pool := NewPool(poolParams(1, 1))
	m := pool.Get(1, nil, nil)
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
	m.Shutdown()
	if pool.Idle() != 1 {
		t.Fatal("a second Shutdown must not park the machine twice")
	}
}

// TestForkZeroAllocsSteadyState pins the warm Get+reset cycle at zero heap
// allocations: with telemetry, faults and defense off and the flight
// recorder on (it always is), a Get/Run/Shutdown round trip reuses pooled
// machine and arena memory outright.
func TestForkZeroAllocsSteadyState(t *testing.T) {
	pool := NewPool(poolParams(2, 1))
	cycle := func() {
		m := pool.Get(1, nil, nil)
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
