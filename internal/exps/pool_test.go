package exps

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfs"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// mutateLeaves calls visit once per settable leaf under v (numbers, bools,
// strings and slices, recursing into structs), after changing that leaf to
// a different value; restore puts it back before the next leaf.
func mutateLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			mutateLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Func, reflect.Pointer:
		return // NewSched, Metrics, Profiler: checked separately
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 1, 1)
		s.Index(0).Set(reflect.New(v.Type().Elem()).Elem())
		v.Set(s)
	default:
		t.Fatalf("%s: unhandled kind %s — teach the key and this test about it", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// shapeWorkload runs an attack-shaped mix on m: a slack-lowered sleeper
// preempting a loading victim on core 0 (so speculation at preemption
// draws randomness), two hogs the balancer spreads, 60ms of simulated
// time. It returns m's event transcript and a fingerprint of its final
// state, telemetry included (the cache counters see speculative touches),
// or of the panic that ended the run.
func shapeWorkload(m *kern.Machine) (events []trace.Event, state string) {
	col := trace.NewCollector(0)
	m.AttachTracer(col)
	defer func() {
		if r := recover(); r != nil {
			events, state = col.Events(), fmt.Sprint("panic: ", r)
		}
	}()
	body := isa.NewBuilder("victim", 0x0048_0000, 4).ALU(16).Load(0x1000_0000).ALU(16).Load(0x1004_0000).Build().Insts
	m.Spawn("victim", func(e *kern.Env) { e.RunLoopForever(body) }, kern.WithPin(0))
	m.Spawn("attacker", func(e *kern.Env) {
		e.SetTimerSlack(1)
		for {
			e.Nanosleep(30 * timebase.Microsecond)
			e.Burn(10 * timebase.Microsecond)
		}
	}, kern.WithPin(0))
	for i := 0; i < 2; i++ {
		m.Spawn("hog", func(e *kern.Env) {
			for {
				e.Burn(50 * timebase.Microsecond)
			}
		})
	}
	m.StartBalancer()
	m.RunFor(60 * timebase.Millisecond)
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d faults=%v\ntelemetry=%v\n", m.Now(), m.FaultCounts(), m.Metrics().Flatten())
	for _, t := range m.Threads() {
		fmt.Fprintf(&b, "t%d state=%v vrt=%d exec=%d ret=%d core=%d\n",
			t.ID(), t.State(), t.Task().Vruntime, t.Task().SumExec, t.Retired(), t.CoreID())
	}
	for _, c := range m.Cores() {
		fmt.Fprintf(&b, "c%d nr=%d\n", c.ID(), c.NrRunnable())
	}
	return col.Events(), b.String()
}

// TestPoolKeyIsShellShape classifies every kern.Params leaf — nested
// fields of the scheduler, cache, fault and defense configs included. A
// shell-shape leaf (the core count, a scheduler tunable, the cache
// geometry) must change the pool key, so a pool never serves a shell it
// did not build. Every other leaf must leave the key alone, and a shell
// warmed under the base parameters and then reused under the mutated
// ones must match kern.NewMachine of the mutated parameters, in event
// transcript and final state (or panic): init applies that leaf, whatever
// the shell ran before. The base runs with fault injection on, so the
// fault knobs are live. The scheduler kind changes the key; NewSched and
// the per-fork Metrics and Profiler sinks do not.
func TestPoolKeyIsShellShape(t *testing.T) {
	base := kern.DefaultParams(Cores, nil)
	base.Sched = sched.DefaultParams(Cores)
	base.Faults = fault.Config{Rate: 0.05}
	want := keyOf(CFS, base)
	// withSinks completes p for a run: its scheduler constructor and a
	// registry of its own.
	withSinks := func(p kern.Params) kern.Params {
		p.NewSched = newSched(CFS, p.Sched)
		p.Metrics = metrics.New()
		return p
	}
	p := base
	mutateLeaves(t, reflect.ValueOf(&p).Elem(), "Params", func(path string) {
		if path == "Params.Cores" || strings.HasPrefix(path, "Params.Sched.") || strings.HasPrefix(path, "Params.CacheConfig.") {
			if keyOf(CFS, p) == want {
				t.Errorf("shell-shape leaf %s does not change the pool key", path)
			}
			return
		}
		if keyOf(CFS, p) != want {
			t.Errorf("%s changes the pool key, but init applies it", path)
			return
		}
		fresh := kern.NewMachine(withSinks(p))
		wantEvents, wantState := shapeWorkload(fresh)
		fresh.Shutdown()
		if len(wantEvents) < 100 {
			t.Fatalf("%s: the workload recorded only %d events", path, len(wantEvents))
		}

		kp := kern.NewPool(withSinks(base))
		warm := kp.Get(withSinks(base))
		shapeWorkload(warm)
		warm.Shutdown()
		reused := kp.Get(withSinks(p))
		gotEvents, gotState := shapeWorkload(reused)
		reused.Shutdown()
		if s := kp.Stats(); s.Misses != 1 {
			t.Fatalf("%s: pool built %d shells, want 1", path, s.Misses)
		}
		if !reflect.DeepEqual(gotEvents, wantEvents) {
			t.Errorf("%s: reused shell's event transcript differs from a fresh machine's", path)
		}
		if gotState != wantState {
			t.Errorf("%s: reused shell's final state differs:\nfresh:\n%s\nreused:\n%s", path, wantState, gotState)
		}
	})
	if keyOf(EEVDF, base) == want {
		t.Error("the scheduler kind does not change the pool key")
	}

	p = base
	p.NewSched = func() sched.Scheduler { return cfs.New(p.Sched) }
	p.Metrics = metrics.New()
	p.Profiler = metrics.NewProfiler()
	if keyOf(CFS, p) != want {
		t.Error("NewSched, Metrics or Profiler changed the pool key")
	}
}

// TestAlternatingConfigsShareOneShell: fig5.2 alternates its SpecProb-0
// victim machines with a default-configuration profiling machine. Both
// have one shell shape, so a MachinePool — here the one a zero Env
// installs on first use — builds a single shell and serves the A/B/A
// alternation from it.
func TestAlternatingConfigsShareOneShell(t *testing.T) {
	env := &Env{}
	noSpec := WithKernParams(func(kp *kern.Params) { kp.SpecProb = 0 })
	for key := uint64(0); key < 3; key++ {
		env.NewMachine(CFS, key, noSpec).Shutdown()
		env.NewMachine(CFS, key+3).Shutdown()
		env.NewMachine(CFS, key+7, noSpec).Shutdown()
	}
	if n := len(env.Pool.pools); n != 1 {
		t.Fatalf("machine pool holds %d kern pools, want 1", n)
	}
	for _, kp := range env.Pool.pools {
		if s := kp.Stats(); s != (kern.PoolStats{Forks: 9, Hits: 8, Misses: 1}) {
			t.Fatalf("pool stats = %+v, want 9 forks from one shell", s)
		}
	}
}

// TestEnvForkCycleZeroAllocs pins the acquisition path at zero heap
// allocations: once the zero Env's pool is installed and warm,
// Env.NewMachine (key, pool lookup, seeded Get) plus Shutdown (scrub back
// into the pool) allocates nothing.
func TestEnvForkCycleZeroAllocs(t *testing.T) {
	env := &Env{}
	seed := uint64(1)
	cycle := func() {
		seed++
		env.NewMachine(CFS, seed).Shutdown()
	}
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Fatalf("warm Env.NewMachine+Shutdown cycle allocates %v/run, want 0", avg)
	}
}

// TestPoolSetReportsAtCheckIn: pools checked out of a set report their
// forks into the set's registry when checked back in, and a registry-less
// entry registry never sees pooling counters.
func TestPoolSetReportsAtCheckIn(t *testing.T) {
	reg := metrics.New()
	ps := NewPoolSet(reg)
	for i := 0; i < 3; i++ {
		entry := metrics.New()
		env := &Env{Metrics: entry, Pool: ps.Get()}
		env.NewMachine(CFS, uint64(i+1)).Shutdown()
		env.NewMachine(CFS, uint64(i+10)).Shutdown()
		if got := reg.Counter("kern_forks_total").Value(); got != int64(2*i) {
			t.Fatalf("entry %d: kern_forks_total = %d before check-in, want %d", i, got, 2*i)
		}
		ps.Put(env.Pool)
		if got := entry.Total("kern_forks_total"); got != 0 {
			t.Fatalf("entry registry saw %d pool forks", got)
		}
	}
	if got := reg.Counter("kern_forks_total").Value(); got != 6 {
		t.Fatalf("kern_forks_total = %d, want 6", got)
	}
	hits, misses := reg.Counter("kern_pool_hits_total").Value(), reg.Counter("kern_pool_misses_total").Value()
	if hits != 5 || misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 5/1 (one pool, reused serially)", hits, misses)
	}
}
