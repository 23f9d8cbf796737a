package exps

import (
	"reflect"
	"testing"

	"repro/internal/cfs"
	"repro/internal/fault"
	"repro/internal/kern"
	"repro/internal/metrics"
	"repro/internal/sched"
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

// TestPoolKeySeesEveryParam is the pool key's completeness property:
// changing any kern.Params field — nested fields of the scheduler, cache,
// fault and defense configs included — changes the key, so a pool can
// never serve a configuration it was not built for. Changing the seed or
// the per-fork NewSched/Metrics/Profiler sinks does not, so those forks
// share one pool.
func TestPoolKeySeesEveryParam(t *testing.T) {
	base := kern.DefaultParams(Cores, nil)
	base.Sched = sched.DefaultParams(Cores)
	want := keyOf(CFS, base)
	p := base
	mutateLeaves(t, reflect.ValueOf(&p).Elem(), "Params", func(path string) {
		if path == "Params.Seed" {
			if keyOf(CFS, p) != want {
				t.Errorf("%s changed the key; seeds must share a pool", path)
			}
			return
		}
		if keyOf(CFS, p) == want {
			t.Errorf("%s does not change the pool key", path)
		}
	})
	if keyOf(EEVDF, base) == want {
		t.Error("the scheduler kind does not change the pool key")
	}

	p = base
	p.NewSched = func() sched.Scheduler { return cfs.New(p.Sched) }
	p.Metrics = metrics.New()
	p.Profiler = metrics.NewProfiler()
	p.Seed = 99
	if keyOf(CFS, p) != want {
		t.Error("NewSched, Metrics, Profiler or Seed changed the pool key")
	}

	// Empty and nil slices mean the same configuration.
	p = base
	p.Faults.Kinds = []fault.Kind{}
	if keyOf(CFS, p) != want {
		t.Error("an empty fault-kind list keys differently from none")
	}
}

// TestEnvForkCycleZeroAllocs pins the pooled acquisition path at zero heap
// allocations: once warm, Env.NewMachine (key, pool lookup, seeded Get)
// plus Shutdown (scrub back into the pool) allocates nothing.
func TestEnvForkCycleZeroAllocs(t *testing.T) {
	env := &Env{Pool: NewMachinePool(nil)}
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
