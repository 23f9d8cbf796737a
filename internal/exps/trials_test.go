package exps

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/pool"
)

// observeTrial feeds every sink kind of env the way trial i does in the
// tests below.
func observeTrial(env *Env, i int) {
	env.Metrics.Counter(fmt.Sprintf(`trial_total{i="%02d"}`, i)).Add(int64(i))
	env.Metrics.Counter("trials_total").Inc()
	env.Metrics.Histogram("trial_h", []int64{10, 20}).Observe(int64(i))
	env.Profiler.Observe("trial", time.Duration(i))
}

// TestTrialsOrderMergeAndHelperBound: results come back in trial order,
// the merged sinks equal a serial run observing everything directly, a
// nested map neither deadlocks nor pushes the process past the budget's
// GOMAXPROCS−1 helper tokens, and every token is returned on return.
func TestTrialsOrderMergeAndHelperBound(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var peak atomic.Int32
			notePeak := func() {
				for n := int32(pool.Helpers()); n > peak.Load(); {
					if peak.CompareAndSwap(peak.Load(), n) {
						return
					}
				}
			}
			env := &Env{Metrics: metrics.New(), Profiler: metrics.NewProfiler()}
			got := Trials(env, 40, func(env *Env, i int) int {
				notePeak()
				inner := Trials(env, 3, func(env *Env, j int) int {
					notePeak()
					env.Metrics.Counter("inner_total").Inc()
					return j
				})
				observeTrial(env, i)
				return 10*i + len(inner)
			})

			direct := &Env{Metrics: metrics.New(), Profiler: metrics.NewProfiler()}
			for i := range got {
				if got[i] != 10*i+3 {
					t.Fatalf("result %d = %d, want %d (results out of trial order?)", i, got[i], 10*i+3)
				}
				direct.Metrics.Counter("inner_total").Add(3)
				observeTrial(direct, i)
			}
			if !reflect.DeepEqual(env.Metrics.Flatten(), direct.Metrics.Flatten()) {
				t.Fatalf("merged telemetry %v, want %v", env.Metrics.Flatten(), direct.Metrics.Flatten())
			}
			if g, w := env.Profiler.Report(), direct.Profiler.Report(); !reflect.DeepEqual(g, w) {
				t.Fatalf("merged profile %+v, want %+v", g, w)
			}
			if p := peak.Load(); p > int32(procs-1) {
				t.Fatalf("%d helpers ran at once, want at most GOMAXPROCS−1 = %d", p, procs-1)
			}
			if n := pool.Helpers(); n != 0 {
				t.Fatalf("%d helper tokens still held after the map returned", n)
			}
		})
	}
}

// TestTrialsReraisesLowestPanic: with two panicking trials, the map
// re-raises the lower one's value even when the higher one panics first,
// merges the sinks of exactly the trials up to it (its own partial sinks
// included) and returns its helpers' tokens.
func TestTrialsReraisesLowestPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			env := &Env{Metrics: metrics.New(), Profiler: metrics.NewProfiler()}
			var late sync.WaitGroup
			late.Add(1)
			var lateOnce sync.Once
			val := func() (val any) {
				defer func() { val = recover() }()
				Trials(env, 8, func(env *Env, i int) int {
					observeTrial(env, i)
					switch {
					case i == 2 && procs > 1:
						// Let trial 4 panic first when it can run
						// alongside; bounded, since it may not.
						ch := make(chan struct{})
						go func() { late.Wait(); close(ch) }()
						select {
						case <-ch:
						case <-time.After(5 * time.Second):
						}
						panic("trial 2")
					case i == 2:
						panic("trial 2")
					case i == 4:
						lateOnce.Do(late.Done)
						panic("trial 4")
					}
					return i
				})
				return nil
			}()
			lateOnce.Do(late.Done)
			if val != "trial 2" {
				t.Fatalf("re-raised %v, want trial 2's panic", val)
			}
			flat := env.Metrics.Flatten()
			for i := 0; i < 8; i++ {
				_, ok := flat[fmt.Sprintf(`trial_total{i="%02d"}`, i)]
				if ok != (i <= 2) {
					t.Fatalf("trial %d merged = %t, want %t: %v", i, ok, i <= 2, flat)
				}
			}
			if flat["trials_total"] != 3 || env.Profiler.Report().TotalEvents != 3 {
				t.Fatalf("merged %d trials' counts and %d profile events, want 3 each", flat["trials_total"], env.Profiler.Report().TotalEvents)
			}
			if n := pool.Helpers(); n != 0 {
				t.Fatalf("%d helper tokens still held after the map panicked", n)
			}
		})
	}
}
