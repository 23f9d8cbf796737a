package kern

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/timebase"
)

// settledGoroutines waits until runtime.NumGoroutine reads want and fails
// the test if it never does.
func settledGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// steadyGoroutines returns runtime.NumGoroutine once it has read the same
// value on several consecutive samples, so a goroutine that is still exiting
// (one an earlier test or machine left behind) is not counted as part of a
// baseline.
func steadyGoroutines(t *testing.T) int {
	t.Helper()
	const samples = 3
	deadline := time.Now().Add(5 * time.Second)
	n, same := runtime.NumGoroutine(), 0
	for same < samples {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count never settled (last read %d)", n)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// TestThreadCoroutinesDoNotLeak checks that a thread body's coroutine lives
// exactly as long as the thread. Over 200 machines, alternately fresh and
// from a Pool, it is gone as soon as a body returns (before Shutdown), once
// Shutdown unwinds a body still suspended, and once a body panic has
// surfaced from Run into the caller's recover. A body that announced its
// exit with a final yield instead of returning would stay suspended and
// show up here as one leaked goroutine per finished thread.
func TestThreadCoroutinesDoNotLeak(t *testing.T) {
	pool := NewPool(poolParams(2, 1))
	for i := 0; i < 200; i++ {
		base := steadyGoroutines(t)
		var m *Machine
		if i%2 == 0 {
			m = NewMachine(poolParams(2, uint64(i)))
		} else {
			m = pool.Get(poolParams(2, uint64(i)))
		}
		var short []*Thread
		for j := 0; j < 3; j++ {
			short = append(short, m.Spawn("short", func(e *Env) {
				e.Burn(20 * timebase.Microsecond)
			}))
		}
		m.Spawn("spin", func(e *Env) {
			for {
				e.Burn(50 * timebase.Microsecond)
			}
		})
		m.Spawn("sleeper", func(e *Env) {
			for {
				e.Nanosleep(timebase.Millisecond)
			}
		})
		// Half the machines also lose a thread to a body panic; a machine
		// whose Run unwound is never pooled, so the other half keep the
		// pool's shells in reuse.
		panics := i%4 < 2
		if panics {
			m.Spawn("bad", func(e *Env) {
				e.Nanosleep(3 * timebase.Millisecond)
				panic("body exploded")
			})
		}
		got := func() (r any) {
			defer func() { r = recover() }()
			m.RunFor(10 * timebase.Millisecond)
			return nil
		}()
		if panics != (got != nil) {
			t.Fatalf("machine %d: Run recovered %v, want a panic: %v", i, got, panics)
		}
		for _, th := range short {
			if !th.done {
				t.Fatalf("machine %d: %v has not returned", i, th)
			}
		}
		// Only spin and sleeper are unfinished; only they hold a coroutine.
		settledGoroutines(t, base+2, "after Run")
		m.Shutdown()
		settledGoroutines(t, base, "after Shutdown")
	}
	if st := pool.Stats(); st.Hits == 0 {
		t.Fatalf("pool stats %+v: no shell was reused", st)
	}
}
