// Package gls provides goroutine-scoped storage. Its one user is the span
// context of a traced campaign entry (obs.ScopeAmbient): the campaign
// engine scopes each entry's context to the entry's contained goroutine so
// the machines built there parent their phase spans under that entry.
//
// Everything else a run needs — faults, defense, budgets, telemetry
// registry, profiler, machine pool, trace capture — travels as an explicit
// value (exps.Env), not through this package: an ID lookup parses a stack
// dump, and an override is invisible on the goroutines its owner spawns.
// A Store keeps a cheap path for the common case — no override installed
// anywhere costs one atomic load per lookup.
package gls

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ID returns the current goroutine's runtime ID.
//
// The runtime does not expose goroutine IDs on purpose; this parses the
// header of a single-goroutine stack dump ("goroutine 123 [running]:"),
// the same technique popular logging and leak-checking libraries use. It
// costs roughly a microsecond — far too slow for a per-event hot path,
// fine for the construction-time and per-entry lookups it serves.
func ID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes) and parse digits up to the next space.
	var id uint64
	for i := 10; i < n; i++ {
		c := buf[i]
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// Store is a goroutine-keyed override map. The zero value is ready to use.
// A Store holds at most one value per goroutine; nested Sets on the same
// goroutine shadow and restore like a stack.
type Store[T any] struct {
	m sync.Map // goroutine ID → T
	// live counts goroutines holding an override. When it is zero — every
	// serial run, and every goroutine of a parallel campaign between
	// entries — Get skips the stack dump entirely, so a Store that nobody
	// scoped costs one atomic load per lookup instead of a microsecond.
	live atomic.Int64
}

// Get returns the calling goroutine's override and whether one is
// installed.
func (s *Store[T]) Get() (T, bool) {
	var zero T
	if s.live.Load() == 0 {
		return zero, false
	}
	v, ok := s.m.Load(ID())
	if !ok {
		return zero, false
	}
	return v.(T), true
}

// Set installs v as the calling goroutine's override and returns a restore
// function that reinstates the previous state (the prior override, or no
// override). Restore must be called from the same goroutine — typically
// `defer restore()` — or the entry leaks and later goroutines that happen
// to reuse the ID would inherit it.
func (s *Store[T]) Set(v T) (restore func()) {
	id := ID()
	prev, had := s.m.Load(id)
	s.m.Store(id, v)
	if !had {
		s.live.Add(1)
	}
	return func() {
		if had {
			s.m.Store(id, prev)
		} else {
			s.m.Delete(id)
			s.live.Add(-1)
		}
	}
}
