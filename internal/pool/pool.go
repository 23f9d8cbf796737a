// Package pool is the process's one deterministic ordered parallel map:
// the campaign engine runs plan entries through it and the experiments
// run their independent trials through it. Jobs run on the calling
// goroutine plus helper goroutines, and their results are committed
// strictly in job order, so everything the commit callback observes — and
// everything it writes, manifests and checkpoints included — is
// byte-identical to a serial run. Jobs own all shared-state isolation
// themselves (each campaign entry builds its own machines, RNG streams and
// telemetry registry; each trial gets a derived Env); the pool only
// promises ordering.
//
// Every helper holds a token from one process-wide CPU budget of
// GOMAXPROCS−1, so campaign workers, labd jobs and the trial maps nested
// inside their entries never run more than GOMAXPROCS jobs at once. A
// nested map cannot deadlock: its caller always runs jobs itself, and
// nothing waits for a token.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// tokens counts the helper tokens held in the process.
var tokens atomic.Int32

// Helpers reports how many helper tokens the process's maps hold now.
func Helpers() int { return int(tokens.Load()) }

// acquire takes a helper token if fewer than GOMAXPROCS−1 are held.
func acquire() bool {
	limit := int32(runtime.GOMAXPROCS(0) - 1)
	for {
		n := tokens.Load()
		if n >= limit {
			return false
		}
		if tokens.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Run executes jobs 0..n-1 and commits each result in job order. Up to
// width run calls overlap: the caller's and one per helper. Width is an
// upper bound, since a helper starts only with a token from the CPU
// budget; at GOMAXPROCS=1 every map runs on its caller alone.
//
//   - run(ctx, i) executes job i. Calls run concurrently, so it must not
//     touch shared mutable state.
//   - commit(i, v) receives job i's result after every lower-numbered job
//     has been committed. Commits happen one at a time, on whichever
//     goroutine files the next result, and each happens before the next:
//     commit may mutate shared state without a lock. Returning stop=true
//     ends the run early: no further jobs start and results of jobs
//     already in flight are discarded uncommitted. Returning an error also
//     ends the run and surfaces the error.
//   - flush(), when non-nil, is the group-commit hook, called after each
//     batch of commits. Without helpers every commit is its own batch.
//     With helpers a goroutine of its own flushes, so a slow flush holds up
//     no job: results that finish meanwhile wait, and the next batch —
//     every in-order result ready when the flush ends — is committed and
//     flushed together. The number of flushes adapts to their cost instead
//     of adding it to every job. Run always flushes what it committed
//     before returning, including after a stop or a commit error; a flush
//     error ends the run like a commit error (the first error is returned).
//
// When ctx is cancelled, no further jobs start; jobs already in flight are
// drained and the completed in-order prefix is committed (so a
// checkpointing commit callback leaves a resumable state), then Run returns
// ctx.Err() — unless every job committed anyway, in which case it returns
// nil. A panic in run, commit or flush ends the run like an error; once
// every helper has returned its token, Run re-panics with the first value.
func Run[T any](ctx context.Context, width, n int, run func(ctx context.Context, i int) T, commit func(i int, v T) (stop bool, err error), flush func() error) error {
	if n <= 0 {
		return nil
	}
	helpers := 0
	for helpers < min(width, n)-1 && acquire() {
		helpers++
	}
	m := &ordered[T]{ctx: ctx, n: n, run: run, commit: commit, flush: flush,
		helpers: helpers, vals: make([]T, n), ready: make([]bool, n)}
	m.wg.Add(helpers)
	for range helpers {
		go func() {
			defer m.wg.Done()
			defer tokens.Add(-1)
			m.work()
		}()
	}
	m.work()
	m.wg.Wait()
	switch {
	case m.panicked:
		panic(m.pval)
	case m.err != nil:
		return m.err
	case !m.ended && m.next < n:
		return ctx.Err()
	}
	return nil
}

// ordered is one map's state. Its participants — the caller and the
// helpers — claim jobs in index order and file each result in its slot;
// the one that files the next uncommitted result takes the commit turn.
type ordered[T any] struct {
	ctx     context.Context
	n       int
	run     func(ctx context.Context, i int) T
	commit  func(i int, v T) (stop bool, err error)
	flush   func() error
	helpers int
	wg      sync.WaitGroup // the helpers and the flusher

	mu      sync.Mutex
	claimed int    // jobs handed out
	vals    []T    // finished results not yet committed
	ready   []bool // ready[i]: job i finished, its result is in vals[i]
	next    int    // the lowest uncommitted job
	// turn is held by the goroutine committing or flushing; a result filed
	// meanwhile waits for it.
	turn     bool
	dirty    bool // commits not flushed yet
	ended    bool // stopped, failed or panicked: nothing more starts or commits
	err      error
	panicked bool
	pval     any
}

// work claims and runs jobs until none is left to start.
func (m *ordered[T]) work() {
	defer m.recoverPanic()
	for {
		m.mu.Lock()
		if m.ended || m.claimed == m.n || m.ctx.Err() != nil {
			m.mu.Unlock()
			return
		}
		i := m.claimed
		m.claimed++
		m.mu.Unlock()

		v := m.run(m.ctx, i)

		m.mu.Lock()
		m.vals[i], m.ready[i] = v, true
		if !m.turn && i == m.next {
			m.turn = true
			m.commitReady()
			m.flushTurn()
		}
		m.mu.Unlock()
	}
}

// commitReady commits the ready in-order prefix. It is called with mu and
// the turn held, and releases mu around each commit.
func (m *ordered[T]) commitReady() {
	for !m.ended && m.next < m.n && m.ready[m.next] {
		i, v := m.next, m.vals[m.next]
		var zero T
		m.vals[i] = zero
		m.next++
		m.mu.Unlock()
		stop, err := m.commit(i, v)
		m.mu.Lock()
		m.dirty = true
		m.end(stop, err)
	}
}

// flushTurn, called with mu and the turn held after a batch of commits,
// flushes it: inline without helpers, else on a goroutine of its own.
func (m *ordered[T]) flushTurn() {
	if m.helpers == 0 || m.flush == nil {
		m.flushLoop()
		return
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.recoverPanic()
		m.mu.Lock()
		m.flushLoop()
		m.mu.Unlock()
	}()
}

// flushLoop flushes, commits the results that became ready meanwhile, and
// repeats until a flush leaves nothing to commit; then it gives up the
// turn. It is called with mu and the turn held, and releases mu around
// each flush.
func (m *ordered[T]) flushLoop() {
	for m.dirty && m.flush != nil {
		m.mu.Unlock()
		err := m.flush()
		m.mu.Lock()
		m.dirty = false
		m.end(false, err)
		m.commitReady()
	}
	m.turn = false
}

// end records how a commit or flush ended; mu is held.
func (m *ordered[T]) end(stop bool, err error) {
	if err != nil && m.err == nil {
		m.err = err
	}
	m.ended = m.ended || stop || err != nil
}

// recoverPanic, deferred on every participant and the flusher, ends the
// map on a panic and keeps the first value for Run to re-raise. The turn
// stays with the panicking goroutine: nothing commits after it.
func (m *ordered[T]) recoverPanic() {
	if r := recover(); r != nil {
		m.mu.Lock()
		if !m.panicked {
			m.panicked, m.pval = true, r
		}
		m.ended = true
		m.mu.Unlock()
	}
}
