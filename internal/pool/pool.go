// Package pool is the deterministic parallel executor under the campaign
// engine: a bounded worker pool runs independent jobs concurrently while a
// sequencer commits their results strictly in job order, so everything the
// commit callback observes — and everything it writes, manifests and
// checkpoints included — is byte-identical to a serial run. Workers own all
// shared-state isolation themselves (each campaign worker builds its own
// machines, RNG streams and telemetry registry); the pool only promises
// ordering.
package pool

import "context"

// Run executes jobs 0..n-1 with up to workers concurrent run calls and
// commits each result, in job order, from the calling goroutine.
//
//   - run(ctx, i) executes job i. Calls run concurrently (workers > 1), so
//     it must not touch shared mutable state.
//   - commit(i, v) receives job i's result after every lower-numbered job
//     has been committed. Commits happen one at a time on the caller's
//     goroutine, so commit may mutate shared state freely. Returning
//     stop=true ends the run early: no further jobs are dispatched and
//     results of jobs already in flight are discarded uncommitted.
//     Returning an error also ends the run and surfaces the error.
//   - flush(), when non-nil, is the group-commit hook: it is called on the
//     caller's goroutine after each batch of commits, before the sequencer
//     waits for more results. A batch is every in-order result that was
//     ready when the sequencer got to it, so while one flush is slow the
//     workers keep running and the next batch is larger: the number of
//     flushes adapts to their cost instead of adding it to every job. Run
//     always flushes what it committed before returning, including after
//     a stop or a commit error; a flush error ends the run like a commit
//     error (the first error is returned).
//
// workers <= 1 degenerates to a plain sequential loop on the calling
// goroutine — no goroutines, no channels, a flush after every commit — so
// the serial path is exactly the pre-pool code path.
//
// When ctx is cancelled, no further jobs are dispatched; jobs already in
// flight are drained and the completed in-order prefix is committed (so a
// checkpointing commit callback leaves a resumable state), then Run returns
// ctx.Err() — unless every job committed anyway, in which case it returns
// nil.
func Run[T any](ctx context.Context, workers, n int, run func(ctx context.Context, i int) T, commit func(i int, v T) (stop bool, err error), flush func() error) error {
	if n <= 0 {
		return nil
	}
	if flush == nil {
		flush = func() error { return nil }
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return runSerial(ctx, n, run, commit, flush)
	}
	return runParallel(ctx, workers, n, run, commit, flush)
}

// runSerial is the workers<=1 degenerate case: check ctx between jobs,
// run, commit and flush inline.
func runSerial[T any](ctx context.Context, n int, run func(ctx context.Context, i int) T, commit func(i int, v T) (stop bool, err error), flush func() error) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		stop, err := commit(i, run(ctx, i))
		if ferr := flush(); err == nil {
			err = ferr
		}
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// result carries one finished job to the sequencer.
type result[T any] struct {
	i int
	v T
}

// resultSlack is how many finished results per worker may wait for the
// sequencer before that worker blocks. It lets workers run on through a
// slow flush, whose next batch then takes everything they finished.
const resultSlack = 16

func runParallel[T any](ctx context.Context, workers, n int, run func(ctx context.Context, i int) T, commit func(i int, v T) (stop bool, err error), flush func() error) error {
	// stopFeed tells the feeder to dispatch no further jobs (early stop or
	// ctx cancel); closing jobs releases idle workers.
	stopFeed := make(chan struct{})
	jobs := make(chan int)
	results := make(chan result[T], workers*resultSlack)

	// Feeder: hands out job indices until done or stopped. The leading
	// non-blocking check gives stop/cancel priority over a ready send (a
	// select with both ready picks randomly), so an already-cancelled
	// context dispatches nothing.
	go func() {
		defer close(jobs)
		for i := 0; i < n; i++ {
			select {
			case <-stopFeed:
				return
			case <-ctx.Done():
				return
			default:
			}
			select {
			case jobs <- i:
			case <-stopFeed:
				return
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: each pulls indices and runs them, sending results to the
	// buffered channel. The sequencer keeps receiving until every worker
	// has exited, so a worker blocked on a full buffer always drains.
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range jobs {
				results <- result[T]{i: i, v: run(ctx, i)}
			}
		}()
	}

	// Sequencer (caller's goroutine): hold out-of-order results in pending,
	// commit the contiguous prefix as it forms, and flush once per batch.
	pending := make(map[int]T, workers*resultSlack)
	next := 0
	stopped := false
	var commitErr error
	// drain moves every result already waiting into pending.
	drain := func() {
		for {
			select {
			case r := <-results:
				pending[r.i] = r.v
			default:
				return
			}
		}
	}
	// commitReady commits the contiguous prefix in pending, then flushes
	// it as one batch.
	commitReady := func() {
		batch := 0
		for !stopped && commitErr == nil {
			v, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			stop, err := commit(next, v)
			next++
			batch++
			if err != nil {
				commitErr = err
			} else if stop {
				stopped = true
			}
		}
		if batch > 0 {
			if err := flush(); err != nil && commitErr == nil {
				commitErr = err
			}
		}
	}
	live := workers
	for live > 0 {
		select {
		case r := <-results:
			pending[r.i] = r.v
		case <-done:
			live--
			continue
		}
		drain()
		commitReady()
		if stopped || commitErr != nil {
			select {
			case <-stopFeed:
			default:
				close(stopFeed)
			}
		}
	}
	// Workers are gone; drain any results that raced the exit and commit
	// the remaining contiguous prefix (unless stopped — an early stop
	// discards everything uncommitted).
	drain()
	commitReady()

	if commitErr != nil {
		return commitErr
	}
	if stopped {
		return nil
	}
	if err := ctx.Err(); err != nil && next < n {
		return err
	}
	return nil
}
