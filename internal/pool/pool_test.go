package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCommitsInOrder: regardless of worker count and completion order,
// commits arrive strictly in job order with the right values.
func TestCommitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			var got []int
			err := Run(context.Background(), workers, n,
				func(_ context.Context, i int) int {
					// Perturb completion order: later jobs finish sooner.
					time.Sleep(time.Duration((n-i)%7) * 100 * time.Microsecond)
					return i * i
				},
				func(i, v int) (bool, error) {
					if v != i*i {
						t.Errorf("commit(%d) got %d, want %d", i, v, i*i)
					}
					got = append(got, i)
					return false, nil
				}, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if len(got) != n {
				t.Fatalf("committed %d jobs, want %d", len(got), n)
			}
			for i, g := range got {
				if g != i {
					t.Fatalf("commit order broken at %d: got job %d", i, g)
				}
			}
		})
	}
}

// TestCommitsSingleThreaded: commits never overlap even though runs do.
func TestCommitsSingleThreaded(t *testing.T) {
	var inCommit atomic.Int32
	err := Run(context.Background(), 8, 100,
		func(_ context.Context, i int) int { return i },
		func(i, v int) (bool, error) {
			if inCommit.Add(1) != 1 {
				t.Error("concurrent commit calls")
			}
			time.Sleep(50 * time.Microsecond)
			inCommit.Add(-1)
			return false, nil
		}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestStopDiscardsUncommitted: stop=true ends the run; nothing after the
// stopping job is committed, even results already computed.
func TestStopDiscardsUncommitted(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const stopAt = 5
			var committed []int
			err := Run(context.Background(), workers, 100,
				func(_ context.Context, i int) int { return i },
				func(i, v int) (bool, error) {
					committed = append(committed, i)
					return i == stopAt, nil
				}, nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			want := stopAt + 1
			if len(committed) != want {
				t.Fatalf("committed %v, want exactly jobs 0..%d", committed, stopAt)
			}
		})
	}
}

// TestCommitErrorSurfaces: a commit error ends the run and is returned.
func TestCommitErrorSurfaces(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var commits int
			err := Run(context.Background(), workers, 100,
				func(_ context.Context, i int) int { return i },
				func(i, v int) (bool, error) {
					commits++
					if i == 3 {
						return false, boom
					}
					return false, nil
				}, nil)
			if !errors.Is(err, boom) {
				t.Fatalf("Run err = %v, want %v", err, boom)
			}
			if commits != 4 {
				t.Fatalf("commits = %d, want 4 (jobs 0..3)", commits)
			}
		})
	}
}

// TestCancelCommitsPrefix: cancelling mid-run stops dispatch, drains
// in-flight jobs, commits the completed in-order prefix, and returns the
// context error.
func TestCancelCommitsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var committed []int
	release := make(chan struct{})
	err := Run(ctx, 4, 100,
		func(_ context.Context, i int) int {
			if i == 10 {
				cancel()
				close(release)
			} else if i > 10 {
				<-release // jobs past the cancel point may still be in flight
			}
			return i
		},
		func(i, v int) (bool, error) {
			committed = append(committed, i)
			return false, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	if len(committed) == 0 {
		t.Fatal("nothing committed before cancel")
	}
	for i, g := range committed {
		if g != i {
			t.Fatalf("prefix broken at %d: got job %d", i, g)
		}
	}
	if len(committed) == 100 {
		t.Fatal("cancel had no effect: all 100 jobs committed")
	}
}

// TestCancelBeforeStart: an already-cancelled context commits nothing.
func TestCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := Run(ctx, 4, 100,
		func(_ context.Context, i int) int { ran.Add(1); return i },
		func(i, v int) (bool, error) { t.Error("commit called"); return false, nil }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run err = %v, want context.Canceled", err)
	}
	// A few in-flight runs may have raced dispatch; all is too many.
	if ran.Load() > 8 {
		t.Fatalf("ran %d jobs after pre-cancelled ctx", ran.Load())
	}
}

// TestSerialPathRunsInline: workers=1 never spawns goroutines — run and
// commit both execute on the calling goroutine (observable via an
// unsynchronized local, which -race would flag if another goroutine wrote
// it).
func TestSerialPathRunsInline(t *testing.T) {
	local := 0
	err := Run(context.Background(), 1, 10,
		func(_ context.Context, i int) int { local++; return i },
		func(i, v int) (bool, error) { local++; return false, nil }, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if local != 20 {
		t.Fatalf("local = %d, want 20", local)
	}
}

// TestWorkerCountBounded: no more than `workers` run calls overlap, even
// when the CPU budget would allow more.
func TestWorkerCountBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	const workers = 3
	var cur, max atomic.Int32
	err := Run(context.Background(), workers, 50,
		func(_ context.Context, i int) int {
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			return i
		},
		func(i, v int) (bool, error) { return false, nil }, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := max.Load(); got > workers {
		t.Fatalf("max concurrent runs = %d, want <= %d", got, workers)
	}
}

// TestZeroJobs: n=0 is a no-op.
func TestZeroJobs(t *testing.T) {
	err := Run(context.Background(), 4, 0,
		func(_ context.Context, i int) int { t.Error("run called"); return 0 },
		func(i, v int) (bool, error) { t.Error("commit called"); return false, nil }, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSharedCommitStateNeedsNoLock: commit may mutate shared state without
// synchronization (each commit happens before the next, whichever
// goroutine runs it); -race verifies the claim.
func TestSharedCommitStateNeedsNoLock(t *testing.T) {
	sum := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = Run(context.Background(), 4, 100,
			func(_ context.Context, i int) int { return i },
			func(i, v int) (bool, error) { sum += v; return false, nil }, nil)
	}()
	wg.Wait()
	if want := 99 * 100 / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestRunFlushesEveryCommit: every committed result is flushed before Run
// returns — after a normal end, a stop or a commit error — and each flush
// follows at least one commit. Serially every commit is its own batch.
func TestRunFlushesEveryCommit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, end := range []string{"complete", "stop", "error"} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, end), func(t *testing.T) {
				const n = 100
				commits, flushed, flushes := 0, 0, 0
				err := Run(context.Background(), workers, n,
					func(_ context.Context, i int) int { return i },
					func(i, v int) (bool, error) {
						commits++
						switch {
						case end == "stop" && i == 40:
							return true, nil
						case end == "error" && i == 40:
							return false, errors.New("boom")
						}
						return false, nil
					},
					func() error {
						if commits == flushed {
							t.Errorf("flush with no commit since the last one (after commit %d)", commits)
						}
						flushed = commits
						flushes++
						return nil
					})
				if (err != nil) != (end == "error") {
					t.Fatalf("Run: %v", err)
				}
				if flushed != commits {
					t.Fatalf("returned with commits %d..%d unflushed", flushed+1, commits)
				}
				if workers == 1 && flushes != commits {
					t.Fatalf("serial run flushed %d times for %d commits, want one each", flushes, commits)
				}
			})
		}
	}
}

// TestRunGroupsReadyResults: results that finish while a flush is
// running are committed together and share the next flush. It needs a
// helper, so it runs with room for one in the CPU budget.
func TestRunGroupsReadyResults(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 20
	var ran atomic.Int32
	commits, flushes := 0, 0
	err := Run(context.Background(), 2, n,
		func(_ context.Context, i int) int { ran.Add(1); return i },
		func(i, v int) (bool, error) { commits++; return false, nil },
		func() error {
			if flushes == 0 {
				// A slow first flush: every job finishes meanwhile.
				for ran.Load() < n {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(20 * time.Millisecond)
			}
			flushes++
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if commits != n {
		t.Fatalf("committed %d, want %d", commits, n)
	}
	if flushes >= n/2 {
		t.Fatalf("%d flushes for %d commits: ready results were not grouped", flushes, n)
	}
}

// TestRunFlushErrorSurfaces: a failed flush ends the run and is
// returned. The first flush fails, so the checks hold however the
// parallel map batches results: flush runs exactly once, and no
// commit lands after it.
func TestRunFlushErrorSurfaces(t *testing.T) {
	boom := errors.New("fsync failed")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			commits, flushes, atFlush := 0, 0, 0
			err := Run(context.Background(), workers, 100,
				func(_ context.Context, i int) int { return i },
				func(i, v int) (bool, error) { commits++; return false, nil },
				func() error {
					flushes++
					atFlush = commits
					return boom
				})
			if !errors.Is(err, boom) {
				t.Fatalf("Run err = %v, want %v", err, boom)
			}
			if flushes != 1 {
				t.Fatalf("flush ran %d times, want 1", flushes)
			}
			if commits != atFlush {
				t.Fatalf("%d commits landed after the failing flush", commits-atFlush)
			}
		})
	}
}

// TestNestedMapsShareOneBudget: a width-4 map whose jobs each run a
// width-4 map never runs more than GOMAXPROCS leaf jobs at once, commits
// every level in order, and returns every helper token however the outer
// map ends: normally, on a stop, a commit error, a cancel or a panic.
func TestNestedMapsShareOneBudget(t *testing.T) {
	const width, n = 4, 8
	for _, procs := range []int{1, 2, 4} {
		for _, end := range []string{"complete", "stop", "error", "cancel", "panic"} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, end), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var cur, peak atomic.Int32
				leaf := func(_ context.Context, j int) int {
					c := cur.Add(1)
					for m := peak.Load(); c > m && !peak.CompareAndSwap(m, c); m = peak.Load() {
					}
					time.Sleep(200 * time.Microsecond)
					cur.Add(-1)
					return j
				}
				var committed []int
				boom := errors.New("boom")
				outer := func() error {
					return Run(ctx, width, n,
						func(ctx context.Context, i int) []int {
							if end == "cancel" && i == 2 {
								cancel()
							}
							var got []int
							err := Run(ctx, width, n,
								func(ctx context.Context, j int) int {
									if end == "panic" && i == 3 && j == 5 {
										panic("leaf 3/5")
									}
									return leaf(ctx, j)
								},
								func(j, v int) (bool, error) {
									if v != j || len(got) != j {
										t.Errorf("inner map %d committed job %d (value %d) at position %d", i, j, v, len(got))
									}
									got = append(got, v)
									return false, nil
								}, nil)
							if err != nil && end != "cancel" {
								t.Errorf("inner map %d: %v", i, err)
							}
							return got
						},
						func(i int, got []int) (bool, error) {
							if len(committed) != i {
								t.Errorf("outer map committed job %d at position %d", i, len(committed))
							}
							if end != "cancel" && len(got) != n {
								t.Errorf("outer job %d carried %d inner results, want %d", i, len(got), n)
							}
							committed = append(committed, i)
							switch {
							case end == "stop" && i == 3:
								return true, nil
							case end == "error" && i == 3:
								return false, boom
							}
							return false, nil
						}, nil)
				}
				var err error
				val := func() (val any) {
					defer func() { val = recover() }()
					err = outer()
					return nil
				}()
				switch end {
				case "complete":
					if err != nil || len(committed) != n {
						t.Fatalf("Run: %v after %d commits, want nil after %d", err, len(committed), n)
					}
				case "stop", "error":
					if len(committed) != 4 || (err != nil) != (end == "error") {
						t.Fatalf("Run: %v after commits %v, want jobs 0..3", err, committed)
					}
				case "cancel":
					if !errors.Is(err, context.Canceled) && len(committed) != n {
						t.Fatalf("Run: %v after %d commits", err, len(committed))
					}
				case "panic":
					if val != "leaf 3/5" {
						t.Fatalf("re-raised %v, want the leaf's panic", val)
					}
				}
				if p := peak.Load(); p > int32(procs) {
					t.Fatalf("%d leaf jobs ran at once, want at most GOMAXPROCS = %d", p, procs)
				}
				if h := Helpers(); h != 0 {
					t.Fatalf("%d helper tokens still held after the map returned", h)
				}
			})
		}
	}
}
