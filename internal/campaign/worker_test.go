package campaign

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/gls"
)

// goroutinesOf runs a campaign of n entries at the given width and returns
// the goroutine ID each entry ran on, in plan order.
func goroutinesOf(t *testing.T, cfg Config, n, width int) []uint64 {
	t.Helper()
	ids := make([]uint64, n)
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: "e" + strconv.Itoa(i), Run: func(uint64) Attempt {
			ids[i] = gls.ID()
			return Attempt{Attempts: 1}
		}}
	}
	c, err := New(cfg, entries)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), width); err != nil {
		t.Fatal(err)
	}
	return ids
}

// TestEntriesRunOnWorkerGoroutines pins where an entry runs: on the pool
// worker that picked it — the RunParallel caller itself at width 1, at most
// one goroutine per worker at width 2 — and on a goroutine of its own only
// under a wall budget, the one case that may have to abandon it.
func TestEntriesRunOnWorkerGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 12
	caller := gls.ID()

	for i, g := range goroutinesOf(t, Config{Seed: 1}, n, 1) {
		if g != caller {
			t.Fatalf("width 1: entry %d ran on goroutine %d, not the caller's %d", i, g, caller)
		}
	}

	seen := map[uint64]bool{}
	for _, g := range goroutinesOf(t, Config{Seed: 1}, n, 2) {
		seen[g] = true
	}
	if len(seen) > 2 {
		t.Fatalf("width 2: %d entries ran on %d distinct goroutines, want at most 2", n, len(seen))
	}

	for i, g := range goroutinesOf(t, Config{Seed: 1, ExpWall: time.Minute}, n, 1) {
		if g == caller {
			t.Fatalf("with a wall budget: entry %d ran on the caller's goroutine, which cannot be abandoned", i)
		}
	}
}

// instantPlan is n entries whose Run returns at once and allocates nothing,
// so a campaign over it measures the harness alone.
func instantPlan(n int) []Entry {
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{ID: "entry" + strconv.Itoa(i), Run: func(uint64) Attempt { return Attempt{Attempts: 1} }}
	}
	return entries
}

// runInstant runs an in-memory campaign over entries at width 1.
func runInstant(tb testing.TB, entries []Entry) {
	c, err := New(Config{Seed: 1}, entries)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), 1); err != nil {
		tb.Fatal(err)
	}
}

// TestEntryHarnessAllocs holds the campaign harness to at most one
// allocation per entry (the entry's record) beyond what Entry.Run
// allocates. The per-entry figure is the difference between a 2n- and an
// n-entry campaign, so the fixed cost of setting up a campaign cancels.
// Both plans stay under ~900 entries, the size at which a map of records
// splits into a second table: that table is container growth, one
// allocation per ~900 records, not a cost the harness pays per entry.
func TestEntryHarnessAllocs(t *testing.T) {
	const n = 400
	small, large := instantPlan(n), instantPlan(2*n)
	a := testing.AllocsPerRun(5, func() { runInstant(t, small) })
	b := testing.AllocsPerRun(5, func() { runInstant(t, large) })
	if per := (b - a) / n; per > 1 {
		t.Fatalf("campaign harness allocates %.3f times per entry (%v allocs for %d entries, %v for %d), want at most 1",
			per, a, n, b, 2*n)
	}
}

// BenchmarkCampaignEntryOverhead measures the harness's cost per entry: a
// 1000-entry in-memory campaign at width 1 whose entries return at once.
func BenchmarkCampaignEntryOverhead(b *testing.B) {
	const n = 1000
	entries := instantPlan(n)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		runInstant(b, entries)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
}
