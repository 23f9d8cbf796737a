package fabric

// fabric_test.go proves the coordinator's determinism contract the hard
// way: real labd servers behind a fault-injecting transport, workers
// killed mid-sweep, hung jobs, steals — and after every storm the merged
// manifest must be byte-identical to a width-1 serial campaign of the
// same plan.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/labd"
)

// testNote is the note hook shared by every test worker and the serial
// reference, pinning the one knob the fake entries depend on.
func testNote(sp labd.Spec) string { return fmt.Sprintf("retries=%d", sp.Retries) }

// entriesFor builds deterministic fake entries: rendered output is a pure
// function of (id, seed); "slow-" ids block on gate; sleep stretches every
// entry's wall time without touching its bytes.
func entriesFor(ids []string, gate chan struct{}, sleep time.Duration) []campaign.Entry {
	out := make([]campaign.Entry, 0, len(ids))
	for _, id := range ids {
		id := id
		out = append(out, campaign.Entry{ID: id, Run: func(seed uint64) campaign.Attempt {
			if gate != nil && strings.HasPrefix(id, "slow-") {
				<-gate
			}
			if sleep > 0 {
				time.Sleep(sleep)
			}
			return campaign.Attempt{
				Rendered: fmt.Sprintf("%s result (seed %d)\n", id, seed),
				Metrics:  map[string]float64{"seed": float64(seed)},
				Attempts: 1,
			}
		}})
	}
	return out
}

// newWorker starts one in-process labd worker and returns its HTTP front
// end. gate and sleep feed entriesFor; cleanup drains the server.
func newWorker(t *testing.T, gate chan struct{}, sleep time.Duration) *httptest.Server {
	t.Helper()
	srv := labd.MustNewServer(labd.Config{
		StateDir: t.TempDir(),
		Entries:  func(sp labd.Spec) []campaign.Entry { return entriesFor(sp.IDs, gate, sleep) },
		Note:     testNote,
	})
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return hs
}

// serialBytes runs the same plan through a width-1 campaign — the
// determinism oracle every cluster test compares against.
func serialBytes(t *testing.T, plan []string, seed uint64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serial.json")
	c, err := campaign.New(campaign.Config{Path: path, Seed: seed, Note: testNote(labd.Spec{})}, entriesFor(plan, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunParallel(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// testConfig is the base coordinator config for tests: tight timings, a
// temp manifest path, and the note matching testNote.
func testConfig(t *testing.T, workers []string, seed uint64) Config {
	t.Helper()
	return Config{
		Workers:        workers,
		Spec:           labd.Spec{Seed: seed},
		Note:           testNote(labd.Spec{}),
		Path:           filepath.Join(t.TempDir(), "merged.json"),
		ShardSize:      3,
		RequestTimeout: 5 * time.Second,
		PollInterval:   10 * time.Millisecond,
		HangTimeout:    time.Minute,
		// High enough that no steal fires in quiet tests even when durable
		// per-entry fsyncs slow workers under -race; steal-focused tests
		// override it downward.
		StealAfter:    time.Second,
		ProbeInterval: 25 * time.Millisecond,
		MaxRetries:    6,
		BaseBackoff:   5 * time.Millisecond,
		MaxBackoff:    50 * time.Millisecond,
	}
}

// plan returns n distinct experiment ids.
func plan(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("exp%02d", i)
	}
	return ids
}

// mustBytes reads a file the test expects to exist.
func mustBytes(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestConfigValidate(t *testing.T) {
	valid := func() Config {
		return Config{
			Workers: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"},
			Spec:    labd.Spec{Seed: 1},
			Path:    "merged.json",
		}
	}
	if err := valid().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no workers", func(c *Config) { c.Workers = nil }},
		{"relative worker URL", func(c *Config) { c.Workers = []string{"localhost:8642"} }},
		{"non-http scheme", func(c *Config) { c.Workers = []string{"ftp://x"} }},
		{"duplicate worker", func(c *Config) { c.Workers = []string{"http://a", "http://a"} }},
		{"zero seed", func(c *Config) { c.Spec.Seed = 0 }},
		{"negative parallel", func(c *Config) { c.Spec.Parallel = -1 }},
		{"empty path", func(c *Config) { c.Path = "" }},
		{"negative shard size", func(c *Config) { c.ShardSize = -1 }},
		{"negative request timeout", func(c *Config) { c.RequestTimeout = -time.Second }},
		{"negative poll interval", func(c *Config) { c.PollInterval = -time.Second }},
		{"negative hang timeout", func(c *Config) { c.HangTimeout = -time.Second }},
		{"negative steal after", func(c *Config) { c.StealAfter = -time.Second }},
		{"negative probe interval", func(c *Config) { c.ProbeInterval = -time.Second }},
		{"negative base backoff", func(c *Config) { c.BaseBackoff = -time.Second }},
		{"negative max backoff", func(c *Config) { c.MaxBackoff = -time.Second }},
		{"negative retries", func(c *Config) { c.MaxRetries = -1 }},
		{"negative shard attempts", func(c *Config) { c.MaxShardAttempts = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Fatal("invalid config accepted")
			}
			if _, err := New(cfg, []string{"a"}); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on an invalid config")
		}
	}()
	MustNew(Config{}, []string{"a"})
}

func TestNewRejectsBadPlans(t *testing.T) {
	cfg := Config{Workers: []string{"http://a"}, Spec: labd.Spec{Seed: 1}, Path: "m.json"}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := New(cfg, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate plan entry accepted")
	}
}

func TestChaosConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  ChaosConfig
	}{
		{"drop above one", ChaosConfig{Drop: 1.5}},
		{"negative delay rate", ChaosConfig{Delay: -0.1}},
		{"err5xx NaN", ChaosConfig{Err5xx: nan()}},
		{"truncate above one", ChaosConfig{Truncate: 2}},
		{"negative delay bound", ChaosConfig{DelayMax: -time.Second}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatal("invalid chaos config accepted")
			}
			if _, err := NewChaosTransport(tc.cfg, nil); err == nil {
				t.Fatal("NewChaosTransport accepted an invalid config")
			}
		})
	}
	if err := (ChaosConfig{Drop: 0.5, Delay: 1, Err5xx: 0.1, Truncate: 0}).Validate(); err != nil {
		t.Fatalf("valid chaos config rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewChaosTransport did not panic")
		}
	}()
	MustNewChaosTransport(ChaosConfig{Drop: -1}, nil)
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestClusterMatchesSerial is the baseline determinism gate: a fault-free
// 3-worker sweep merges to the exact bytes of a serial campaign.
func TestClusterMatchesSerial(t *testing.T) {
	ids := plan(10)
	workers := []string{
		newWorker(t, nil, 0).URL,
		newWorker(t, nil, 0).URL,
		newWorker(t, nil, 0).URL,
	}
	cfg := testConfig(t, workers, 7)
	co, err := New(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	man, err := co.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("cluster manifest complete=%t clean=%t", man.Complete(), man.Clean())
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 7); got != want {
		t.Fatalf("cluster manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Completion removes the sidecar: the merged manifest is the result.
	if _, err := os.Stat(cfg.ClusterPath); cfg.ClusterPath != "" && !os.IsNotExist(err) {
		// ClusterPath was defaulted inside Run's config copy.
		if _, err := os.Stat(cfg.Path + ".cluster"); !os.IsNotExist(err) {
			t.Fatalf("completed run left a cluster checkpoint (err %v)", err)
		}
	}

	var sb strings.Builder
	if err := co.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`fabric_shards{state="committed"} 4`,
		`fabric_shards{state="pending"} 0`,
		`fabric_workers{state="healthy"} 3`,
		"fabric_jobs_submitted_total 4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestChaosAndWorkerKillMatchesSerial is the acceptance property from the
// issue: with the transport dropping, delaying, 503ing and truncating at a
// nonzero rate AND one of three workers killed mid-sweep, the merged
// manifest is still byte-identical to the serial run.
func TestChaosAndWorkerKillMatchesSerial(t *testing.T) {
	ids := plan(12)
	doomed := newWorker(t, nil, 5*time.Millisecond)
	workers := []string{
		newWorker(t, nil, 5*time.Millisecond).URL,
		doomed.URL,
		newWorker(t, nil, 5*time.Millisecond).URL,
	}
	cfg := testConfig(t, workers, 11)
	cfg.ShardSize = 2
	cfg.Transport = MustNewChaosTransport(ChaosConfig{
		Drop: 0.05, Delay: 0.2, DelayMax: 5 * time.Millisecond,
		Err5xx: 0.05, Truncate: 0.05, Seed: 3,
	}, nil)

	// Kill the middle worker as soon as the first shard commits.
	killed := killOnFirstCommit(cfg.Path, func() {
		doomed.CloseClientConnections()
		doomed.Close()
	})

	man := runToCompletion(t, cfg, ids)
	if midRun, ok := <-killed; !ok || !midRun {
		t.Fatal("the worker kill did not land mid-run")
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("cluster manifest complete=%t clean=%t", man.Complete(), man.Clean())
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 11); got != want {
		t.Fatalf("chaos cluster manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// killOnFirstCommit calls kill once the merged store at path holds a
// committed record, and then reports whether the plan was still incomplete
// at that moment. The journal is the commit point — the manifest file only
// appears when the run ends — so the trigger reads the committed state.
func killOnFirstCommit(path string, kill func()) <-chan bool {
	midRun := make(chan bool, 1)
	go func() {
		defer close(midRun)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			if h := campaign.Inspect(durable.OS(), path); h.Records >= 1 {
				kill()
				midRun <- !h.Complete
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	return midRun
}

// runToCompletion drives a cluster sweep to completion, resuming through
// resumable halts the way the CI loop (and an operator) would. Transient
// all-workers-unhealthy windows under heavy chaos make halts legitimate;
// what is never legitimate is a wrong byte in the merged manifest.
func runToCompletion(t *testing.T, cfg Config, ids []string) *campaign.Manifest {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for attempt := 0; ; attempt++ {
		var co *Coordinator
		var err error
		if campaign.Exists(durable.OS(), cfg.Path) {
			co, err = Resume(cfg, ids)
		} else {
			co, err = New(cfg, ids)
		}
		if err != nil {
			t.Fatal(err)
		}
		man, runErr := co.Run(ctx)
		if runErr == nil {
			return man
		}
		if !errors.Is(runErr, ErrHalted) || attempt >= 10 {
			t.Fatalf("cluster run (attempt %d): %v", attempt+1, runErr)
		}
	}
}

// TestAllWorkersDieHaltsThenResumeCompletes: when the whole fleet dies the
// coordinator halts into a resumable checkpoint instead of spinning, and a
// Resume against a fresh fleet finishes the plan with serial bytes.
func TestAllWorkersDieHaltsThenResumeCompletes(t *testing.T) {
	ids := []string{"exp00", "exp01", "slow-exp02", "exp03"}
	gate := make(chan struct{})
	mortal := newWorker(t, gate, 0)
	cfg := testConfig(t, []string{mortal.URL}, 13)
	cfg.ShardSize = 2
	cfg.MaxRetries = 1
	cfg.BaseBackoff = time.Millisecond
	cfg.MaxBackoff = 5 * time.Millisecond

	co, err := New(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := co.Run(context.Background())
		done <- err
	}()

	// Shard 0 commits; shard 1 wedges on the gate. Then the fleet dies.
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("first shard never committed")
		}
		if h := campaign.Inspect(durable.OS(), cfg.Path); h.Records >= 1 {
			if h.Complete {
				t.Fatal("the plan completed before the fleet died")
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mortal.CloseClientConnections()
	mortal.Close()

	if err := <-done; !errors.Is(err, ErrHalted) {
		t.Fatalf("run with a dead fleet returned %v, want ErrHalted", err)
	}
	close(gate) // release the wedged entry so the dead worker can drain

	// The committed prefix survived, compacted into the manifest at the
	// halt.
	man, err := campaign.Load(cfg.Path)
	if err != nil {
		t.Fatal(err)
	}
	if man.Entries["exp00"] == nil || man.Entries["exp01"] == nil {
		t.Fatalf("committed shard lost: %v", man.Counts())
	}

	// Resume against a replacement fleet completes the plan.
	cfg2 := cfg
	cfg2.Workers = []string{newWorker(t, nil, 0).URL}
	co2, err := Resume(cfg2, ids)
	if err != nil {
		t.Fatal(err)
	}
	man2, err := co2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !man2.Complete() || !man2.Clean() {
		t.Fatalf("resumed manifest complete=%t clean=%t", man2.Complete(), man2.Clean())
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 13); got != want {
		t.Fatalf("resumed cluster manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWorkSteal: an idle worker duplicates a straggling shard and the
// sweep completes without waiting for the slow owner, bytes unchanged.
func TestWorkSteal(t *testing.T) {
	ids := []string{"slow-exp00", "exp01", "exp02", "exp03", "exp04", "exp05"}
	gate := make(chan struct{})
	workers := []string{
		newWorker(t, gate, 0).URL,
		newWorker(t, gate, 0).URL,
	}
	cfg := testConfig(t, workers, 17)
	cfg.ShardSize = 2
	cfg.StealAfter = 20 * time.Millisecond

	co, err := New(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var man *campaign.Manifest
	go func() {
		var err error
		man, err = co.Run(context.Background())
		done <- err
	}()

	// Whoever owns the slow-exp00 shard wedges on the gate; the other
	// worker clears the rest of the plan and steals the straggler. Only
	// then is the gate released (unblocking both copies).
	deadline := time.Now().Add(15 * time.Second)
	for co.stealCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no steal happened")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("manifest complete=%t clean=%t", man.Complete(), man.Clean())
	}
	if co.stealCount() == 0 {
		t.Fatal("steal counter reset")
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 17); got != want {
		t.Fatalf("stolen-shard manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHungJobCancelledAndRequeued: a job that stops committing entries is
// detected, cancelled on the worker, and its shard requeued — and the
// retry produces the same bytes a never-hung run would.
func TestHungJobCancelledAndRequeued(t *testing.T) {
	ids := []string{"slow-exp00", "exp01"}
	gate := make(chan struct{})
	worker := newWorker(t, gate, 0)
	cfg := testConfig(t, []string{worker.URL}, 19)
	cfg.ShardSize = 1
	cfg.HangTimeout = 150 * time.Millisecond

	co, err := New(cfg, ids)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	var man *campaign.Manifest
	go func() {
		var err error
		man, err = co.Run(context.Background())
		done <- err
	}()

	// The first attempt wedges until the hang detector fires; releasing the
	// gate then lets the cancelled job unwind and the requeued attempt fly.
	deadline := time.Now().Add(15 * time.Second)
	for co.hungCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hang never detected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if co.hungCount() == 0 || co.requeueCount() == 0 {
		t.Fatalf("hung=%d requeues=%d, want both > 0", co.hungCount(), co.requeueCount())
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("manifest complete=%t clean=%t", man.Complete(), man.Clean())
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 19); got != want {
		t.Fatalf("post-hang manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// stealCount, hungCount and requeueCount read coordinator counters for
// test synchronization.
func (co *Coordinator) stealCount() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.mSteals.Value()
}

func (co *Coordinator) hungCount() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.mHung.Value()
}

func (co *Coordinator) requeueCount() int64 {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.mRequeues.Value()
}
