package labd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// fakeEntries builds a deterministic plan from the spec: one entry per id,
// rendering from the seed; ids prefixed "fail-" fail deterministically;
// ids prefixed "slow-" block until gate is closed (nil gate = no blocking).
func fakeEntries(gate chan struct{}) func(Spec) []campaign.Entry {
	return func(spec Spec) []campaign.Entry {
		ids := spec.IDs
		if len(ids) == 0 {
			ids = []string{"alpha", "beta"}
		}
		out := make([]campaign.Entry, 0, len(ids))
		for _, id := range ids {
			id := id
			out = append(out, campaign.Entry{ID: id, Run: func(seed uint64) campaign.Attempt {
				if gate != nil && strings.HasPrefix(id, "slow-") {
					<-gate
				}
				if strings.HasPrefix(id, "fail-") {
					return campaign.Attempt{Attempts: 1, Err: fmt.Errorf("%s broke (seed %d)", id, seed)}
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
}

// testConfig is the test servers' configuration: fake entries, seed 0
// normalized to 1, and a note that depends only on Paper.
func testConfig(dir string, gate chan struct{}) Config {
	return Config{
		StateDir: dir,
		Entries:  fakeEntries(gate),
		Normalize: func(sp Spec) Spec {
			if sp.Seed == 0 {
				sp.Seed = 1
			}
			return sp
		},
		Note: func(sp Spec) string { return fmt.Sprintf("paper=%t", sp.Paper) },
	}
}

// newTestServer builds a started server over fake entries plus its HTTP
// front end. The returned cleanup drains with a generous deadline.
func newTestServer(t *testing.T, dir string, gate chan struct{}) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := NewServer(testConfig(dir, gate))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return srv, hs
}

// submit POSTs a spec and decodes the accepted job view.
func submit(t *testing.T, hs *httptest.Server, spec Spec) JobView {
	t.Helper()
	b, _ := json.Marshal(spec)
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: status %d: %s", resp.StatusCode, body)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// getJob fetches one job view.
func getJob(t *testing.T, hs *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(hs.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s: status %d", id, resp.StatusCode)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// waitState polls until the job reaches want (or the deadline).
func waitState(t *testing.T, hs *httptest.Server, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		view := getJob(t, hs, id)
		if view.State == want {
			return view
		}
		if view.State.terminal() && view.State != want {
			t.Fatalf("job %s landed %s (error %q), want %s", id, view.State, view.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobView{}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	view := submit(t, hs, Spec{IDs: []string{"a", "b", "c"}, Seed: 7, Parallel: 2})
	if view.State != StateQueued {
		t.Fatalf("submitted job state %s, want queued", view.State)
	}
	final := waitState(t, hs, view.ID, StateDone)
	if !final.Clean || final.Done != 3 || final.Total != 3 {
		t.Fatalf("final view: %+v", final)
	}

	// The manifest endpoint serves the checkpoint, records intact.
	resp, err := http.Get(hs.URL + "/jobs/" + view.ID + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var man campaign.Manifest
	if err := json.NewDecoder(resp.Body).Decode(&man); err != nil {
		t.Fatal(err)
	}
	if man.Seed != 7 || !man.Complete() {
		t.Fatalf("manifest: seed %d complete %t", man.Seed, man.Complete())
	}
	if got := man.Entries["b"].Rendered; got != "b result (seed 7)\n" {
		t.Fatalf("entry b rendered %q", got)
	}
}

func TestSeedNormalizedAndFailuresSurface(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	view := submit(t, hs, Spec{IDs: []string{"a", "fail-x"}})
	if view.Spec.Seed != 1 {
		t.Fatalf("seed not normalized: %+v", view.Spec)
	}
	final := waitState(t, hs, view.ID, StateDone)
	if final.Clean {
		t.Fatalf("job with a failing entry reported clean: %+v", final)
	}
}

func TestJobsRunFIFO(t *testing.T) {
	gate := make(chan struct{})
	srv, hs := newTestServer(t, t.TempDir(), gate)
	first := submit(t, hs, Spec{IDs: []string{"slow-a"}})
	second := submit(t, hs, Spec{IDs: []string{"b"}})

	waitState(t, hs, first.ID, StateRunning)
	if got := getJob(t, hs, second.ID); got.State != StateQueued {
		t.Fatalf("second job state %s while first runs, want queued", got.State)
	}
	close(gate)
	waitState(t, hs, first.ID, StateDone)
	waitState(t, hs, second.ID, StateDone)

	views := srv.Jobs()
	if len(views) != 2 || views[0].ID != first.ID || views[1].ID != second.ID {
		t.Fatalf("job order: %+v", views)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	_, hs := newTestServer(t, t.TempDir(), gate)
	running := submit(t, hs, Spec{IDs: []string{"slow-a", "b"}})
	queued := submit(t, hs, Spec{IDs: []string{"c"}})
	waitState(t, hs, running.ID, StateRunning)

	del := func(id string) int {
		req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del(queued.ID); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	if got := getJob(t, hs, queued.ID); got.State != StateCanceled {
		t.Fatalf("queued job after cancel: %s", got.State)
	}
	if code := del(running.ID); code != http.StatusOK {
		t.Fatalf("cancel running: status %d", code)
	}
	// The running entry is blocked on the gate; cancellation stops dispatch
	// and the drained campaign marks the job canceled once the entry
	// returns (the deferred close above releases it at test end) — but a
	// cancelled-while-blocked job must already refuse further cancels.
	if code := del(queued.ID); code != http.StatusConflict {
		t.Fatalf("re-cancel terminal job: status %d, want 409", code)
	}
}

func TestValidateRejectsBadSpec(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{
		StateDir: dir,
		Entries:  fakeEntries(nil),
		ValidateSpec: func(sp Spec) error {
			if sp.Faults > 1 {
				return fmt.Errorf("faults %g outside [0,1]", sp.Faults)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer srv.Drain(context.Background())

	b, _ := json.Marshal(Spec{Faults: 2})
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: status %d, want 400", resp.StatusCode)
	}
	// Unknown fields are rejected too (typo protection for curl users).
	resp, err = http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(`{"idz": ["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
}

func TestNotFound(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	for _, path := range []string{"/jobs/nope", "/jobs/nope/manifest"} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, t.TempDir(), nil)
	view := submit(t, hs, Spec{IDs: []string{"a", "b"}})
	waitState(t, hs, view.ID, StateDone)

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`labd_jobs{state="done"} 1`,
		`labd_jobs{state="queued"} 0`,
		"labd_queue_depth 0",
		"labd_entries_total 2",
		"labd_workers_busy 0",
		"labd_worker_capacity",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestDrainCheckpointsAndRestartResumes is the service-level acceptance
// property: SIGTERM-style drain interrupts the running job mid-campaign,
// leaves a resumable checkpoint, and a fresh server over the same state
// directory picks the job back up and completes it — with the manifest
// byte-identical to an uninterrupted run.
func TestDrainCheckpointsAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	cfg := func(gate chan struct{}) Config {
		return Config{
			StateDir: dir,
			Entries:  fakeEntries(gate),
			Note:     func(sp Spec) string { return fmt.Sprintf("paper=%t", sp.Paper) },
		}
	}

	srv, err := NewServer(cfg(gate))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())

	// Plan: a commits, slow-b blocks on the gate. Drain while b is stuck.
	view := submit(t, hs, Spec{IDs: []string{"a", "slow-b", "c"}, Seed: 5})
	waitState(t, hs, view.ID, StateRunning)
	deadline := time.Now().Add(15 * time.Second)
	for getJob(t, hs, view.ID).Done < 1 {
		if time.Now().After(deadline) {
			t.Fatal("entry a never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.BeginDrain() // the running job's context is now cancelled
	close(gate)      // the in-flight entry finishes; the campaign halts
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	hs.Close()

	if got := srv.Jobs()[0]; got.State != StateHalted {
		t.Fatalf("drained job state %s, want halted", got.State)
	}

	// Restart: a fresh server over the same state dir requeues and finishes
	// the job.
	srv2, err := NewServer(cfg(nil))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Drain(ctx)
	}()

	final := waitState(t, hs2, view.ID, StateDone)
	if !final.Clean || final.Done != 3 {
		t.Fatalf("resumed job: %+v", final)
	}

	// Byte-identity with an uninterrupted run of the same spec.
	refDir := t.TempDir()
	ref, err := NewServer(Config{StateDir: refDir, Entries: fakeEntries(nil),
		Note: func(sp Spec) string { return fmt.Sprintf("paper=%t", sp.Paper) }})
	if err != nil {
		t.Fatal(err)
	}
	ref.Start()
	hsRef := httptest.NewServer(ref.Handler())
	defer hsRef.Close()
	defer ref.Drain(context.Background())
	refView := submit(t, hsRef, Spec{IDs: []string{"a", "slow-b", "c"}, Seed: 5})
	waitState(t, hsRef, refView.ID, StateDone)

	got := fetchManifest(t, hs2, view.ID)
	want := fetchManifest(t, hsRef, refView.ID)
	if got != want {
		t.Fatalf("resumed manifest differs from uninterrupted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestManifestServesCommittedMidRun: mid-run a job's records live in its
// journal (the manifest file is compacted only when the job ends), and the
// endpoint serves them: once k records are counted done, a fetch returns
// at least k. Once the job is done it serves the manifest file's bytes.
func TestManifestServesCommittedMidRun(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	srv, hs := newTestServer(t, t.TempDir(), gate)
	t.Cleanup(release) // runs before the server's drain

	view := submit(t, hs, Spec{IDs: []string{"a", "b", "slow-c", "d"}, Seed: 4})
	deadline := time.Now().Add(15 * time.Second)
	var k int
	for k = getJob(t, hs, view.ID).Done; k < 2; k = getJob(t, hs, view.ID).Done {
		if time.Now().After(deadline) {
			t.Fatal("entries a and b never committed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(srv.ManifestPath(view.ID)); !os.IsNotExist(err) {
		t.Fatalf("manifest file present mid-run (err %v): nothing left to fold", err)
	}
	var man campaign.Manifest
	if err := json.Unmarshal([]byte(fetchManifest(t, hs, view.ID)), &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Entries) < k || man.Entries["a"] == nil || man.Entries["b"] == nil {
		t.Fatalf("mid-run fetch after %d committed records served %v", k, man.Counts())
	}

	release()
	waitState(t, hs, view.ID, StateDone)
	file, err := os.ReadFile(srv.ManifestPath(view.ID))
	if err != nil {
		t.Fatal(err)
	}
	if got := fetchManifest(t, hs, view.ID); got != string(file) {
		t.Fatalf("done job's manifest served as\n%s\nnot the file's bytes\n%s", got, file)
	}
}

// fetchManifest returns the manifest endpoint's raw bytes.
func fetchManifest(t *testing.T, hs *httptest.Server, id string) string {
	t.Helper()
	resp, err := http.Get(hs.URL + "/jobs/" + id + "/manifest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest %s: status %d: %s", id, resp.StatusCode, b)
	}
	return string(b)
}

// TestQueueLimit: submissions beyond the queue capacity are rejected 503.
func TestQueueLimit(t *testing.T) {
	gate := make(chan struct{})
	dir := t.TempDir()
	srv, err := NewServer(Config{StateDir: dir, Entries: fakeEntries(gate), QueueLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		// Cancel the running campaign before releasing the gate, so the
		// blocked entry observes the drain instead of finishing normally.
		srv.BeginDrain()
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	submit(t, hs, Spec{IDs: []string{"slow-a"}}) // occupies the dispatcher
	waitState(t, hs, "job-000000", StateRunning)
	submit(t, hs, Spec{IDs: []string{"b"}})
	submit(t, hs, Spec{IDs: []string{"c"}})
	b, _ := json.Marshal(Spec{IDs: []string{"d"}})
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-limit submit: status %d, want 503", resp.StatusCode)
	}
}

// TestJobWidthBoundedByBudget: a job's "parallel" is an upper bound that
// the process's CPU budget caps. Sixteen entries that block until
// released, submitted with parallel 64 at GOMAXPROCS=2, never have more
// than two entries running at once (labd_workers_busy).
func TestJobWidthBoundedByBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	release := make(chan struct{})
	cfg := testConfig(t.TempDir(), nil)
	cfg.Entries = func(spec Spec) []campaign.Entry {
		out := make([]campaign.Entry, len(spec.IDs))
		for i, id := range spec.IDs {
			out[i] = campaign.Entry{ID: id, Run: func(uint64) campaign.Attempt {
				<-release
				return campaign.Attempt{Rendered: id + "\n", Attempts: 1}
			}}
		}
		return out
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	busy := func() int {
		var b strings.Builder
		if err := srv.WriteMetrics(&b); err != nil {
			t.Fatal(err)
		}
		var n int
		for _, line := range strings.Split(b.String(), "\n") {
			if _, err := fmt.Sscanf(line, "labd_workers_busy %d", &n); err == nil {
				return n
			}
		}
		t.Fatalf("no labd_workers_busy in /metrics:\n%s", b.String())
		return 0
	}

	ids := make([]string, 16)
	for i := range ids {
		ids[i] = fmt.Sprintf("entry-%02d", i)
	}
	view := submit(t, hs, Spec{IDs: ids, Parallel: 64})
	peak := 0
	for range ids {
		// Wait for a blocked entry, give any others time to start, then
		// sample and release one.
		deadline := time.Now().Add(10 * time.Second)
		for busy() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("no entry started")
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		peak = max(peak, busy())
		select {
		case release <- struct{}{}:
		case <-time.After(10 * time.Second):
			t.Fatal("no entry took the release")
		}
	}
	waitState(t, hs, view.ID, StateDone)
	if peak > 2 {
		t.Fatalf("labd_workers_busy reached %d with parallel 64, want at most GOMAXPROCS = 2", peak)
	}
}
