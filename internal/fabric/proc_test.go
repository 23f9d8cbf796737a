package fabric

// proc_test.go is the real-process half of the fault matrix: the in-package
// tests fake worker death by closing an httptest server, which still tears
// connections down politely. Here the worker is a separate OS process
// serving the labd API over real TCP, and it dies by SIGKILL — no FIN, no
// drain, sockets left mid-conversation — while the coordinator is actively
// driving it. The sweep must still complete on the surviving worker with
// serial-identical bytes.
//
// The worker process is this same test binary re-executed: TestMain sees
// the env var and becomes a worker instead of running the tests.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/labd"
)

// workerEnv switches the re-executed test binary into worker mode.
const workerEnv = "FABRIC_TEST_WORKER_STATE"

func TestMain(m *testing.M) {
	if dir := os.Getenv(workerEnv); dir != "" {
		runWorkerProcess(dir)
		return
	}
	os.Exit(m.Run())
}

// runWorkerProcess serves the labd API on a kernel-chosen port until the
// parent kills the process. The 20ms per-entry sleep stretches campaigns
// so the parent can reliably kill mid-sweep; it never touches the bytes.
func runWorkerProcess(dir string) {
	srv := labd.MustNewServer(labd.Config{
		StateDir: dir,
		Entries: func(sp labd.Spec) []campaign.Entry {
			return entriesFor(sp.IDs, nil, 20*time.Millisecond)
		},
		Note: testNote,
		Log:  os.Stderr,
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	hs := labd.NewHTTPServer(srv.Handler())
	if err := hs.Serve(ln); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
}

// startWorkerProcess launches one worker process and returns its base URL
// and a kill function (SIGKILL — the whole point).
func startWorkerProcess(t *testing.T) (string, func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), workerEnv+"="+t.TempDir())
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = nil
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	kill := func() {
		once.Do(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	t.Cleanup(kill)

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "ADDR "); ok {
			return "http://" + addr, kill
		}
	}
	t.Fatalf("worker process exited before announcing its address (%v)", sc.Err())
	return "", nil
}

// TestRealWorkerSIGKILLMidCampaign: two real worker processes, one
// SIGKILLed after the first shard commits. The coordinator must finish the
// plan on the survivor and the merged manifest must match the serial run
// byte for byte.
func TestRealWorkerSIGKILLMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	ids := plan(10)
	survivorURL, _ := startWorkerProcess(t)
	victimURL, killVictim := startWorkerProcess(t)

	cfg := testConfig(t, []string{survivorURL, victimURL}, 23)
	cfg.ShardSize = 2

	killed := killOnFirstCommit(cfg.Path, killVictim)

	man := runToCompletion(t, cfg, ids)
	if midRun, ok := <-killed; !ok || !midRun {
		t.Fatal("the SIGKILL did not land mid-run")
	}
	if !man.Complete() || !man.Clean() {
		t.Fatalf("manifest complete=%t clean=%t", man.Complete(), man.Clean())
	}
	if got, want := mustBytes(t, cfg.Path), serialBytes(t, ids, 23); got != want {
		t.Fatalf("post-SIGKILL manifest differs from serial:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
