package main

// probes.go holds the layer probes: small loops that call one layer's
// public functions directly and time them. Each probe is isolated in its
// own function, so a refactor of a layer's API touches only its probe.
// Every probe repeats its operation in batches until a wall budget is
// spent and reports the median batch's cost per operation.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/btb"
	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/cfs"
	"repro/internal/durable"
	"repro/internal/eevdf"
	"repro/internal/exps"
	"repro/internal/kern"
	"repro/internal/labd"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/rsakeys"
	"repro/internal/sched"
	"repro/internal/timebase"
	"repro/internal/tlb"
)

// probeBudget is each probe's wall budget in a traced run.
const probeBudget = 60 * time.Millisecond

type probeEnv struct {
	seed   uint64
	dir    string // scratch directory for the I/O probes
	t      *tracer
	parent uint64
	budget time.Duration
}

// probe is one layer probe: it returns the cost of one operation in the
// metric's unit.
type probe struct {
	name string
	run  func(probeEnv) (float64, error)
}

var probes = []probe{
	{"exps.boot_fresh_us", probeBootFresh},
	{"exps.boot_fork_us", probeBootFork},
	{"kern.handoff_ns", probeHandoff},
	{"kern.event_ns", probeEvent},
	{"cfs.enqueue_pick_ns.d1", probeRunqueue("cfs", 1)},
	{"cfs.enqueue_pick_ns.d16", probeRunqueue("cfs", 16)},
	{"cfs.enqueue_pick_ns.d256", probeRunqueue("cfs", 256)},
	{"eevdf.enqueue_pick_ns.d1", probeRunqueue("eevdf", 1)},
	{"eevdf.enqueue_pick_ns.d16", probeRunqueue("eevdf", 16)},
	{"eevdf.enqueue_pick_ns.d256", probeRunqueue("eevdf", 256)},
	{"cache.touch_hit_ns", probeCacheHit},
	{"cache.insert_miss_ns", probeCacheMiss},
	{"tlb.touch_hit_ns", probeTLBHit},
	{"tlb.insert_miss_ns", probeTLBMiss},
	{"btb.lookup_ns", probeBTBLookup},
	{"btb.update_ns", probeBTBUpdate},
	{"rsakeys.generate_ms", probeRSAKeys},
	{"campaign.commit_ms.m10", probeCommit(10)},
	{"campaign.commit_ms.m1000", probeCommit(1000)},
	{"campaign.commit_ms.m10000", probeCommit(10000)},
	{"durable.write_atomic_ms", probeWriteAtomic},
	{"durable.log_append_ms", probeLogAppend},
	{"labd.roundtrip_ms", probeLabdRoundTrip},
}

// runProbes runs every probe, each under its own span.
func runProbes(env probeEnv) map[string]float64 {
	out := map[string]float64{}
	for _, p := range probes {
		sp := env.t.open(env.parent, p.name, "probe")
		v, err := p.run(env)
		sp.close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: probe %s: %v\n", p.name, err)
			continue
		}
		out[p.name] = v
	}
	return out
}

// timeOps calls op(batch) repeatedly until budget is spent (at least
// three batches) and returns the median batch's nanoseconds per
// operation. op performs batch operations.
func timeOps(budget time.Duration, batch int, op func(n int) error) (float64, error) {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		if err := op(batch); err != nil {
			return 0, err
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per), nil
}

func nsTo(unit float64) func(float64, error) (float64, error) {
	return func(v float64, err error) (float64, error) { return v / unit, err }
}

var (
	asUS = nsTo(1e3)
	asMS = nsTo(1e6)
)

func probeBootFresh(env probeEnv) (float64, error) {
	i := env.seed
	return asUS(timeOps(env.budget, 16, func(n int) error {
		for k := 0; k < n; k++ {
			i++
			exps.NewMachine(exps.CFS, i).Shutdown()
		}
		return nil
	}))
}

func probeBootFork(env probeEnv) (float64, error) {
	defer exps.ScopeMachinePool(exps.NewMachinePool(nil))()
	exps.NewMachine(exps.CFS, env.seed).Shutdown() // boots the pooled template
	i := env.seed
	return asUS(timeOps(env.budget, 16, func(n int) error {
		for k := 0; k < n; k++ {
			i++
			exps.NewMachine(exps.CFS, i).Shutdown()
		}
		return nil
	}))
}

// probeHandoff ping-pongs two threads pinned to one core, each sleeping
// 1µs in turn: every wake is a kernel→thread goroutine handoff.
func probeHandoff(env probeEnv) (float64, error) {
	return timeOps(env.budget, 2000, func(n int) error {
		m := exps.NewMachine(exps.CFS, env.seed)
		defer m.Shutdown()
		wakes := 0
		for i := 0; i < 2; i++ {
			m.Spawn(fmt.Sprintf("pingpong-%d", i), func(e *kern.Env) {
				e.SetTimerSlack(1)
				for {
					e.Nanosleep(timebase.Microsecond)
					wakes++
				}
			}, kern.WithPin(0))
		}
		m.Run(m.Now().Add(timebase.Second), func() bool { return wakes >= n })
		if wakes < n {
			return fmt.Errorf("handoff probe stalled at %d wakes", wakes)
		}
		return nil
	})
}

// probeEvent times timer-event dispatch: one thread with a periodic POSIX
// timer, so the machine's work is dispatching timer-fire events.
func probeEvent(env probeEnv) (float64, error) {
	reg := metrics.New()
	var events int64
	var wall time.Duration
	start := time.Now()
	for time.Since(start) < env.budget || events == 0 {
		restore := metrics.SetAmbient(reg)
		m := exps.NewMachine(exps.CFS, env.seed)
		metrics.SetAmbient(restore)
		m.Spawn("ticker", func(e *kern.Env) {
			e.TimerCreate(10 * timebase.Microsecond)
			for {
				e.Pause()
			}
		}, kern.WithPin(0))
		t0 := time.Now()
		m.RunFor(20 * timebase.Millisecond)
		wall += time.Since(t0)
		m.Shutdown()
		events = reg.Total("kern_events_total")
	}
	return float64(wall) / float64(events), nil
}

// probeRunqueue times one pick-next plus re-enqueue on a runqueue holding
// depth tasks.
func probeRunqueue(kind string, depth int) func(probeEnv) (float64, error) {
	return func(env probeEnv) (float64, error) {
		p := sched.DefaultParams(16)
		var rq sched.Scheduler = cfs.New(p)
		if kind == "eevdf" {
			rq = eevdf.New(p)
		}
		for i := 0; i < depth; i++ {
			rq.Enqueue(sched.NewTask(i+1, fmt.Sprintf("t%d", i), 0), true)
		}
		return timeOps(env.budget, 4096, func(n int) error {
			for k := 0; k < n; k++ {
				t := rq.PickNext()
				rq.UpdateCurr(t, 100*timebase.Microsecond)
				rq.Enqueue(t, false)
			}
			return nil
		})
	}
}

func probeCacheHit(env probeEnv) (float64, error) {
	c := cache.MustNew(cache.Config{Name: "L1D", Size: 32 << 10, Ways: 8})
	c.Insert(0x1000)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			if !c.Touch(0x1000) {
				return fmt.Errorf("cache hit probe missed")
			}
		}
		return nil
	})
}

func probeCacheMiss(env probeEnv) (float64, error) {
	c := cache.MustNew(cache.Config{Name: "L1D", Size: 32 << 10, Ways: 8})
	addr := uint64(0)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			addr += cache.LineSize
			c.Insert(addr)
		}
		return nil
	})
}

func probeTLBHit(env probeEnv) (float64, error) {
	t := tlb.MustNew(tlb.Config{Name: "dTLB", Entries: 64, Ways: 4})
	t.Insert(7)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			if !t.Touch(7) {
				return fmt.Errorf("tlb hit probe missed")
			}
		}
		return nil
	})
}

func probeTLBMiss(env probeEnv) (float64, error) {
	t := tlb.MustNew(tlb.Config{Name: "dTLB", Entries: 64, Ways: 4})
	vpn := uint64(0)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			vpn++
			t.Insert(vpn)
		}
		return nil
	})
}

func probeBTBLookup(env probeEnv) (float64, error) {
	b := btb.New(btb.DefaultConfig)
	b.UpdateBranch(0x401000, 0x402000)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			if _, hit := b.Lookup(0x401000); !hit {
				return fmt.Errorf("btb lookup probe missed")
			}
		}
		return nil
	})
}

func probeBTBUpdate(env probeEnv) (float64, error) {
	b := btb.New(btb.DefaultConfig)
	pc := uint64(0x400000)
	return timeOps(env.budget, 1<<16, func(n int) error {
		for k := 0; k < n; k++ {
			pc += 32
			b.UpdateBranch(pc, pc+0x100)
		}
		return nil
	})
}

func probeRSAKeys(env probeEnv) (float64, error) {
	r := rng.New(env.seed)
	return asMS(timeOps(env.budget, 1, func(n int) error {
		for k := 0; k < n; k++ {
			if _, err := rsakeys.Generate(r); err != nil {
				return err
			}
		}
		return nil
	}))
}

// probeCommit times Checkpointer.Commit of one more record onto a
// manifest already holding size records.
func probeCommit(size int) func(probeEnv) (float64, error) {
	return func(env probeEnv) (float64, error) {
		dir, err := os.MkdirTemp(env.dir, "probe-commit-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		const extra = 64
		man := &campaign.Manifest{Version: campaign.ManifestVersion, Seed: env.seed, Note: "probe",
			Entries: map[string]*campaign.Record{}}
		for i := 0; i < size+extra; i++ {
			id := fmt.Sprintf("micro@%d", i)
			man.IDs = append(man.IDs, id)
			if i < size {
				man.Entries[id] = probeRecord(id, env.seed)
			}
		}
		cp, err := campaign.NewCheckpointer(durable.OS(), filepath.Join(dir, "manifest.json"), man, true)
		if err != nil {
			return 0, err
		}
		next := size
		return asMS(timeOps(env.budget, 1, func(n int) error {
			for k := 0; k < n; k++ {
				// Past the plan's spare slots, re-commit the last record: the
				// manifest size stays put.
				id := man.IDs[min(next, len(man.IDs)-1)]
				next++
				rec := probeRecord(id, env.seed)
				man.Entries[id] = rec
				if err := cp.Commit(man, rec); err != nil {
					return err
				}
			}
			return nil
		}))
	}
}

// probeRecord is a record shaped like a micro-plan entry's.
func probeRecord(id string, seed uint64) *campaign.Record {
	return &campaign.Record{ID: id, Status: campaign.StatusOK, Attempts: 1, Sessions: 1, Seed: seed,
		Rendered: "ok", Telemetry: map[string]int64{`kern_events_total{kind="timer-fire"}`: 4, "kern_sched_in_total": 6}}
}

func probeWriteAtomic(env probeEnv) (float64, error) {
	dir, err := os.MkdirTemp(env.dir, "probe-write-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	data := bytes.Repeat([]byte("perfbench "), 400)
	path := filepath.Join(dir, "file.json")
	return asMS(timeOps(env.budget, 1, func(n int) error {
		for k := 0; k < n; k++ {
			if err := durable.WriteFileAtomic(durable.OS(), path, data, 0o644); err != nil {
				return err
			}
		}
		return nil
	}))
}

func probeLogAppend(env probeEnv) (float64, error) {
	dir, err := os.MkdirTemp(env.dir, "probe-log-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	l := durable.NewLog(durable.OS(), filepath.Join(dir, "journal.wal"))
	payload := bytes.Repeat([]byte("x"), 200)
	return asMS(timeOps(env.budget, 1, func(n int) error {
		for k := 0; k < n; k++ {
			if err := l.Append(payload); err != nil {
				return err
			}
		}
		return nil
	}))
}

// probeFabricEntries is the plan size of the fabric probe's sweep.
const probeFabricEntries = 200

// probeFabric runs one small traced cluster-loopback sweep and returns its
// fabric.* metrics, so every traced run reports the fabric layer.
func probeFabric(env probeEnv) (map[string]float64, error) {
	dir, err := os.MkdirTemp(env.dir, "probe-fabric-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := setupCluster(setupEnv{seed: env.seed, dir: dir,
		sizes: sizes{cluster: probeFabricEntries, shard: defaultSizes.shard}})
	if err != nil {
		return nil, err
	}
	defer s.close()
	u := s.unit(env.t)
	if len(u.problems) > 0 {
		return nil, fmt.Errorf("fabric probe: %s", strings.Join(u.problems, "; "))
	}
	out := map[string]float64{}
	for name, v := range u.layer {
		if strings.HasPrefix(name, "fabric.") {
			out[name] = v
		}
	}
	return out, nil
}

// probeLabdRoundTrip submits a one-entry job to a loopback labd worker
// over HTTP and polls until it is done.
func probeLabdRoundTrip(env probeEnv) (float64, error) {
	dir, err := os.MkdirTemp(env.dir, "probe-labd-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	plan := repro.MicroBenchEntries(1)
	srv, err := labd.NewServer(labd.Config{StateDir: dir, Entries: func(labd.Spec) []campaign.Entry { return plan }})
	if err != nil {
		return 0, err
	}
	srv.Start()
	front := httptest.NewServer(srv.Handler())
	defer func() {
		front.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	body, err := json.Marshal(labd.Spec{IDs: []string{plan[0].ID}, Seed: env.seed})
	if err != nil {
		return 0, err
	}
	return asMS(timeOps(env.budget, 1, func(n int) error {
		for k := 0; k < n; k++ {
			if err := labdJob(front.URL, body); err != nil {
				return err
			}
		}
		return nil
	}))
}

func labdJob(base string, spec []byte) error {
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return err
	}
	var view labd.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/jobs/" + view.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch view.State {
		case labd.StateDone:
			return nil
		case labd.StateFailed, labd.StateCanceled, labd.StateHalted:
			return fmt.Errorf("labd job %s ended %s: %s", view.ID, view.State, view.Error)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("labd job %s not done after 10s", view.ID)
}
