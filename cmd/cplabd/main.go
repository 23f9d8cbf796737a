// Command cplabd is the lab job daemon: the cplab campaign engine behind
// an HTTP/JSON API. Clients POST campaign specs to /jobs, poll job state,
// fetch checkpointed manifests, and scrape /metrics; SIGTERM drains the
// service, checkpointing any in-flight campaign so the next cplabd (or a
// plain `cplab resume`) picks it up where it stopped.
//
//	cplabd -addr :8642 -state /var/lib/cplab
//	curl -s localhost:8642/jobs -d '{"ids":["fig4.1"],"seed":7,"parallel":4}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/fsfault"
	"repro/internal/labd"
	"repro/internal/obs"
	"repro/internal/timebase"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cplabd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "listen address")
	state := fs.String("state", "cplabd-state", "state directory (job records + campaign manifests)")
	expwall := fs.Duration("expwall", 0, "wall-clock budget per campaign entry (0 = unbounded)")
	queueLimit := fs.Int("queue", 64, "maximum queued jobs before submissions are refused")
	drainWait := fs.Duration("drain", 30*time.Second, "shutdown budget for checkpointing in-flight work")
	diskchaos := fs.Float64("diskchaos", 0, "inject ENOSPC/EIO into state-dir writes with this probability (testing)")
	diskchaosseed := fs.Uint64("diskchaosseed", 1, "seed for the -diskchaos fault schedule")
	spans := fs.String("spans", "", "append job span timelines to this JSONL path (observation only)")
	spanslices := fs.Bool("spanslices", false, "with -spans: record per-event scheduler slices (verbose)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the service mux")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "cplabd: unexpected arguments:", fs.Args())
		return 2
	}
	var stateFS durable.FS
	if *diskchaos > 0 {
		inj, err := fsfault.New(fsfault.Config{Seed: *diskchaosseed, ErrRate: *diskchaos})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cplabd:", err)
			return 2
		}
		stateFS = inj
		fmt.Fprintf(os.Stderr, "cplabd: disk chaos enabled (rate %g, seed %d)\n", *diskchaos, *diskchaosseed)
	}

	srv, err := labd.NewServer(labd.Config{
		StateDir: *state,
		FS:       stateFS,
		Entries: func(sp labd.Spec) []campaign.Entry {
			return repro.CampaignEntries(sp.IDs, optionsOf(sp), sp.Retries)
		},
		ValidateSpec: validate,
		Normalize:    normalize,
		Note: func(sp labd.Spec) string {
			return repro.CampaignNote(optionsOf(sp), sp.Retries)
		},
		QueueLimit: *queueLimit,
		ExpWall:    *expwall,
		Log:        os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplabd:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplabd:", err)
		return 1
	}

	// Span tracing: the daemon appends (never truncates) so restarted
	// workers extend the same log, and each job span adopts the trace the
	// coordinator propagated over HTTP. The process name carries the
	// listen address so multi-worker timelines get distinct tracks.
	if *spans != "" {
		tr, terr := obs.New(obs.Config{
			Proc:  "cplabd " + ln.Addr().String(),
			Trace: "cplabd",
			Path:  *spans,
		})
		if terr != nil {
			fmt.Fprintln(os.Stderr, "cplabd:", terr)
			return 2
		}
		obs.SetAmbient(&obs.Ctx{Tracer: tr, Slices: *spanslices})
		defer func() {
			obs.SetAmbient(nil)
			if cerr := tr.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "cplabd: spans:", cerr)
				return
			}
			fmt.Fprintf(os.Stderr, "cplabd: spans: wrote %d spans to %s\n", tr.Spans(), *spans)
		}()
	}

	srv.Start()
	fmt.Fprintf(os.Stderr, "cplabd: listening on %s (state %s)\n", ln.Addr(), *state)

	// The service handler, optionally wrapped with pprof on an explicit
	// mux — never the DefaultServeMux, which third-party imports can
	// pollute.
	var handler http.Handler = srv.Handler()
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		fmt.Fprintf(os.Stderr, "cplabd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	// The hardened server: header/read/idle timeouts against slow clients.
	hs := labd.NewHTTPServer(handler)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "cplabd: draining (checkpointing in-flight jobs)")
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cplabd:", err)
		return 1
	}

	dctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "cplabd: drain:", err)
		hs.Close()
		return 1
	}
	hs.Close()
	fmt.Fprintln(os.Stderr, "cplabd: drained; unfinished jobs resume on restart")
	return 0
}

// optionsOf maps a job spec onto experiment run options the same way the
// cplab CLI maps its flags, so daemon jobs and CLI campaigns with matching
// configuration produce byte-identical manifests.
func optionsOf(sp labd.Spec) repro.Options {
	scale := repro.Quick
	if sp.Paper {
		scale = repro.Paper
	}
	return repro.Options{
		Scale:     scale,
		Seed:      sp.Seed,
		FaultRate: sp.Faults,
		SimBudget: timebase.Duration(sp.SimBudget),
	}
}

// normalize canonicalizes a spec before validation and persistence: seed 0
// becomes 1, the CLI default.
func normalize(sp labd.Spec) labd.Spec {
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	return sp
}

// validate vets a spec at submission, mirroring the CLI's flag checks.
func validate(sp labd.Spec) error {
	for _, id := range sp.IDs {
		if _, ok := repro.Lookup(id); !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
	}
	if sp.Faults < 0 || sp.Faults > 1 {
		return fmt.Errorf("faults %g is outside [0,1]", sp.Faults)
	}
	if sp.SimBudget < 0 {
		return fmt.Errorf("simbudget %s is negative", sp.SimBudget)
	}
	if sp.Retries < 0 {
		return fmt.Errorf("retries %d is negative", sp.Retries)
	}
	if sp.Parallel < 0 {
		return fmt.Errorf("parallel %d is negative", sp.Parallel)
	}
	return nil
}
