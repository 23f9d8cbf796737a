package main

// cluster.go is the `cplab cluster` subcommand: a checkpointed campaign
// sweep sharded across cplabd workers through the fabric coordinator.
// The note, plan and manifest layout are exactly `cplab campaign`'s, so
// the merged manifest is byte-identical to a serial run of the same plan
// and either tool can resume the other's checkpoints.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/fabric"
	"repro/internal/labd"
	"repro/internal/report"
)

// clusterCmd runs (or auto-resumes) a cluster campaign across cplabd
// workers.
func clusterCmd(args []string) int {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	cf := addCommon(fs)
	workersCSV := fs.String("workers", "", "comma-separated cplabd base URLs (required)")
	manifest := fs.String("manifest", "campaign.json", "merged checkpoint manifest path")
	idsCSV := fs.String("ids", "", "comma-separated experiment IDs (default: all, in paper order)")
	retries := fs.Int("retries", 2, "guarded bumped-seed retries per experiment")
	shard := fs.Int("shard", 4, "plan entries per shard")
	parallel := fs.Int("parallel", 1, "upper bound on campaign workers per cplabd job (the worker's CPU budget caps it)")
	wall := fs.Duration("wall", 0, "wall-clock budget for this session; halts resumable (0 = unbounded)")
	hang := fs.Duration("hang", 2*time.Minute, "cancel and requeue a shard job with no progress for this long")
	poll := fs.Duration("poll", 250*time.Millisecond, "job polling cadence")
	stealAfter := fs.Duration("steal", 2*time.Second, "idle workers duplicate shards running longer than this")
	reqTimeout := fs.Duration("timeout", 10*time.Second, "per-request HTTP timeout")
	maxRetries := fs.Int("httpretries", 4, "per-request retry budget")
	chaosnet := fs.Float64("chaosnet", 0, "network fault-injection rate in [0,1]: drops, delays, 503s, truncations (testing)")
	chaosseed := fs.Uint64("chaosseed", 1, "seed for the -chaosnet fault schedule")
	metricsAddr := fs.String("metricsaddr", "", "serve coordinator /metrics here (empty = off)")
	force := fs.Bool("force", false, "discard an existing manifest and start over")
	fs.Parse(args)
	o, err := cf.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	if o.Defense != "" {
		// cplabd job specs carry no defense, so the workers would run an
		// undefended sweep under a defended flag set.
		fmt.Fprintln(os.Stderr, "cplab: cluster does not support -defense")
		return exitUsage
	}
	if *workersCSV == "" {
		fmt.Fprintln(os.Stderr, "cplab: cluster needs -workers (comma-separated cplabd URLs)")
		return exitUsage
	}
	if *retries < 0 {
		fmt.Fprintf(os.Stderr, "cplab: -retries %d is negative\n", *retries)
		return exitUsage
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "cplab: -parallel %d is not positive\n", *parallel)
		return exitUsage
	}
	if *chaosnet < 0 || *chaosnet > 1 {
		fmt.Fprintf(os.Stderr, "cplab: -chaosnet %v is outside [0,1]\n", *chaosnet)
		return exitUsage
	}
	stop, err := cf.startSpansAs("cplab", fmt.Sprintf("cluster-seed%d", *cf.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defer stop()

	var workers []string
	for _, w := range strings.Split(*workersCSV, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	plan := planIDs(*idsCSV)
	for _, id := range plan {
		if _, ok := repro.Lookup(id); !ok {
			fmt.Fprintf(os.Stderr, "cplab: unknown experiment %q (try `cplab list`)\n", id)
			return exitUsage
		}
	}

	var transport http.RoundTripper
	if *chaosnet > 0 {
		transport = fabric.MustNewChaosTransport(fabric.ChaosConfig{
			Drop:     *chaosnet,
			Delay:    *chaosnet,
			DelayMax: 20 * time.Millisecond,
			Err5xx:   *chaosnet,
			Truncate: *chaosnet,
			Seed:     *chaosseed,
		}, nil)
		fmt.Fprintf(os.Stderr, "cplab: chaosnet on — injecting network faults at rate %g (seed %d)\n", *chaosnet, *chaosseed)
	}

	cfg := fabric.Config{
		Workers: workers,
		Spec: labd.Spec{
			Paper:     *cf.paper,
			Seed:      *cf.seed,
			Faults:    *cf.faults,
			SimBudget: time.Duration(o.SimBudget),
			Retries:   *retries,
			Parallel:  *parallel,
		},
		// The same note `cplab campaign` and cplabd write; any mismatch
		// anywhere in the cluster is refused instead of merging
		// incomparable records.
		Note:           repro.CampaignNote(o, *retries),
		Path:           *manifest,
		ShardSize:      *shard,
		RequestTimeout: *reqTimeout,
		PollInterval:   *poll,
		HangTimeout:    *hang,
		StealAfter:     *stealAfter,
		MaxRetries:     *maxRetries,
		Transport:      transport,
		Log:            os.Stderr,
	}

	_, statErr := os.Stat(*manifest)
	exists := statErr == nil
	var co *fabric.Coordinator
	if exists && !*force {
		fmt.Fprintf(os.Stderr, "cplab: manifest %s exists — resuming the cluster sweep (use -force to start over)\n", *manifest)
		co, err = fabric.Resume(cfg, plan)
	} else {
		co, err = fabric.New(cfg, plan)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cplab:", err)
			return exitUsage
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			co.WriteMetrics(w)
		})
		mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(co.Status())
		})
		ms := labd.NewHTTPServer(mux)
		go ms.Serve(ln)
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "cplab: coordinator metrics on http://%s/metrics, progress on /status\n", ln.Addr())
	}

	ctx := context.Background()
	if *wall > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *wall)
		defer cancel()
	}
	man, runErr := co.Run(ctx)
	fmt.Fprintln(os.Stderr, "===== campaign summary =====")
	fmt.Fprint(os.Stderr, report.CampaignSummary(man.Rows()))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "cplab:", runErr)
		if errors.Is(runErr, fabric.ErrHalted) {
			return exitHalted
		}
		return exitDegraded
	}

	// Complete: stdout is assembled from the merged manifest in plan order —
	// byte-for-byte what a width-1 `cplab campaign` of the same plan prints.
	if *cf.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(man); err != nil {
			fmt.Fprintln(os.Stderr, "cplab:", err)
			return exitDegraded
		}
	} else {
		printManifestResults(man)
	}
	if !man.Clean() {
		return exitDegraded
	}
	return exitOK
}

// planIDs parses -ids, defaulting to the full registry in paper order.
func planIDs(csv string) []string {
	var ids []string
	if csv != "" {
		for _, id := range strings.Split(csv, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
		return ids
	}
	for _, e := range repro.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}
