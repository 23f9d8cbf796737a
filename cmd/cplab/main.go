// Command cplab regenerates the paper's tables and figures from the
// simulation.
//
// Usage:
//
//	cplab list                     # show the experiment registry
//	cplab run <id> [flags]         # regenerate one artifact (e.g. fig4.3b)
//	cplab all [flags]              # regenerate everything, in paper order
//	cplab campaign [flags]         # checkpointed sweep (resumes if manifest exists)
//	cplab resume [flags]           # continue an interrupted campaign
//	cplab matrix [flags]           # attack-vs-defense efficacy grid (checkpointed)
//	cplab cluster [flags]          # shard a campaign across cplabd workers
//	cplab fsck [-repair] <path>    # validate (and repair) campaign state on disk
//	cplab trace record <id> [flags]# record the kernel event stream to a .cptrace
//	cplab trace diff <got> <want>  # first-divergence report between two traces
//	cplab timeline [-o P] <logs>   # fold span logs into a Perfetto-loadable trace
//	cplab tail -addr A             # live cluster progress from a /status endpoint
//	cplab metrics -exp <id>        # run instrumented, export telemetry (Prometheus/JSON)
//	cplab profile -exp <id>        # run profiled, report wall cost by event kind
//
// Common flags:
//
//	-paper        run at the paper's sample sizes (default: quick shapes)
//	-seed N       deterministic seed (default 1)
//	-json         emit metrics (run/all) or the manifest (campaign) as JSON
//	-faults R     inject faults at per-opportunity rate R in [0,1] (chaos mode)
//	-simbudget D  ambient simulated-time budget per watchdog phase (0 = defaults)
//	-defense P    install countermeasure preset P in every machine ("" = none)
//	-spans P      record a span timeline (JSONL) to P; observation only
//	-spanslices   with -spans, also record per-event scheduler slices
//
// Campaign flags:
//
//	-manifest P   checkpoint file (default campaign.json)
//	-ids CSV      subset of experiment IDs, in order (default: all)
//	-retries N    guarded bumped-seed retries per experiment (default 2)
//	-expwall D    wall-clock budget per experiment (0 = unbounded)
//	-wall D       wall-clock budget for the whole session (halts resumable)
//	-haltafter N  halt (resumable) after N experiments — interruption injection
//	-parallel N   campaign workers; manifest bytes are identical at any width
//	-nopool       boot machines fresh instead of forking pooled templates
//	-force        discard an existing manifest and start over
//	-diskchaos R  inject ENOSPC/EIO into manifest writes at rate R (testing)
//
// Output on stdout is bit-for-bit deterministic for a given seed and flag
// set; wall-clock timings and summaries go to stderr. Exit codes: 0 clean,
// 1 degraded/failed/divergence, 2 usage, 3 halted-but-resumable.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/defense"
	"repro/internal/durable"
	"repro/internal/fsfault"
	"repro/internal/report"
	"repro/internal/timebase"
	"repro/internal/trace"
)

// guardedRetries is how many bumped-seed re-runs a crashing experiment gets
// under `run`/`all` before it is reported as failed.
const guardedRetries = 2

// Exit codes.
const (
	exitOK       = 0
	exitDegraded = 1
	exitUsage    = 2
	exitHalted   = 3
)

func main() { os.Exit(run(os.Args[1:])) }

// run dispatches a subcommand and returns the process exit code.
func run(args []string) int {
	if len(args) < 1 {
		usage()
		return exitUsage
	}
	switch args[0] {
	case "list":
		for _, e := range repro.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Title)
		}
		return exitOK
	case "run":
		return runCmd(args[1:])
	case "all":
		return allCmd(args[1:])
	case "campaign":
		return campaignCmd(args[1:], false)
	case "resume":
		return campaignCmd(args[1:], true)
	case "matrix":
		return matrixCmd(args[1:])
	case "cluster":
		return clusterCmd(args[1:])
	case "timeline":
		return timelineCmd(args[1:])
	case "tail":
		return tailCmd(args[1:])
	case "fsck":
		return fsckCmd(args[1:])
	case "metrics":
		return metricsCmd(args[1:])
	case "profile":
		return profileCmd(args[1:])
	case "trace":
		if len(args) < 2 {
			usage()
			return exitUsage
		}
		switch args[1] {
		case "record":
			return traceRecordCmd(args[2:])
		case "diff":
			return traceDiffCmd(args[2:])
		}
		usage()
		return exitUsage
	}
	if s := suggestFrom(args[0], subcommands); s != "" {
		fmt.Fprintf(os.Stderr, "cplab: unknown command %q (did you mean %q?)\n", args[0], s)
	}
	usage()
	return exitUsage
}

// subcommands lists every dispatchable subcommand, for did-you-mean.
var subcommands = []string{
	"list", "run", "all", "campaign", "resume", "matrix", "cluster",
	"timeline", "tail", "fsck", "metrics", "profile", "trace",
}

// commonFlags are the flags every experiment-running subcommand shares.
type commonFlags struct {
	paper      *bool
	seed       *uint64
	asJSON     *bool
	faults     *float64
	simbudget  *time.Duration
	defense    *string
	spans      *string
	spanslices *bool
}

// addCommon registers the common flags on fs.
func addCommon(fs *flag.FlagSet) *commonFlags {
	return &commonFlags{
		paper:      fs.Bool("paper", false, "run at the paper's sample sizes"),
		seed:       fs.Uint64("seed", 1, "deterministic seed"),
		asJSON:     fs.Bool("json", false, "emit metrics/manifest as JSON instead of rendered figures"),
		faults:     fs.Float64("faults", 0, "fault-injection rate per opportunity in [0,1] (0 disables)"),
		simbudget:  fs.Duration("simbudget", 0, "simulated-time budget per watchdog phase (0 = experiment defaults)"),
		defense:    fs.String("defense", "", "install a countermeasure preset in every machine (see `cplab matrix -help`; \"\" = none)"),
		spans:      fs.String("spans", "", "record a span timeline to this JSONL path (observation only)"),
		spanslices: fs.Bool("spanslices", false, "with -spans: record per-event scheduler slices (verbose)"),
	}
}

// options validates the common flags and folds them into run options.
func (c *commonFlags) options() (repro.Options, error) {
	if *c.faults < 0 || *c.faults > 1 {
		return repro.Options{}, fmt.Errorf("-faults %v is outside [0,1]", *c.faults)
	}
	if *c.simbudget < 0 {
		return repro.Options{}, fmt.Errorf("-simbudget %v is negative", *c.simbudget)
	}
	if *c.defense != "" {
		if _, err := defense.Preset(*c.defense); err != nil {
			return repro.Options{}, fmt.Errorf("-defense: %w", err)
		}
	}
	o := options(*c.paper, *c.seed, *c.faults)
	o.SimBudget = timebase.Duration(*c.simbudget)
	o.Defense = *c.defense
	return o, nil
}

func options(paper bool, seed uint64, faults float64) repro.Options {
	scale := repro.Quick
	if paper {
		scale = repro.Paper
	}
	return repro.Options{Scale: scale, Seed: seed, FaultRate: faults}
}

// runCmd regenerates one artifact.
func runCmd(args []string) int {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "cplab run <id> [flags]")
		return exitUsage
	}
	id := args[0]
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cf := addCommon(fs)
	fs.Parse(args[1:])
	o, err := cf.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	stop, err := cf.startSpans("cplab")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defer stop()
	if err := runOne(id, o, *cf.asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	return exitOK
}

// allCmd regenerates every artifact.
func allCmd(args []string) int {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	cf := addCommon(fs)
	fs.Parse(args)
	o, err := cf.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	stop, err := cf.startSpans("cplab")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defer stop()
	if !runAll(o, *cf.asJSON) {
		return exitDegraded
	}
	return exitOK
}

// runAll regenerates every artifact through the guarded runner: an
// experiment that crashes (possible by design under -faults) is retried
// with a bumped seed and, failing that, reported — the sweep always reaches
// the end. Results go to stdout (deterministic); the per-experiment summary
// goes to stderr. It returns false if any experiment ended degraded or
// failed.
func runAll(o repro.Options, asJSON bool) bool {
	var rows []report.CampaignRow
	ok := true
	for _, e := range repro.Experiments() {
		start := time.Now()
		rep := repro.RunGuarded(e.ID, o, guardedRetries)
		wall := time.Since(start).Round(time.Millisecond)
		fmt.Fprintf(os.Stderr, "cplab: %s finished in %v\n", e.ID, wall)
		row := report.CampaignRow{ID: rep.ID, Attempts: rep.Attempts, Status: "ok"}
		switch {
		case rep.Result == nil:
			row.Status = "failed"
			row.Cause = firstLine(rep.Err.Error())
			ok = false
		case rep.Degraded:
			row.Status = "degraded"
			ok = false
		}
		rows = append(rows, row)
		if rep.Result == nil {
			fmt.Printf("===== %s — %s =====\n", e.ID, e.Title)
			fmt.Printf("  FAILED after %d attempts: %v\n\n", rep.Attempts, rep.Err)
			continue
		}
		render(e, rep.Result, asJSON)
	}
	fmt.Fprintln(os.Stderr, "===== summary =====")
	fmt.Fprint(os.Stderr, report.CampaignSummary(rows))
	return ok
}

func runOne(id string, o repro.Options, asJSON bool) error {
	e, ok := repro.Lookup(id)
	if !ok {
		if s := suggest(id); s != "" {
			return fmt.Errorf("unknown experiment %q (did you mean %q? try `cplab list`)", id, s)
		}
		return fmt.Errorf("unknown experiment %q (try `cplab list`)", id)
	}
	start := time.Now()
	rep := repro.RunGuarded(id, o, guardedRetries)
	wall := time.Since(start).Round(time.Millisecond)
	fmt.Fprintf(os.Stderr, "cplab: %s finished in %v\n", e.ID, wall)
	if rep.Result == nil {
		return fmt.Errorf("%s failed after %d attempts: %w", e.ID, rep.Attempts, rep.Err)
	}
	if rep.Attempts > 1 {
		fmt.Fprintf(os.Stderr, "cplab: %s degraded — needed %d attempts\n", e.ID, rep.Attempts)
	}
	render(e, rep.Result, asJSON)
	return nil
}

// campaignCmd runs (or resumes) a checkpointed campaign. With resumeOnly the
// manifest must already exist; otherwise an existing manifest is resumed
// unless -force discards it.
func campaignCmd(args []string, resumeOnly bool) int {
	name := "campaign"
	if resumeOnly {
		name = "resume"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cf := addCommon(fs)
	manifest := fs.String("manifest", "campaign.json", "checkpoint manifest path")
	idsCSV := fs.String("ids", "", "comma-separated experiment IDs (default: all, in paper order)")
	retries := fs.Int("retries", 2, "guarded bumped-seed retries per experiment")
	expWall := fs.Duration("expwall", 0, "wall-clock budget per experiment (0 = unbounded)")
	wall := fs.Duration("wall", 0, "wall-clock budget for this session; halts resumable (0 = unbounded)")
	haltAfter := fs.Int("haltafter", 0, "halt (resumable) after N experiments this session (0 = off)")
	parallel := fs.Int("parallel", 1, "campaign workers (manifest is byte-identical at any width)")
	nopool := fs.Bool("nopool", false, "boot every machine fresh instead of forking pooled templates (manifest is byte-identical either way)")
	force := fs.Bool("force", false, "discard an existing manifest and start over")
	diskchaos := fs.Float64("diskchaos", 0, "inject ENOSPC/EIO into manifest writes with this probability (testing)")
	diskchaosseed := fs.Uint64("diskchaosseed", 1, "seed for the -diskchaos fault schedule")
	fs.Parse(args)
	o, err := cf.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
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
	stop, err := cf.startSpans("cplab")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defer stop()

	var ids []string
	if *idsCSV != "" {
		for _, id := range strings.Split(*idsCSV, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	o.NoMachinePool = *nopool
	entries := repro.CampaignEntries(ids, o, *retries)
	// The note pins everything but the seed that shapes results, so a
	// resume under different flags is refused instead of silently merging
	// incomparable records. -defense is appended only when set, keeping
	// pre-defense manifests resumable byte-identically.
	note := fmt.Sprintf("paper=%t faults=%g simbudget=%s retries=%d", *cf.paper, *cf.faults, o.SimBudget, *retries)
	if o.Defense != "" {
		note += " defense=" + o.Defense
	}
	cfg := campaign.Config{
		Path:      *manifest,
		Seed:      *cf.seed,
		Note:      note,
		ExpWall:   *expWall,
		HaltAfter: *haltAfter,
		Log:       os.Stderr,
	}
	if *wall > 0 {
		cfg.Deadline = time.Now().Add(*wall)
	}
	if *diskchaos > 0 {
		inj, ierr := fsfault.New(fsfault.Config{Seed: *diskchaosseed, ErrRate: *diskchaos})
		if ierr != nil {
			fmt.Fprintln(os.Stderr, "cplab:", ierr)
			return exitUsage
		}
		cfg.FS = inj
		fmt.Fprintf(os.Stderr, "cplab: disk chaos enabled (rate %g, seed %d)\n", *diskchaos, *diskchaosseed)
	}

	// A store whose manifest was destroyed, or never compacted, but whose
	// journal survives is resumable — recovery rebuilds it.
	exists := campaign.Exists(durable.OS(), *manifest)
	var c *campaign.Campaign
	switch {
	case resumeOnly:
		if !exists {
			fmt.Fprintf(os.Stderr, "cplab: nothing to resume — no manifest at %s\n", *manifest)
			return exitDegraded
		}
		c, err = campaign.Resume(cfg, entries)
	case exists && !*force:
		fmt.Fprintf(os.Stderr, "cplab: manifest %s exists — resuming (use -force to start over)\n", *manifest)
		c, err = campaign.Resume(cfg, entries)
	default:
		c, err = campaign.New(cfg, entries)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}

	// Parallelism is a session property, not a plan property: it is absent
	// from the note, and any width yields the same manifest bytes.
	man, runErr := c.RunParallel(context.Background(), *parallel)
	fmt.Fprintln(os.Stderr, "===== campaign summary =====")
	fmt.Fprint(os.Stderr, report.CampaignSummary(man.Rows()))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "cplab:", runErr)
		if errors.Is(runErr, campaign.ErrHalted) {
			return exitHalted
		}
		return exitDegraded
	}

	// The plan is complete: assemble stdout from the manifest in plan order,
	// so a resumed campaign prints byte-for-byte what an uninterrupted one
	// would have.
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

// printManifestResults renders every checkpointed result in plan order, in
// the same layout `cplab run` uses.
func printManifestResults(man *campaign.Manifest) {
	for _, id := range man.IDs {
		rec := man.Entries[id]
		title := id
		if e, ok := repro.Lookup(id); ok {
			title = e.Title
		}
		fmt.Printf("===== %s — %s =====\n", id, title)
		if rec == nil {
			fmt.Printf("  PENDING (never ran)\n\n")
			continue
		}
		switch rec.Status {
		case campaign.StatusFailed:
			fmt.Printf("  FAILED after %d attempts: %s\n\n", rec.Attempts, rec.Failure.Msg)
		case campaign.StatusSkipped:
			fmt.Printf("  SKIPPED: %s\n\n", rec.Failure.Msg)
		default:
			fmt.Println(rec.Rendered)
			names := make([]string, 0, len(rec.Metrics))
			for name := range rec.Metrics {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Printf("  metric %-28s %.4f\n", name, rec.Metrics[name])
			}
			fmt.Println()
		}
	}
}

// traceRecordCmd records one experiment's kernel event stream.
func traceRecordCmd(args []string) int {
	if len(args) < 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintln(os.Stderr, "cplab trace record <id> [-o path] [-maxevents N] [flags]")
		return exitUsage
	}
	id := args[0]
	fs := flag.NewFlagSet("trace record", flag.ExitOnError)
	cf := addCommon(fs)
	out := fs.String("o", "", "output path (default <id>.cptrace)")
	maxEvents := fs.Int("maxevents", 0, "per-machine event cap, marks the trace truncated (0 = unbounded)")
	fs.Parse(args[1:])
	o, err := cf.options()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	stop, err := cf.startSpans("cplab")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defer stop()
	_, tr, err := repro.RunTraced(id, o, *maxEvents)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	path := *out
	if path == "" {
		path = id + ".cptrace"
	}
	if err := tr.WriteFile(path); err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: wrote %s (%d events, %d result lines)\n", path, len(tr.Events), len(tr.Result))
	return exitOK
}

// traceDiffCmd prints the first divergence between two recorded traces.
func traceDiffCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "cplab trace diff <got.cptrace> <want.cptrace>")
		return exitUsage
	}
	got, err := trace.ReadFile(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	want, err := trace.ReadFile(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	if d := trace.Diff(got, want); d != nil {
		fmt.Print(d.String())
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: traces match (%d events, %d result lines)\n", len(want.Events), len(want.Result))
	return exitOK
}

// render writes one experiment's result to stdout.
func render(e repro.Experiment, res repro.Result, asJSON bool) {
	if asJSON {
		out := map[string]any{
			"id":      e.ID,
			"title":   e.Title,
			"metrics": e.Metrics(res),
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "cplab:", err)
		}
		return
	}
	fmt.Printf("===== %s — %s =====\n", e.ID, e.Title)
	fmt.Println(res)
	metrics := e.Metrics(res)
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  metric %-28s %.4f\n", name, metrics[name])
	}
	fmt.Println()
}

// firstLine trims a message to its headline.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// suggest returns the runnable ID — registered experiment or matrix cell —
// closest to the given one, if any is close enough to be a plausible typo.
func suggest(id string) string {
	corpus := append(repro.IDs(), repro.MatrixIDs()...)
	return suggestFrom(id, corpus)
}

// suggestFrom returns the candidate closest to word, if any is close enough
// to be a plausible typo.
func suggestFrom(word string, candidates []string) string {
	best, bestD := "", 4
	for _, known := range candidates {
		if d := editDistance(word, known); d < bestD {
			best, bestD = known, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			curr[j] = min(prev[j]+1, min(curr[j-1]+1, prev[j-1]+cost))
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func usage() {
	fmt.Fprintln(os.Stderr, `cplab — Controlled Preemption reproduction lab
usage:
  cplab list
  cplab run <id> [-paper] [-seed N] [-json] [-faults R] [-simbudget D]
  cplab all [flags]
  cplab campaign [flags] [-manifest P] [-ids CSV] [-retries N] [-expwall D] [-wall D] [-haltafter N] [-parallel N] [-nopool] [-force]
  cplab resume [same flags — continues the manifest]
  cplab matrix [-attacks CSV] [-defenses CSV] [-manifest P] [-retries N] [-wall D] [-haltafter N] [-parallel N] [-force] [flags]
  cplab cluster -workers URLS [flags] [-shard N] [-parallel N] [-hang D] [-steal D] [-chaosnet R] [-metricsaddr A] [-force]
  cplab fsck [-repair] <manifest|dir>...
  cplab trace record <id> [-o path] [-maxevents N] [flags]
  cplab trace diff <got.cptrace> <want.cptrace>
  cplab timeline [-o trace.json] <spans.jsonl> [more.jsonl...]
  cplab tail -addr HOST:PORT [-interval D] [-n N]
  cplab metrics -exp <id> [-json] [-o path] [flags]
  cplab profile -exp <id> [-json] [-o path] [flags]
exit codes: 0 clean, 1 degraded/failed/divergence, 2 usage, 3 halted-but-resumable`)
}
