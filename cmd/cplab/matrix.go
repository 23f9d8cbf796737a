package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/report"
)

// matrixCmd runs the attack-vs-defense efficacy grid as a checkpointed
// campaign: one entry per cell, so the sweep shards across workers, halts
// resumably, and survives crashes through the same durable manifest path the
// experiment campaigns use. On completion it renders one grid per headline
// metric — success rate, amplification, benign overhead — assembled purely
// from the manifest, so stdout is byte-identical at any -parallel width and
// across halt/resume.
func matrixCmd(args []string) int {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	cf := addCommon(fs)
	manifest := fs.String("manifest", "matrix.json", "checkpoint manifest path")
	attacksCSV := fs.String("attacks", "", "comma-separated attack subset (default: all, in canonical order)")
	defensesCSV := fs.String("defenses", "", "comma-separated defense-preset subset (default: all, \"off\" first)")
	retries := fs.Int("retries", 2, "guarded bumped-seed retries per cell")
	expWall := fs.Duration("expwall", 0, "wall-clock budget per cell (0 = unbounded)")
	wall := fs.Duration("wall", 0, "wall-clock budget for this session; halts resumable (0 = unbounded)")
	haltAfter := fs.Int("haltafter", 0, "halt (resumable) after N cells this session (0 = off)")
	parallel := fs.Int("parallel", 1, "grid workers (manifest and report are byte-identical at any width)")
	force := fs.Bool("force", false, "discard an existing manifest and start over")
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
	attacks, err := matrixAxis(*attacksCSV, repro.MatrixAttacks(), "-attacks")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitUsage
	}
	defenses, err := matrixAxis(*defensesCSV, repro.MatrixDefenses(), "-defenses")
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

	var ids []string
	for _, a := range attacks {
		for _, d := range defenses {
			ids = append(ids, repro.MatrixID(a, d))
		}
	}
	entries := repro.CampaignEntries(ids, o, *retries)
	cfg := campaign.Config{
		Path: *manifest,
		Seed: *cf.seed,
		// The note pins the grid shape and every result-shaping flag, so a
		// resume under a different grid or options is refused.
		Note: fmt.Sprintf("matrix attacks=%s defenses=%s paper=%t faults=%g simbudget=%s retries=%d",
			strings.Join(attacks, ","), strings.Join(defenses, ","),
			*cf.paper, *cf.faults, o.SimBudget, *retries),
		ExpWall:   *expWall,
		HaltAfter: *haltAfter,
		Log:       os.Stderr,
	}
	if *wall > 0 {
		cfg.Deadline = time.Now().Add(*wall)
	}

	exists := campaign.Exists(durable.OS(), *manifest)
	var c *campaign.Campaign
	if exists && !*force {
		fmt.Fprintf(os.Stderr, "cplab: manifest %s exists — resuming (use -force to start over)\n", *manifest)
		c, err = campaign.Resume(cfg, entries)
	} else {
		c, err = campaign.New(cfg, entries)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}

	man, runErr := c.RunParallel(context.Background(), *parallel)
	fmt.Fprintln(os.Stderr, "===== matrix summary =====")
	fmt.Fprint(os.Stderr, report.CampaignSummary(man.Rows()))
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "cplab:", runErr)
		if errors.Is(runErr, campaign.ErrHalted) {
			return exitHalted
		}
		return exitDegraded
	}

	if *cf.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(man); err != nil {
			fmt.Fprintln(os.Stderr, "cplab:", err)
			return exitDegraded
		}
	} else {
		printMatrixReport(man, attacks, defenses)
	}
	if !man.Clean() {
		return exitDegraded
	}
	return exitOK
}

// matrixAxis parses a CSV axis subset against the known values, defaulting
// to all of them (in canonical order) when empty.
func matrixAxis(csv string, known []string, flagName string) ([]string, error) {
	if csv == "" {
		return known, nil
	}
	var out []string
	for _, v := range strings.Split(csv, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			continue
		}
		found := false
		for _, k := range known {
			if v == k {
				found = true
				break
			}
		}
		if !found {
			if s := suggestFrom(v, known); s != "" {
				return nil, fmt.Errorf("%s: unknown value %q (did you mean %q? known: %s)",
					flagName, v, s, strings.Join(known, ", "))
			}
			return nil, fmt.Errorf("%s: unknown value %q (known: %s)", flagName, v, strings.Join(known, ", "))
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return known, nil
	}
	return out, nil
}

// printMatrixReport renders the efficacy grids from the manifest, in plan
// order: attacks as rows, defenses as columns, one grid per headline metric.
// Cells that failed or never ran render as "-".
func printMatrixReport(man *campaign.Manifest, attacks, defenses []string) {
	metricCell := func(metric, format string, percent bool) func(r, c int) string {
		return func(r, c int) string {
			rec := man.Entries[repro.MatrixID(attacks[r], defenses[c])]
			if rec == nil || rec.Status == campaign.StatusFailed || rec.Status == campaign.StatusSkipped {
				return ""
			}
			v, ok := rec.Metrics[metric]
			if !ok {
				return ""
			}
			if percent {
				v *= 100
			}
			return fmt.Sprintf(format, v)
		}
	}
	fmt.Println("===== defense matrix — attack success rate =====")
	fmt.Print(report.Matrix(`attack\defense`, attacks, defenses, metricCell("success_rate", "%.1f%%", true)))
	fmt.Println()
	fmt.Println("===== defense matrix — residual amplification =====")
	fmt.Print(report.Matrix(`attack\defense`, attacks, defenses, metricCell("amplification", "%.2f", false)))
	fmt.Println()
	fmt.Println("===== defense matrix — benign overhead =====")
	fmt.Print(report.Matrix(`attack\defense`, attacks, defenses, metricCell("overhead", "%.1f%%", true)))
}
