package main

// fsck.go is the state-dir doctor: `cplab fsck [-repair] <path|dir>...`
// validates every campaign store it finds (manifest + .wal journal),
// lists orphaned *.tmp litter and quarantined wreckage, and with -repair
// rewrites each damaged store from its committed state through the same
// recovery path `cplab resume` uses — so an
// operator can check (and fix) a state directory without running
// anything. Exit 0 when everything is clean (or was repaired), 1 when
// problems remain, 2 on usage errors.

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/durable"
)

// fsckCmd scans (and optionally repairs) campaign state on disk.
func fsckCmd(args []string) int {
	flags := flag.NewFlagSet("fsck", flag.ExitOnError)
	repair := flags.Bool("repair", false, "rewrite damaged stores from their committed state and sweep orphaned *.tmp files")
	flags.Parse(args)
	if flags.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "cplab fsck [-repair] <manifest|dir>...")
		return exitUsage
	}

	stores, tmps, quarantined, scanErrs := discoverState(flags.Args())
	problems := 0
	for _, e := range scanErrs {
		fmt.Fprintln(os.Stderr, "cplab: fsck:", e)
		problems++
	}

	for _, path := range stores {
		h := campaign.Inspect(durable.OS(), path)
		issues := storeIssues(h)
		if len(issues) == 0 {
			fmt.Printf("ok       %s (%d records, complete=%t)\n", path, h.Records, h.Complete)
			continue
		}
		if !*repair {
			problems++
			fmt.Printf("DAMAGED  %s: %s\n", path, strings.Join(issues, "; "))
			continue
		}
		if _, hh, err := campaign.Repair(durable.OS(), path); err != nil {
			problems++
			fmt.Printf("FAILED   %s: repair: %v\n", path, err)
			continue
		} else if q := quarantines(hh); len(q) > 0 {
			fmt.Fprintf(os.Stderr, "cplab: fsck: %s: quarantined %s\n", path, strings.Join(q, ", "))
		}
		// Re-inspect: repair must leave nothing to complain about.
		if after := storeIssues(campaign.Inspect(durable.OS(), path)); len(after) > 0 {
			problems++
			fmt.Printf("FAILED   %s: still damaged after repair: %s\n", path, strings.Join(after, "; "))
			continue
		}
		fmt.Printf("repaired %s (was: %s)\n", path, strings.Join(issues, "; "))
	}

	for _, tmp := range tmps {
		if !*repair {
			problems++
			fmt.Printf("ORPHAN   %s (interrupted atomic write; -repair removes)\n", tmp)
			continue
		}
		// Already gone is fine: repairing a store sweeps its own tmps.
		if err := os.Remove(tmp); err != nil && !errors.Is(err, fs.ErrNotExist) {
			problems++
			fmt.Printf("FAILED   %s: %v\n", tmp, err)
			continue
		}
		fmt.Printf("swept    %s\n", tmp)
	}

	// Quarantined wreckage is informational: the bytes are preserved for
	// post-mortems and deleting them is the operator's call, not fsck's.
	for _, q := range quarantined {
		fmt.Printf("note     %s (quarantined wreckage, delete when done)\n", q)
	}

	if problems > 0 {
		fmt.Fprintf(os.Stderr, "cplab: fsck: %d problem(s)\n", problems)
		return exitDegraded
	}
	return exitOK
}

// discoverState expands the operator's targets into campaign store paths,
// orphaned *.tmp files and quarantined wreckage. A directory is walked; a
// file names its store directly (a .wal path means its parent manifest).
func discoverState(targets []string) (stores, tmps, quarantined []string, errs []error) {
	seen := map[string]bool{}
	addStore := func(path string) {
		if !seen[path] {
			seen[path] = true
			stores = append(stores, path)
		}
	}
	for _, target := range targets {
		info, err := os.Stat(target)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if !info.IsDir() {
			addStore(strings.TrimSuffix(target, campaign.WALSuffix))
			continue
		}
		walkErr := filepath.WalkDir(target, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			name := d.Name()
			switch {
			case strings.HasSuffix(name, durable.TmpSuffix):
				tmps = append(tmps, path)
			case strings.Contains(name, durable.QuarantineSuffix):
				quarantined = append(quarantined, path)
			case strings.HasSuffix(name, campaign.WALSuffix):
				// The journal anchors a store even when the manifest itself
				// was destroyed — that is the exact case recovery exists for.
				addStore(strings.TrimSuffix(path, campaign.WALSuffix))
			case strings.HasSuffix(name, ".json") && name != "state.json":
				// Only treat a bare .json as a store when it is (or claims to
				// be) a campaign manifest; labd job state and telemetry dumps
				// are not campaign stores.
				if looksLikeManifest(path) {
					addStore(path)
				}
			}
			return nil
		})
		if walkErr != nil {
			errs = append(errs, walkErr)
		}
	}
	sort.Strings(stores)
	sort.Strings(tmps)
	sort.Strings(quarantined)
	return stores, tmps, quarantined, errs
}

// looksLikeManifest reports whether the file is plausibly a campaign
// manifest: valid outright, or damaged-but-with-a-journal. A .json with
// neither a journal nor manifest shape is someone else's file.
func looksLikeManifest(path string) bool {
	if _, err := os.Stat(campaign.WALPath(path)); err == nil {
		return true
	}
	_, err := campaign.Load(path)
	var ce *durable.CorruptError
	switch {
	case err == nil:
		return true
	case errors.As(err, &ce):
		// Unreadable as a manifest and nothing to recover from — do not
		// claim it unless its wreckage mentions the manifest fields.
		data, rerr := os.ReadFile(path)
		return rerr == nil && strings.Contains(string(data), `"entries"`) && strings.Contains(string(data), `"ids"`)
	}
	return false
}

// storeIssues folds a Health into operator-readable problem strings;
// empty means the store is clean. The journal is the commit point and the
// manifest only its compaction at session end, so a missing manifest or a
// journal ahead of it is a campaign mid-run (or killed mid-run), not
// damage.
func storeIssues(h *campaign.Health) []string {
	var issues []string
	src := func(name string, s campaign.SourceHealth) {
		switch {
		case !s.Present:
		case !s.OK:
			issues = append(issues, fmt.Sprintf("%s corrupt (%s)", name, s.Err))
		case s.Torn:
			issues = append(issues, fmt.Sprintf("%s torn after %d records (%s)", name, s.Records, s.Err))
		case s.Err != "":
			issues = append(issues, fmt.Sprintf("%s damaged after %d records (%s)", name, s.Records, s.Err))
		}
	}
	src("manifest", h.Manifest)
	src("journal", h.WAL)
	if !h.Manifest.OK && !h.WAL.OK {
		issues = append(issues, "no usable source — unrecoverable without backups")
	}
	return issues
}

// quarantines lists where LoadRecovered moved wreckage during a repair.
func quarantines(h *campaign.Health) []string {
	var q []string
	for _, s := range []campaign.SourceHealth{h.Manifest, h.WAL} {
		if s.Quarantined != "" {
			q = append(q, s.Quarantined)
		}
	}
	return q
}
