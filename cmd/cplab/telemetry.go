package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/durable"
)

// metricsCmd runs one experiment with a fresh telemetry registry installed
// and exports the populated registry as Prometheus text (default) or JSON.
func metricsCmd(args []string) int {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	cf := addCommon(fs)
	exp := fs.String("exp", "", "experiment ID to instrument (required)")
	out := fs.String("o", "", "write the export to this file instead of stdout")
	fs.Parse(args)
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "cplab metrics -exp <id> [-json] [-o path] [flags]")
		return exitUsage
	}
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
	start := time.Now()
	_, reg, err := repro.RunInstrumented(*exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: %s finished in %v\n", *exp, time.Since(start).Round(time.Millisecond))
	var buf bytes.Buffer
	if *cf.asJSON {
		err = reg.WriteJSON(&buf)
	} else {
		err = reg.WritePrometheus(&buf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	return emit(*out, buf.Bytes())
}

// profileCmd runs one experiment with a fresh sim-time profiler installed
// and reports wall-clock cost by kernel event kind and experiment phase.
func profileCmd(args []string) int {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	cf := addCommon(fs)
	exp := fs.String("exp", "", "experiment ID to profile (required)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Parse(args)
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "cplab profile -exp <id> [-json] [-o path] [flags]")
		return exitUsage
	}
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
	start := time.Now()
	_, prof, err := repro.RunProfiled(*exp, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: %s finished in %v\n", *exp, time.Since(start).Round(time.Millisecond))
	rep := prof.Report()
	var buf bytes.Buffer
	if *cf.asJSON {
		err = rep.WriteJSON(&buf)
	} else {
		err = rep.WriteText(&buf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	return emit(*out, buf.Bytes())
}

// emit writes data to path, or to stdout when path is "" or "-".
func emit(path string, data []byte) int {
	if path == "" || path == "-" {
		os.Stdout.Write(data)
		return exitOK
	}
	if err := durable.WriteFileAtomic(durable.OS(), path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: wrote %s (%d bytes)\n", path, len(data))
	return exitOK
}
