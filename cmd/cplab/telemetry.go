package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/metrics"
)

// metricsCmd runs one experiment with a fresh telemetry registry installed
// and exports the populated registry as Prometheus text (default) or JSON.
func metricsCmd(args []string) int {
	reg := metrics.New()
	defer metrics.SetAmbient(metrics.SetAmbient(reg))
	return sinkCmd("metrics", args, func(w io.Writer, asJSON bool) error {
		if asJSON {
			return reg.WriteJSON(w)
		}
		return reg.WritePrometheus(w)
	})
}

// profileCmd runs one experiment with a fresh sim-time profiler installed
// and reports wall-clock cost by kernel event kind. Per-machine attribution
// is the machine-tier spans that -spans records.
func profileCmd(args []string) int {
	prof := metrics.NewProfiler()
	defer metrics.SetAmbientProfiler(metrics.SetAmbientProfiler(prof))
	return sinkCmd("profile", args, func(w io.Writer, asJSON bool) error {
		if asJSON {
			return prof.Report().WriteJSON(w)
		}
		return prof.Report().WriteText(w)
	})
}

// sinkCmd is the body metricsCmd and profileCmd share: it runs -exp through
// repro.Run under the sink its caller installed, then renders the sink with
// write to -o or stdout.
func sinkCmd(name string, args []string, write func(w io.Writer, asJSON bool) error) int {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	cf := addCommon(fs)
	exp := fs.String("exp", "", "experiment ID to run (required)")
	out := fs.String("o", "", "write the report to this file instead of stdout")
	fs.Parse(args)
	if *exp == "" {
		fmt.Fprintf(os.Stderr, "cplab %s -exp <id> [-json] [-o path] [flags]\n", name)
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
	if _, err := repro.Run(*exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "cplab:", err)
		return exitDegraded
	}
	fmt.Fprintf(os.Stderr, "cplab: %s finished in %v\n", *exp, time.Since(start).Round(time.Millisecond))
	var buf bytes.Buffer
	if err := write(&buf, *cf.asJSON); err != nil {
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
