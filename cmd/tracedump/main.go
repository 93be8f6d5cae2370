// Command tracedump generates workload traces and prints their summary
// statistics: footprint, reference counts, sharing degree and generation
// time. Useful for inspecting and tuning the workload kernels, and as
// the client path for comasrv trace ingestion: -upload posts each
// generated trace in the COMATRC2 wire format (TRACES.md) and prints the
// digest to simulate it by reference. -save and -load use the same
// format on disk.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps"
	"repro/internal/config/flags"
	"repro/internal/server"
	"repro/internal/trace"
)

func main() {
	flags.SetUsage("tracedump", "generate workload traces and print their summary statistics")
	only := flag.String("app", "", "generate only this application (default: all, extras included)")
	procs := flags.Procs(16)
	saveDir := flag.String("save", "", "serialize generated traces (COMATRC2) into this directory")
	load := flag.String("load", "", "summarize a serialized COMATRC2 trace file instead of generating")
	upload := flag.String("upload", "", "POST each generated trace to this comasrv base URL (e.g. http://127.0.0.1:8080) and print its digest")
	flag.Parse()

	if *load != "" {
		tr, err := loadTrace(*load)
		if err != nil {
			fatal(err)
		}
		summarize(tr, 0)
		return
	}

	var client *server.Client
	if *upload != "" {
		client = server.NewClient(*upload)
	}

	fmt.Printf("%-11s %8s %9s %9s %9s %9s %9s %9s %8s\n",
		"app", "ws(KB)", "reads", "writes", "acquires", "barriers", "lines", "shared", "gen(s)")
	for _, app := range apps.All() {
		if *only != "" && app.Name != *only {
			continue
		}
		start := time.Now()
		tr := app.Generate(*procs)
		el := time.Since(start)
		if err := tr.Validate(); err != nil {
			fatal(fmt.Errorf("%s: %w", app.Name, err))
		}
		summarize(tr, el.Seconds())
		if *saveDir != "" {
			if err := saveTrace(tr, *saveDir); err != nil {
				fatal(err)
			}
		}
		if client != nil {
			meta, err := client.UploadTrace(context.Background(), tr.EncodeCompact())
			if err != nil {
				fatal(fmt.Errorf("%s: upload: %w", app.Name, err))
			}
			fmt.Printf("  uploaded %s -> trace_ref %s (%d bytes)\n", app.Name, meta.Digest, meta.SizeBytes)
		}
	}
}

// loadTrace reads a COMATRC2 trace file.
func loadTrace(path string) (*trace.Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return trace.DecodeCompact(raw)
}

func summarize(tr *trace.Trace, genSeconds float64) {
	s := tr.Summarize()
	fmt.Printf("%-11s %8d %9d %9d %9d %9d %9d %9d %8.2f\n",
		tr.Name, tr.WorkingSet/1024, s.Reads, s.Writes, s.Acquires, s.Barriers,
		s.DistinctLines, s.SharedLines, genSeconds)
}

func saveTrace(tr *trace.Trace, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tr.Name+".trace"), tr.EncodeCompact(), 0o644)
}

func fatal(err error) {
	flags.Check("tracedump", err)
}
