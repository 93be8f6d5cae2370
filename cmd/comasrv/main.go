// Command comasrv serves the simulation and experiment engine as a JSON
// HTTP API with a persistent content-addressed result store. See API.md
// for the endpoint reference and OPERATIONS guidance.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/config/flags"
	"repro/internal/fleet"
	"repro/internal/server"
)

// newLogger builds the daemon's structured logger from the -log flag.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log format %q (text or json)", format)
	}
}

func main() {
	flags.SetUsage("comasrv", "serve the simulation engine as a JSON HTTP API")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	jobs := flags.Jobs()
	storeDir := flag.String("store", "comasrv-store", "result store directory (empty = memory-only)")
	cacheBytes := flag.Int64("cache-bytes", 0, "in-memory result cache budget in bytes (0 = 64 MiB)")
	timeout := flag.Duration("timeout", 0, "per-request simulation timeout (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown grace period")
	logFormat := flag.String("log", "text", "log handler: text or json (structured, one line per request)")
	maxQueue := flag.Int("max-queue", 0, "admission control: shed computations with 429 when this many are already queued (0 = unbounded)")
	jobTTL := flag.Duration("job-ttl", 0, "evict finished async jobs after this long (0 = 15m)")
	maxTraceBytes := flag.Int64("max-trace-bytes", 0, "reject trace uploads larger than this (0 = 8 MiB)")
	maxTraces := flag.Int("max-traces", 0, "bound the uploaded-trace index (0 = 256)")
	scrapeInterval := flag.Duration("scrape-interval", 0, "self-scrape period feeding /v1/metrics/history (0 = 10s, negative disables)")
	slowThreshold := flag.Duration("slow-threshold", 0, "log requests slower than this at Warn level (0 disables)")
	slowKeep := flag.Int("slow-keep", 0, "slow-request exemplars retained for /v1/debug/slow (0 = 32)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this separate listener (empty disables; never exposed on -addr)")
	shardID := flag.String("shard-id", "", "fleet mode: this shard's member ID (requires -peers)")
	peers := flag.String("peers", "", `fleet mode: full membership as "id=url,id=url,..." including this shard`)
	replicas := flag.Int("replicas", 0, "fleet mode: total copies for hot entries, owner included (0 = 2, 1 disables)")
	replicateAfter := flag.Int("replicate-after", 0, "fleet mode: hit count that promotes an entry to its replica set (0 = 3, negative disables)")
	peerTimeout := flag.Duration("peer-timeout", 0, "fleet mode: per peer-fill/replication request timeout (0 = 2s)")
	flag.Parse()

	logger, err := newLogger(*logFormat)
	flags.Check("comasrv", err)

	cfg := server.Config{
		Jobs:           *jobs,
		StoreDir:       *storeDir,
		StoreMemBytes:  *cacheBytes,
		Timeout:        *timeout,
		Logger:         logger,
		MaxQueue:       *maxQueue,
		JobTTL:         *jobTTL,
		MaxTraceBytes:  *maxTraceBytes,
		MaxTraces:      *maxTraces,
		ScrapeInterval: *scrapeInterval,
		SlowThreshold:  *slowThreshold,
		SlowKeep:       *slowKeep,
	}
	if (*shardID == "") != (*peers == "") {
		flags.Check("comasrv", fmt.Errorf("-shard-id and -peers must be set together"))
	}
	if *shardID != "" {
		members, err := fleet.ParseMembers(*peers)
		flags.Check("comasrv", err)
		cfg.Fleet = &server.FleetConfig{
			ShardID:        *shardID,
			Members:        members,
			Replicas:       *replicas,
			ReplicateAfter: *replicateAfter,
			PeerTimeout:    *peerTimeout,
		}
	}
	srv, err := server.New(cfg)
	flags.Check("comasrv", err)
	defer srv.Close()

	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// The pprof surface lives on its own listener so profiling access is
	// controlled by where -debug-addr binds, never by the public API mux
	// (the default net/http/pprof registration on DefaultServeMux is
	// irrelevant: neither listener serves DefaultServeMux).
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: debugMux}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener failed", "err", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if *shardID != "" {
			logger.Info("listening", "addr", *addr, "jobs", *jobs, "store", *storeDir, "shard", *shardID)
		} else {
			logger.Info("listening", "addr", *addr, "jobs", *jobs, "store", *storeDir)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		flags.Check("comasrv", err)
	case <-ctx.Done():
		logger.Info("shutting down", "drain", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("drain incomplete", "err", err)
		}
		if debugSrv != nil {
			debugSrv.Shutdown(shutdownCtx)
		}
		srv.Close() // cancel any still-running jobs
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			flags.Check("comasrv", err)
		}
	}
}
