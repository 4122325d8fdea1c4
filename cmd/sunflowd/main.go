// Command sunflowd is the online Sunflow scheduler daemon: it accepts Coflow
// registrations and fabric events over HTTP/JSON, maintains one live port
// reservation table, and replans the circuit schedule incrementally as events
// arrive (docs/DAEMON.md).
//
// Usage:
//
//	sunflowd -data dir [-http addr] [-ports n] [-gbps g] [-delta-ms d]
//	         [-queue n] [-inflight n] [-request-timeout dur]
//	         [-checkpoint-every n] [-checkpoint-interval dur]
//	         [-watchdog dur] [-seed s] [-full-replan]
//
// The data directory holds the write-ahead log and snapshots; restarting
// against the same directory recovers the exact pre-crash schedule state
// (bit-identical digest). The fabric parameters (-ports, -gbps, -delta-ms,
// -order, -seed) are fixed for the directory's lifetime — the daemon refuses
// to open a directory recorded under different parameters. -full-replan
// disables incremental schedule reuse; schedules and digests must not change,
// so it may differ between runs on one directory.
//
// The HTTP server is the obshttp exposition server, so /metrics, /metrics.json,
// /healthz, /readyz, expvar and pprof ride alongside the /v1 API. SIGTERM and
// SIGINT drain gracefully: readiness fails, admitted events finish applying, a
// final checkpoint is written, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sunflow/internal/bench"
	"sunflow/internal/core"
	"sunflow/internal/daemon"
	"sunflow/internal/obs"
	"sunflow/internal/obs/obshttp"
)

func main() {
	dataDir := flag.String("data", "", "data directory for the WAL and snapshots (required)")
	httpAddr := flag.String("http", "127.0.0.1:9090", "serve the /v1 API and observability endpoints on this address")
	ports := flag.Int("ports", 150, "fabric port count N (fixed per data directory)")
	gbps := flag.Float64("gbps", 100, "per-port link bandwidth in Gb/s")
	deltaMs := flag.Float64("delta-ms", 10, "circuit reconfiguration delay δ in milliseconds")
	order := flag.Int("order", int(core.OrderedPort), "intra-Coflow reservation order (0=OrderedPort 1=Random 2=SortedDemand)")
	seed := flag.Int64("seed", 1, "seed for the Random reservation order")
	queue := flag.Int("queue", 0, "intake queue size (0 = default 256)")
	inflight := flag.Int("inflight", 0, "load-shedding in-flight limit (0 = default 2×queue)")
	reqTimeout := flag.Duration("request-timeout", 0, "max queue wait per request (0 = default 5s)")
	ckptEvery := flag.Int("checkpoint-every", 0, "snapshot after this many accepted events (0 = default 1024, negative disables)")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "snapshot on this wall-clock period (0 = default 30s, negative disables)")
	watchdog := flag.Duration("watchdog", 0, "fail readiness when one apply exceeds this (0 = default 30s, negative disables)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max graceful-drain wait on SIGTERM/SIGINT")
	fullReplan := flag.Bool("full-replan", false, "disable incremental schedule reuse: rerun the intra scheduler for every live Coflow on every replan (the reference oracle; digests must not change)")
	flag.Parse()

	if *dataDir == "" {
		fmt.Fprintln(os.Stderr, "sunflowd: -data is required")
		flag.Usage()
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	cfg := daemon.Config{
		Engine: daemon.EngineConfig{
			Ports:      *ports,
			LinkBps:    *gbps * bench.Gbps,
			Delta:      *deltaMs / 1e3,
			Order:      core.Order(*order),
			Seed:       *seed,
			FullReplan: *fullReplan,
		},
		DataDir:            *dataDir,
		QueueSize:          *queue,
		MaxInflight:        *inflight,
		RequestTimeout:     *reqTimeout,
		CheckpointEvery:    *ckptEvery,
		CheckpointInterval: *ckptInterval,
		WatchdogTimeout:    *watchdog,
		Obs:                obs.NewWith(reg, nil),
		Metrics:            obs.NewDaemonMetrics(reg),
	}

	// Install the handler before anything is reachable from outside: once the
	// HTTP server (or even the recovery banner) is visible, an orchestrator
	// may legitimately SIGTERM us, and an uninstalled handler would mean the
	// default disposition — death without a drain.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	d, err := daemon.Start(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sunflowd: %v\n", err)
		os.Exit(1)
	}
	if n := d.Recovered(); n > 0 {
		fmt.Printf("[sunflowd recovered %d WAL events; digest %s]\n", n, d.Engine().Digest())
	}

	srv, err := obshttp.Serve(*httpAddr, reg, obshttp.Options{
		Ready:  d.Ready,
		Routes: d.Routes(),
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sunflowd: %v\n", err)
		os.Exit(1)
	}
	// The smoke harness parses this line to learn the bound port; keep the
	// format stable.
	fmt.Printf("[sunflowd listening on %s]\n", srv.Addr())

	sig := <-sigCh
	fmt.Printf("[sunflowd draining on %s]\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sunflowd: %v\n", err)
		code = 1
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sunflowd: http: %v\n", err)
		code = 1
	}
	fmt.Println("[sunflowd stopped]")
	os.Exit(code)
}
