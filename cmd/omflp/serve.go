package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
)

// cmdServe is the streaming serving mode. Without listeners it hosts an
// engine, ingests arrivals from stdin or -trace (either a gentrace file
// trace or a JSON-lines op stream — autodetected), and emits the final
// per-tenant snapshots as JSON. With -listen-http and/or -listen-tcp it runs
// as a network daemon instead: arrivals come over the HTTP API and the
// framed TCP op protocol, state is checkpointed to -checkpoint-dir (and
// restored from it on startup), and SIGINT/SIGTERM triggers a graceful
// shutdown — drain mailboxes, final checkpoint, final snapshots. Snapshots
// go to -snapshot-out (default stdout) and are byte-identical for every
// -shards value under a fixed seed; metrics go to stderr, where they cannot
// pollute golden-file diffs.
//
// With -cluster-router the process hosts no engine at all: it fronts the
// worker daemons named by -nodes with the same HTTP and TCP surface,
// placing each tenant on the least-loaded worker, health-checking and
// re-admitting workers, migrating tenants live (POST /v1/migrate), and
// merging worker metrics into one cluster view.
// Engine flags (-algo, -seed, -shards, ...) are meaningless in router mode;
// the cluster's algorithm and seed come from the workers, which must agree.
func cmdServe(args []string) (retErr error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		tracePath    = fs.String("trace", "", "input file (default: stdin); gentrace JSON or a JSON-lines op stream")
		algo         = fs.String("algo", "pd", "serving algorithm per tenant: pd or rand")
		shards       = fs.Int("shards", 0, "serving goroutines (0 = GOMAXPROCS)")
		tenants      = fs.Int("tenants", 1, "tenants to fan a file trace across (round-robin); ignored for op streams")
		mailbox      = fs.Int("mailbox", 0, "per-shard queue capacity (0 = 256); full mailboxes block ingestion")
		seed         = fs.Int64("seed", 1, "engine seed (rand tenants derive per-tenant streams from it)")
		shardPolicy  = fs.String("shard-policy", "hash", "tenant→shard assignment: hash or leastload")
		noPrediction = fs.Bool("no-prediction", false, "ablation: disable large facilities")
		metricsEvery = fs.Duration("metrics-every", 0, "dump engine metrics to stderr at this interval (0 = off)")
		snapOut      = fs.String("snapshot-out", "", "file for the final snapshots (default: stdout)")
		snapCompact  = fs.Bool("snapshot-compact", false, "emit compact snapshots (facilities + cost only, no assignment history)")
		quiet        = fs.Bool("quiet", false, "suppress the final metrics summary on stderr")
		listenHTTP   = fs.String("listen-http", "", "daemon mode: HTTP API listen address (e.g. 127.0.0.1:8080)")
		listenTCP    = fs.String("listen-tcp", "", "daemon mode: framed-op TCP listen address")
		ckptDir      = fs.String("checkpoint-dir", "", "daemon mode: directory for periodic state checkpoints (restored on start)")
		ckptEvery    = fs.Duration("checkpoint-every", 15*time.Second, "daemon mode: checkpoint interval")
		sealEvery    = fs.Int("checkpoint-seal-every", 0, "re-base a tenant's checkpoint once its arrival tail exceeds N (0 = 4096 default, negative = never seal: full-replay restores)")
		routerMode   = fs.Bool("cluster-router", false, "run as a cluster router in front of -nodes instead of hosting an engine")
		nodes        = fs.String("nodes", "", "router mode: comma-separated worker HTTP addresses (host:port,...)")
		healthEvery  = fs.Duration("health-every", time.Second, "router mode: node health-probe interval")
		standbyOf    = fs.String("standby-of", "", "router mode: start passive, following the active router's framed-TCP address and promoting on its failure")
		replicate    = fs.Bool("replicate", false, "router mode: dual-write every tenant to a follower node so a dead owner fails over without data loss")
		downAfter    = fs.Int("down-after", 0, "router mode: consecutive probe failures before a node is declared down (0 = 1)")
		failoverAft  = fs.Int("failover-after", 0, "router mode: consecutive follow-stream losses before a standby promotes itself (0 = 3)")
		faultSpec    = fs.String("faults", "", "inject deterministic faults into cluster I/O, e.g. seed=7,dial-fail=1/40,conn-reset=1/80,stall=1/60:5ms,partial=1/100,probe-flap=1/50")
		traceSample  = fs.Int("trace-sample", 0, "trace 1 in N arrivals end to end (stage latencies + flight records; 0 = off)")
		flightRecs   = fs.Int("flight-records", 0, "per-shard flight-recorder capacity (0 = 256); needs -trace-sample")
		logLevel     = fs.String("log-level", "info", "structured-log threshold: debug, info, warn, or error")
		logOut       = fs.String("log-out", "stderr", "structured-log destination: stderr, stdout, or a file path (appended)")
		pprofOn      = fs.Bool("pprof", false, "daemon/router mode: mount net/http/pprof under /debug/pprof/ on the HTTP listener")
	)
	var prof profileFlags
	prof.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := prof.startDeferred(&retErr)
	if err != nil {
		return err
	}
	defer stopProf()

	// -quiet lifts the log threshold to warn unless the user pinned one
	// explicitly — lifecycle chatter off, failures still visible.
	level := *logLevel
	if *quiet {
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "log-level" {
				explicit = true
			}
		})
		if !explicit {
			level = "warn"
		}
	}
	logger, closeLog, err := obs.NewLogger(level, *logOut)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}
	defer closeLog()

	if *routerMode {
		if *nodes == "" {
			return fmt.Errorf("serve: -cluster-router needs -nodes")
		}
		if *listenHTTP == "" {
			return fmt.Errorf("serve: -cluster-router needs -listen-http")
		}
		if *standbyOf != "" && *listenTCP == "" {
			return fmt.Errorf("serve: -standby-of needs -listen-tcp (promotion serves the framed protocol)")
		}
		var inj *faults.Injector
		if *faultSpec != "" {
			var ferr error
			if inj, ferr = faults.Parse(*faultSpec); ferr != nil {
				return fmt.Errorf("serve: -faults: %v", ferr)
			}
		}
		// Router mode reuses -checkpoint-dir as the durable route-log
		// directory: the router's own restart-in-O(1) state.
		return routerDaemon(cluster.Config{
			HTTPAddr:      *listenHTTP,
			TCPAddr:       *listenTCP,
			Nodes:         strings.Split(*nodes, ","),
			HealthEvery:   *healthEvery,
			TraceSample:   *traceSample,
			EnablePprof:   *pprofOn,
			StateDir:      *ckptDir,
			StandbyOf:     *standbyOf,
			Replicate:     *replicate,
			DownAfter:     *downAfter,
			FailoverAfter: *failoverAft,
			Faults:        inj,
			Logger:        logger,
		}, *quiet)
	}

	engCfg := engine.Config{
		Algorithm:     *algo,
		Shards:        *shards,
		Mailbox:       *mailbox,
		Seed:          *seed,
		ShardPolicy:   *shardPolicy,
		SealEvery:     *sealEvery,
		TraceSample:   *traceSample,
		FlightRecords: *flightRecs,
		Logger:        logger,
		Options:       core.Options{DisablePrediction: *noPrediction},
	}
	if *listenHTTP != "" || *listenTCP != "" {
		return serveDaemon(daemonConfig{
			engine:    engCfg,
			http:      *listenHTTP,
			tcp:       *listenTCP,
			ckptDir:   *ckptDir,
			ckptEvery: *ckptEvery,
			trace:     *tracePath,
			tenants:   *tenants,
			metrics:   *metricsEvery,
			snapOut:   *snapOut,
			compact:   *snapCompact,
			quiet:     *quiet,
			pprof:     *pprofOn,
			logger:    logger,
		})
	}

	var input io.Reader = os.Stdin
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		input = f
	}

	eng, err := engine.NewChecked(engCfg)
	if err != nil {
		return err
	}
	defer eng.Close()

	stopMetrics := startMetricsDump(eng, *metricsEvery)
	defer stopMetrics()

	arrivals, err := eng.ReplayReader(input, *tenants)
	if err != nil {
		return fmt.Errorf("serve: %v", err)
	}

	if err := emitSnapshots(eng, *snapOut, *snapCompact); err != nil {
		return err
	}

	if !*quiet {
		m := eng.Metrics()
		fmt.Fprintf(os.Stderr,
			"serve: %d arrivals, %d tenants, %d shards — %.0f arrivals/s, p50 %.1fµs, p99 %.1fµs\n",
			arrivals, m.Tenants, m.Shards, m.ArrivalsPerSec, m.LatencyP50Micros, m.LatencyP99Micros)
	}
	return nil
}

// startMetricsDump starts the periodic stderr metrics dump; the returned
// stop function is idempotent. every <= 0 disables it.
func startMetricsDump(eng *engine.Engine, every time.Duration) func() {
	if every <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		enc := json.NewEncoder(os.Stderr)
		for {
			select {
			case <-tick.C:
				enc.Encode(eng.Metrics())
			case <-stop:
				return
			}
		}
	}()
	var stopped bool
	return func() {
		if !stopped {
			stopped = true
			close(stop)
			<-done
		}
	}
}

// emitSnapshots writes the final snapshot artifact to path (stdout if "").
func emitSnapshots(eng *engine.Engine, path string, compact bool) error {
	var snaps []*engine.TenantSnapshot
	var err error
	if compact {
		snaps, err = eng.SnapshotAllCompact()
	} else {
		snaps, err = eng.SnapshotAll()
	}
	if err != nil {
		return err
	}
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return writeSnapshots(out, snaps)
}

// routerDaemon fronts a fleet of worker daemons until SIGINT/SIGTERM. The
// router holds no engine; tenants live on the workers. With -checkpoint-dir
// the routing table and arrival ledgers persist as a route log and restore
// in O(1) at start — without it, the table rebuilds from worker snapshots.
func routerDaemon(cfg cluster.Config, quiet bool) error {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	router, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	if err := router.Start(); err != nil {
		return err
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "serve: router http listening on %s\n", router.HTTPAddr())
		if a := router.TCPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "serve: router tcp listening on %s\n", a)
		}
	}

	sig := <-sigs
	signal.Stop(sigs)
	if !quiet {
		fmt.Fprintf(os.Stderr, "serve: %v — router shutting down\n", sig)
	}
	return router.Shutdown(30 * time.Second)
}

type daemonConfig struct {
	engine    engine.Config
	http, tcp string
	ckptDir   string
	ckptEvery time.Duration
	trace     string
	tenants   int
	metrics   time.Duration
	snapOut   string
	compact   bool
	quiet     bool
	pprof     bool
	logger    *slog.Logger
}

// serveDaemon runs the network serving layer until SIGINT/SIGTERM, then
// shuts down gracefully: drain, final checkpoint, final snapshot artifact.
func serveDaemon(cfg daemonConfig) error {
	// Register the signal handler before anything becomes observable
	// (listeners, checkpoints): once the daemon looks ready, SIGTERM is
	// guaranteed to mean graceful shutdown, never the default kill.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	srv, err := server.New(server.Config{
		HTTPAddr:        cfg.http,
		TCPAddr:         cfg.tcp,
		CheckpointDir:   cfg.ckptDir,
		CheckpointEvery: cfg.ckptEvery,
		EnablePprof:     cfg.pprof,
		Logger:          cfg.logger,
		Engine:          cfg.engine,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	eng := srv.Engine()
	if n := srv.Restored(); n > 0 && !cfg.quiet {
		fmt.Fprintf(os.Stderr, "serve: restored %d arrivals from checkpoint in %s\n", n, cfg.ckptDir)
	}
	if !cfg.quiet {
		if a := srv.HTTPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "serve: http listening on %s\n", a)
		}
		if a := srv.TCPAddr(); a != "" {
			fmt.Fprintf(os.Stderr, "serve: tcp listening on %s\n", a)
		}
	}

	// An explicit -trace seeds the daemon before network traffic — but not
	// after a checkpoint restore: the checkpoint already contains the
	// seeded arrivals, and replaying them again would double-serve every
	// request (the standard restart command line keeps the same flags).
	if cfg.trace != "" && srv.Restored() == 0 {
		f, err := os.Open(cfg.trace)
		if err != nil {
			return err
		}
		if _, err := eng.ReplayReader(f, cfg.tenants); err != nil {
			f.Close()
			return fmt.Errorf("serve: %v", err)
		}
		f.Close()
	} else if cfg.trace != "" && !cfg.quiet {
		fmt.Fprintln(os.Stderr, "serve: checkpoint restored; skipping -trace seeding")
	}

	stopMetrics := startMetricsDump(eng, cfg.metrics)
	defer stopMetrics()

	sig := <-sigs
	signal.Stop(sigs)
	if !cfg.quiet {
		fmt.Fprintf(os.Stderr, "serve: %v — shutting down\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	stopMetrics()

	// The engine is closed after Shutdown; emit the artifact from the
	// final checkpoint when available, otherwise skip (snapshots were
	// observable over HTTP while the daemon ran).
	if cfg.ckptDir == "" {
		return nil
	}
	ck, err := engine.ReadCheckpointFile(cfg.ckptDir + "/" + server.CheckpointFile)
	if err != nil {
		return err
	}
	replay, err := engine.NewChecked(cfg.engine)
	if err != nil {
		return err
	}
	defer replay.Close()
	if _, err := replay.Restore(ck); err != nil {
		return err
	}
	return emitSnapshots(replay, cfg.snapOut, cfg.compact)
}

// writeSnapshots emits the deterministic snapshot artifact: indented JSON,
// tenants sorted by name, trailing newline.
func writeSnapshots(w io.Writer, snaps []*engine.TenantSnapshot) error {
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
