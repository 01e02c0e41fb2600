// Command omflp runs the reproduction experiments of "The Online
// Multi-Commodity Facility Location Problem" (SPAA 2020).
//
// Usage:
//
//	omflp list
//	omflp run <experiment-id> [-seed N] [-quick] [-workers N] [-csv DIR] [-bench-out DIR] [-no-charts]
//	omflp all [-seed N] [-quick] [-workers N] [-csv DIR] [-bench-out DIR] [-no-charts]
//	omflp replay -trace FILE [-seed N]        (replay a gentrace JSON file)
//	omflp serve [-trace FILE] [-algo pd|rand] [-shards N] [-tenants N]
//	            [-metrics-every DUR] [-snapshot-out FILE] [-snapshot-compact]
//	            [-listen-http ADDR] [-listen-tcp ADDR]
//	            [-checkpoint-dir DIR] [-checkpoint-every DUR]
//	            [-checkpoint-seal-every N] [-shard-policy hash|leastload]
//	omflp serve -cluster-router -nodes H:P,H:P,... -listen-http ADDR
//	            [-listen-tcp ADDR] [-health-every DUR]
//	omflp loadgen [-mode http|tcp] [-addr HOST:PORT] [-targets H:P,...] [-trace FILE]
//	              [-dist uniform|zipf|bundled] [-rate N] [-ops-out FILE]
//	              [-tenants N] [-arrivals N] [-conc N] [-bench-out DIR] [-bench-key K]
//	omflp ckpt-bench [-histories N,N,...] [-seal-every N] [-out DIR]
//	omflp ckpt-inspect FILE                   (summarize a checkpoint document)
//
// run/all, serve and loadgen accept -cpuprofile/-memprofile FILE to write
// pprof profiles of the run.
//
// serve is the streaming mode: it hosts internal/engine, ingests arrivals
// continuously (gentrace file traces or JSON-lines op streams, from stdin or
// -trace) across sharded multi-tenant serving goroutines, and emits
// deterministic per-tenant snapshots plus wall-clock metrics. With
// -listen-http/-listen-tcp it runs as a network daemon (internal/server):
// an HTTP API plus a length-prefixed TCP op protocol over one shared engine,
// periodic checkpoints to -checkpoint-dir with restore-on-start, and
// graceful drain on SIGINT/SIGTERM. With -cluster-router the process is a
// stateless router fronting a fleet of such daemons with the same two
// protocols: it places tenants, migrates them live between workers, and
// recovers routes when a killed worker restarts from its checkpoint (see
// internal/cluster). loadgen drives a daemon, a router, or a fleet
// (-targets partitions tenants across endpoints) with concurrent workers
// and reports achieved arrivals/s and latency percentiles; -bench-out
// writes BENCH_serve.json. See the usage text and the internal/engine,
// internal/server and internal/cluster package documentation for the wire
// formats.
//
// -workers fans independent experiment repetitions out across goroutines
// (0 = GOMAXPROCS, 1 = sequential); output is byte-identical for every
// worker count under a fixed seed. -bench-out makes the perf experiment
// write machine-readable benchmark artifacts into the given directory:
// BENCH_pd.json (PD-OMFLP's event-driven serve loop vs the incremental and
// naive modes of its reference transcription, internal/core/pdref) and
// BENCH_algos.json (arrivals/s for all four online algorithms across n and
// |S| sweeps).
//
// Experiment IDs map to paper artifacts (fig1, fig2, fig3, thm2, cor3,
// thm4, thm18, thm19, lem12, dual, ablation_*); see DESIGN.md §4 and
// EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "omflp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	switch args[0] {
	case "list":
		return cmdList()
	case "run":
		return cmdRun(args[1:])
	case "all":
		return cmdAll(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "loadgen":
		return cmdLoadgen(args[1:])
	case "ckpt-bench":
		return cmdCkptBench(args[1:])
	case "ckpt-inspect":
		return cmdCkptInspect(args[1:])
	case "explain":
		return cmdExplain(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  omflp list                                     list experiments
  omflp run <id> [-seed N] [-quick] [-workers N] [-csv DIR] [-bench-out DIR]
                                                 run one experiment
  omflp all     [-seed N] [-quick] [-workers N] [-csv DIR] [-bench-out DIR]
                                                 run every experiment
  omflp replay -trace FILE [-seed N]             replay a JSON trace through all algorithms
  omflp serve [-trace FILE] [-algo pd|rand] [-shards N] [-tenants N] [-seed N]
              [-mailbox N] [-metrics-every DUR] [-snapshot-out FILE] [-quiet]
              [-snapshot-compact] [-shard-policy hash|leastload]
              [-listen-http ADDR] [-listen-tcp ADDR]
              [-checkpoint-dir DIR] [-checkpoint-every DUR] [-checkpoint-seal-every N]
                                                 stream arrivals through a serving engine
  omflp serve -cluster-router -nodes H:P,H:P,... -listen-http ADDR [-listen-tcp ADDR]
              [-health-every DUR]
                                                 route tenants across worker daemons
  omflp loadgen [-mode http|tcp] [-addr HOST:PORT] [-targets H:P,...] [-trace FILE]
                [-dist uniform|zipf|bundled] [-zipf-s S] [-rate N] [-tenants N]
                [-arrivals N] [-conc N] [-batch N] [-seed N] [-ops-out FILE]
                [-bench-out DIR] [-bench-key K] [-http-targets H:P,...]
                                                 drive a serve daemon and measure throughput
  omflp ckpt-bench [-histories N,N] [-seal-every N] [-algos pd,rand] [-out DIR]
                                                 benchmark unsealed vs sealed checkpoint restores
  omflp ckpt-inspect FILE                        print a checkpoint's header and per-tenant sizes
  omflp explain -trace FILE                      narrate PD-OMFLP's decisions on a trace
  omflp check -trace FILE                        validate a trace's metric and cost assumptions

-workers 0 (default) uses GOMAXPROCS goroutines for independent repetitions;
-workers 1 forces a sequential run. Tables are byte-identical either way
under a fixed seed. -bench-out DIR makes the perf experiment write
BENCH_pd.json (PD's serve loop vs its reference transcription's two modes)
and BENCH_algos.json (per-algorithm serve throughput) into DIR.
run/all, serve and loadgen all take -cpuprofile FILE and -memprofile FILE to
write go-tool-pprof profiles of the run (CPU stopped and heap captured on
exit), so serve-path perf work needs no code edits to diagnose.

serve reads a gentrace JSON trace or a JSON-lines op stream from stdin (or
-trace FILE) — "gentrace ... | omflp serve -algo pd -shards 8" works end to
end. Final per-tenant snapshots (open facilities, assignments, cost vs dual
lower bound) are printed as JSON to stdout, byte-identical for every -shards
value under a fixed seed; metrics (arrivals/s, p50/p99 serve latency, queue
depth) go to stderr. The op-stream format is documented in internal/engine.

With -listen-http/-listen-tcp, serve runs as a network daemon instead:
  POST /v1/tenants/{id}           create a tenant (universe <= 65536, distances, cost_by_size)
  POST /v1/tenants/{id}/arrive    one arrival {"point":p,"demands":[..]} or a batch {"arrivals":[...]}
  GET  /v1/tenants/{id}/snapshot  consistent snapshot (?compact=1 drops assignment history)
  GET  /v1/snapshots              all tenants — same artifact as the stdin path
  GET  /v1/metrics, GET /healthz  engine metrics and liveness
  POST /v1/checkpoint             force a checkpoint now
The TCP listener ingests length-prefixed frames (4-byte big-endian length +
one JSON op) and acks each stream once on half-close. -checkpoint-dir DIR
persists engine state to DIR/engine.ckpt (atomic rename) every
-checkpoint-every; a restarted daemon restores it and resumes every tenant
with no cost divergence. Checkpoints use format v2: a base snapshot of each
tenant's serialized algorithm state plus the arrival segment served since —
-checkpoint-seal-every N re-bases a tenant once its tail exceeds N arrivals
(default 4096, negative = never), so a restore replays at most N arrivals
per tenant instead of the full history. A checkpoint holding a passive
follower copy is v3, v2 plus each tenant's role, and the copy restores
passive. The file is a binary document (ckpt-inspect FILE prints its
header and per-tenant sizes and roles); the JSON engine.ckpt.json of
earlier builds is refused, and a daemon whose -checkpoint-dir holds only
that file will not start.
SIGINT/SIGTERM drains, checkpoints and exits.

loadgen's synthetic workload takes -dist uniform|zipf|bundled (zipf skews
commodity popularity with exponent -zipf-s; bundled demands all of S every
request) and -rate R sends on an open-loop schedule of R arrivals/s across
all workers (0 = closed loop). ckpt-bench writes BENCH_checkpoint.json
(capture/restore time, raw JSON bytes and the bytes WriteFile writes per
history length, unsealed as column v1 vs sealed as v2) and fails if a v2
restore replays more than -seal-every arrivals, a deep v2 capture loses to
v1's full-history capture, or the v2 file is not smaller than v1's raw JSON
document.

Quickstart:
  omflp serve -listen-http 127.0.0.1:8080 -checkpoint-dir /tmp/omflp &
  curl -X POST localhost:8080/v1/tenants/a -d '{"universe":2,
    "distances":[[0,1],[1,0]],"cost_by_size":[0,1,1.5]}'
  curl -X POST localhost:8080/v1/tenants/a/arrive -d '{"point":0,"demands":[0,1]}'
  curl localhost:8080/v1/tenants/a/snapshot

loadgen creates tenants and fans arrivals across -conc workers (tenants
partitioned per worker, preserving per-tenant order), then reports achieved
arrivals/s and latency percentiles as JSON. Without -addr it spawns an
in-process server on loopback; -bench-out DIR writes/updates
BENCH_serve.json keyed by transport mode (-bench-key overrides the key, so
cluster runs get their own section). -targets A,B,... partitions tenants
across several endpoints (a worker fleet driven directly); -http-targets
lists the matching HTTP addresses to poll for drain-aware timing. -ops-out
FILE dumps the op stream as JSON lines and exits — the dump replays through
serve stdin, loadgen -trace, and the TCP protocol alike.

Cluster mode: omflp serve -cluster-router -nodes A,B -listen-http ADDR
fronts worker daemons (started with their own -listen-http/-listen-tcp and
identical -algo/-seed) with the same HTTP API and TCP framing — clients and
loadgen run unchanged. The router places each tenant on the worker hosting
the fewest tenants, health-checks workers every -health-every, re-admits a
worker that restarts from its checkpoint and re-syncs its routes from the
worker's GET /v1/served, and migrates tenants live: POST /v1/migrate
{"tenant":"t","target":"host:port"} quiesces the tenant, moves its state,
replays arrivals buffered during the move, and flips the route — snapshots
are byte-identical across the move. GET /v1/routes shows placements;
GET /v1/metrics merges worker metrics (stale scrapes flagged by sequence
number, never double-counted). Router-only endpoints return 421 for
tenants with no route.`)
}

func cmdList() error {
	tab := report.NewTable("registered experiments", "id", "reproduces", "title")
	for _, e := range sim.All() {
		tab.AddRow(e.ID, e.Reproduces, e.Title)
	}
	return tab.Render(os.Stdout)
}

type runFlags struct {
	seed     int64
	quick    bool
	workers  int
	csvDir   string
	benchDir string
	noChart  bool
	prof     profileFlags
}

func parseRunFlags(name string, args []string) (runFlags, []string, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	var rf runFlags
	fs.Int64Var(&rf.seed, "seed", 1, "random seed (fixed seed = identical results)")
	fs.BoolVar(&rf.quick, "quick", false, "smaller sizes for a fast smoke run")
	fs.IntVar(&rf.workers, "workers", 0, "goroutines for independent repetitions (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&rf.csvDir, "csv", "", "directory to also write tables as CSV")
	fs.StringVar(&rf.benchDir, "bench-out", "", "directory for machine-readable benchmark artifacts (perf writes BENCH_pd.json)")
	fs.BoolVar(&rf.noChart, "no-charts", false, "suppress ASCII charts")
	rf.prof.register(fs)
	if err := fs.Parse(args); err != nil {
		return rf, nil, err
	}
	return rf, fs.Args(), nil
}

func cmdRun(args []string) error {
	var id string
	// Accept both "run <id> -flags" and "run -flags <id>".
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		id, args = args[0], args[1:]
	}
	rf, rest, err := parseRunFlags("run", args)
	if err != nil {
		return err
	}
	if id == "" && len(rest) > 0 {
		id = rest[0]
	}
	if id == "" {
		return fmt.Errorf("run: missing experiment id (try `omflp list`)")
	}
	return rf.prof.withProfiles(func() error { return execute(id, rf) })
}

func cmdAll(args []string) error {
	rf, _, err := parseRunFlags("all", args)
	if err != nil {
		return err
	}
	return rf.prof.withProfiles(func() error {
		for _, e := range sim.All() {
			if err := execute(e.ID, rf); err != nil {
				return fmt.Errorf("%s: %v", e.ID, err)
			}
			fmt.Println()
		}
		return nil
	})
}

func execute(id string, rf runFlags) error {
	e, ok := sim.Get(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (try `omflp list`)", id)
	}
	fmt.Printf("### %s — %s\n    reproduces: %s\n\n", e.ID, e.Title, e.Reproduces)
	res, err := e.Run(sim.Config{Seed: rf.seed, Quick: rf.quick, Workers: rf.workers, BenchDir: rf.benchDir})
	if err != nil {
		return err
	}
	for ti, tab := range res.Tables {
		if err := tab.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if rf.csvDir != "" {
			if err := writeCSV(rf.csvDir, fmt.Sprintf("%s_%d.csv", e.ID, ti), tab); err != nil {
				return err
			}
		}
	}
	if !rf.noChart {
		for _, c := range res.Charts {
			if err := report.Chart(os.Stdout, c.Title, 72, 18, c.Series...); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

func writeCSV(dir, name string, tab *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return tab.WriteCSV(f)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	var path string
	fs.StringVar(&path, "trace", "", "JSON trace file written by gentrace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("explain: -trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ReadJSON(f)
	if err != nil {
		return err
	}

	pd := core.NewPDOMFLP(tr.Instance.Space, tr.Instance.Costs, core.Options{})
	for _, r := range tr.Instance.Requests {
		pd.Serve(r)
	}
	sol := pd.Solution()
	if err := sol.Verify(tr.Instance); err != nil {
		return err
	}

	tab := report.NewTable(fmt.Sprintf("explain %s: PD-OMFLP decisions", tr.Name),
		"request", "point", "commodity", "constraint", "facility point", "config size", "dual a_re")
	for _, ev := range pd.ServeLog() {
		fac := sol.Facilities[ev.Facility]
		tab.AddRow(ev.Request, tr.Instance.Requests[ev.Request].Point, ev.Commodity,
			ev.Mode.String(), fac.Point, fac.Config.Len(), ev.Dual)
	}
	if err := tab.Render(os.Stdout); err != nil {
		return err
	}

	small, large := pd.FacilityCounts()
	sum := report.NewTable("summary", "quantity", "value")
	sum.AddRow("requests", len(tr.Instance.Requests))
	sum.AddRow("small facilities", small)
	sum.AddRow("large facilities", large)
	sum.AddRow("total cost", sol.Cost(tr.Instance))
	sum.AddRow("dual total (cost ≤ 3·dual)", pd.DualTotal())
	fmt.Println()
	return sum.Render(os.Stdout)
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	var path string
	var seed int64
	fs.StringVar(&path, "trace", "", "JSON trace file written by gentrace")
	fs.Int64Var(&seed, "seed", 1, "seed for sampled checks on large universes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("check: -trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ReadJSON(f)
	if err != nil {
		return err
	}
	in := tr.Instance

	rng := rand.New(rand.NewSource(seed))
	points := make([]int, in.Space.Len())
	for i := range points {
		points[i] = i
	}
	tab := report.NewTable(fmt.Sprintf("check %s", tr.Name), "assumption", "result")
	pass := func(name string, err error) {
		if err != nil {
			tab.AddRow(name, "VIOLATED: "+err.Error())
		} else {
			tab.AddRow(name, "ok")
		}
	}
	pass("instance structure", in.Validate())
	pass("metric axioms (exhaustive)", metric.Check(in.Space))
	pass("cost subadditivity", cost.CheckSubadditive(in.Costs, points, 8, 2000, rng))
	pass("Condition 1 (f^σ/|σ| ≥ f^S/|S|)", cost.CheckCondition1(in.Costs, points, 8, 2000, rng))
	pass("cost monotonicity", cost.CheckMonotone(in.Costs, points, 8, 2000, rng))
	return tab.Render(os.Stdout)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var path string
	var seed int64
	fs.StringVar(&path, "trace", "", "JSON trace file written by gentrace")
	fs.Int64Var(&seed, "seed", 1, "seed for randomized algorithms")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("replay: -trace is required")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := workload.ReadJSON(f)
	if err != nil {
		return err
	}

	factories := []online.Factory{
		core.PDFactory(core.Options{}),
		core.RandFactory(core.Options{}),
		baseline.PerCommodityPDFactory(nil),
		baseline.NoPredictionFactory(nil),
	}
	offline := baseline.BestOffline(tr.Instance, 40)
	opt := offline.Cost
	optSrc := offline.Name
	if tr.PlantedCost > 0 && tr.PlantedCost < opt {
		opt, optSrc = tr.PlantedCost, "planted"
	}

	tab := report.NewTable(fmt.Sprintf("replay %s (n=%d, |S|=%d)", tr.Name,
		len(tr.Instance.Requests), tr.Instance.Universe()),
		"algorithm", "cost", "facilities", "ratio vs "+optSrc)
	for _, fac := range factories {
		sol, c, err := online.Run(fac, tr.Instance, seed, true)
		if err != nil {
			return err
		}
		tab.AddRow(fac.Name, c, len(sol.Facilities), c/opt)
	}
	tab.AddRow(optSrc, opt, len(offline.Solution.Facilities), 1.0)
	return tab.Render(os.Stdout)
}
