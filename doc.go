// Package omflp is a Go reproduction of "The Online Multi-Commodity
// Facility Location Problem" (Castenow, Feldkord, Knollmann, Malatyali,
// Meyer auf der Heide; SPAA 2020, arXiv:2005.08391).
//
// In the Online Multi-Commodity Facility Location Problem (OMFLP), requests
// arrive over time at points of a metric space, each demanding a subset of a
// commodity universe S. An online algorithm irrevocably opens facilities —
// each at a point, configured with a set of commodities, at construction
// cost f_m^σ — and connects every request to facilities jointly covering its
// demand, paying one distance per connection. The objective is construction
// plus connection cost, compared against the offline optimum (competitive
// analysis).
//
// The package re-exports the repository's stable public API:
//
//   - the paper's two algorithms, PD-OMFLP (deterministic primal-dual,
//     O(√|S|·log n)-competitive, Theorem 4) and RAND-OMFLP (randomized,
//     O(√|S|·log n/log log n)-competitive, Theorem 19), plus the HeavyAware
//     extension of the closing remarks;
//   - baselines: per-commodity decomposition, no-prediction greedy, offline
//     star greedy / local search / exact branch-and-bound;
//   - substrates: metric spaces, construction cost models, commodity sets,
//     workload generators, the Theorem 2 lower-bound game, the c-ordered
//     covering engine of Lemma 12;
//   - the experiment harness regenerating every figure and theorem-scale
//     claim of the paper (see EXPERIMENTS.md).
//
// Streaming. The package also exports a serving engine (Engine,
// EngineConfig, Snapshot, Metrics — see internal/engine): a long-lived
// subsystem hosting many independent OMFLP instances ("tenants") sharded
// across goroutines with bounded mailboxes. It ingests arrivals continuously
// — API calls, JSON-lines op streams, or gentrace file traces — and exposes
// per-tenant snapshots (open facilities, assignments, cost-so-far vs the
// PD dual lower bound) plus engine-wide metrics (arrivals/s, p50/p99 serve
// latency, queue depth). Snapshots are deterministic: a fixed trace and seed
// yield byte-identical output for every shard count; compact snapshots
// (facilities + cost only, no assignment history) stay O(facilities) however
// long the stream. Tenants pin to shards by name hash or, with the
// leastload policy, to the least-loaded shard. The CLI front end is
// "omflp serve"; "gentrace ... | omflp serve -algo pd -shards 8" streams a
// generated workload end to end.
//
// Serving over the network. With -listen-http/-listen-tcp, omflp serve runs
// as a daemon (see internal/server): an HTTP API — POST
// /v1/tenants/{id} (create, universe at most engine.MaxUniverse = 2^16),
// POST /v1/tenants/{id}/arrive (single or
// batched arrivals), GET /v1/tenants/{id}/snapshot (?compact=1), GET
// /v1/snapshots, GET /v1/metrics, GET /healthz, POST /v1/checkpoint — and a
// length-prefixed TCP framing of the same op protocol share one engine.
// Engine state checkpoints to <dir>/engine.ckpt (atomic rename) on a
// configurable interval and on graceful shutdown; a restarted daemon
// restores the checkpoint and resumes every tenant with no cost divergence.
// /v1/metrics reports the engine aggregates, a per-shard breakdown (mailbox
// depth, served, arrivals/s per serving goroutine) and the checkpoint
// pipeline's numbers (bytes, capture latency, restore time and replay
// counts). "omflp loadgen" drives a daemon (or spawns one in-process) over
// either transport with configurable concurrency — uniform, zipf or bundled
// synthetic mixes (-dist) on a closed loop or an open-loop -rate schedule —
// and reports achieved arrivals/s and latency percentiles
// (BENCH_serve.json records them).
//
// Durability. Checkpoints use format v2 (see internal/engine): every
// algorithm the engine hosts implements StateCodec — the engine's tenant
// type requires it, so one without a codec does not compile into the
// engine. MarshalState/UnmarshalState capture the complete serving state
// (PD's duals, credits and bid accumulators; RAND's open facilities and
// rng position) such that a restored instance serves any suffix
// bit-identically. A tenant checkpoint is therefore a base state snapshot
// plus the append-only arrival-log segment served since;
// Config.SealEvery (CLI: -checkpoint-seal-every) re-bases a tenant once
// its tail exceeds N arrivals, so Restore loads the state and replays
// O(SealEvery) arrivals instead of O(history). PD and
// RAND, the algorithms the engine serves, encode their state in one
// compact binary layout (varints and raw float64 bits); base states in the
// JSON layout that preceded it are refused with an error naming their
// schema. PD keeps each served arrival as its record in that layout (point,
// demanded commodities with their frozen duals, facilities opened, links,
// large credit) in one byte buffer, and rewrites a record's credit slot in
// place when a new large facility lowers it, so a seal copies the record
// section instead of encoding it, and a restore keeps the section it
// checked. Duals, ServeLog and CheckScaledDuals decode the records on each
// call. BENCH_checkpoint.json, regenerated by "omflp ckpt-bench",
// records capture/restore time and raw + on-disk bytes for an unsealed
// capture (column v1) and a sealed one (v2) at 1e3 and 1e5 arrivals, and
// gates on v2's replay work staying flat.
//
// On disk a checkpoint is one binary document (engine.ckpt; see
// internal/engine): a magic and version header, then per tenant its name
// (and, in a version-3 document, its role: live or passive), its substrate
// as raw float64 bits, its base state flate-compressed with the raw length
// beside it, and its tail as varints. Tenants share nothing, so Restore
// rebuilds them on a pool of GOMAXPROCS goroutines, off the shard
// goroutines: each record is checked, its base state loaded and its tail
// served — a passive follower copy's kept instead — before the tenants
// are registered in checkpoint order. Restore returns with that done, and
// a record whose serve counters contradict its base state refuses the
// whole checkpoint. A tenant transfer (ExtractTenant, ExportTenant,
// InjectTenant) is the same document holding one tenant without a role,
// its base state left uncompressed in flate stored blocks, and
// InjectTenant is Restore on it. "omflp ckpt-inspect FILE" prints a
// document's header and per-tenant sizes and roles. The JSON document
// of earlier builds (engine.ckpt.json, with base_state_z fields under
// compression: "flate") is refused with an error that names it, and a
// checkpoint directory that holds only such a file stops the daemon from
// starting instead of letting it start empty.
// Without Config.RecordArrivals the engine checkpoints by marshaling state
// at capture time — no arrival history at all, nothing replayed on
// restore.
//
// Clustering. One process tops out at cores × arrivals/s, so omflp serve
// also runs as a multi-node cluster (see internal/cluster): worker nodes
// are ordinary daemons, and "omflp serve -cluster-router -nodes a,b,..."
// fronts them with the same HTTP API and TCP framing — clients and loadgen
// run unchanged. The router owns the tenant→node map (least-loaded or
// rendezvous placement), forwards arrivals to each tenant's owner, and
// merges node metrics into one cluster view (a per-node scrape sequence +
// wall stamp lets the merge drop duplicated scrapes instead of
// double-counting rates). Tenants migrate live on POST /v1/migrate through
// the router's one move: quiesce the route (arrivals buffer, and the owner
// is polled until it has admitted the ledger cut), capture the tenant's
// state on the source via StateCodec as a one-tenant checkpoint document,
// install it on the target, drain the buffered arrivals there, and settle
// by flipping the route; a failed capture or install drains back to the
// source. Builds before the binary transfer moved JSON instead, so a move
// between such a build and a later one fails its install, reinjects on
// the source and aborts (a reseed leaves the route unreplicated). The
// tenant's snapshot is byte-identical to an unmigrated run. Workers are health-checked; kill -9 a worker, restart
// it on its checkpoint directory, and it rejoins with its routes and
// ledgers re-synced from its snapshots. Every node must share the algorithm and seed (tenant
// randomness is seeded by tenant name), which the router verifies at
// admission — that invariant is what makes cluster output golden-diffable
// against a single node, and CI does exactly that (cluster-smoke).
//
// Cluster hardening. The router's own state is as durable as the workers':
// with -checkpoint-dir the routing table and per-route arrival ledgers
// persist as a base snapshot plus an append-only journal
// (routes.ckpt.json + routes.journal, same atomic-rename + torn-tail
// discipline as engine checkpoints), so a restarted — or kill -9'd —
// router is routing again after an O(1) load+replay of its own files, no
// node rescans. A second router started with -standby-of <primary-tcp>
// follows the primary's route journal live over the framed TCP protocol
// (a "follow" op streams the base doc, then every journal event), answers
// routing verbs 503/role=standby meanwhile, and promotes itself after
// -failover-after consecutive follow-connection losses; clients rotate by
// listing both routers ("omflp loadgen -retry N -addr r1,r2"). With
// -replicate, every tenant is created live on an owner and passive on a
// follower node, and arrivals dual-write to both: the passive copy records
// them and builds its state from its base and tail when read or when its
// tail reaches the seal bound, serving live from then on — determinism
// makes it byte-identical to the owner — so a dead worker's tenants
// promote onto their followers with zero acknowledged-arrival loss, and
// the health loop reseeds fresh passive followers from the survivors with
// the same move a migration makes, export in place of extract; a follower
// that fails its leg of the drain is dropped, never an arrival the owner
// was due.
// Forwarded arrivals carry idempotency keys (stream positions) end to
// end: the router trims already-accounted prefixes against its ledger —
// during a move, against the ledger plus the arrivals still buffered, a
// batch being drained included — workers trim against their admitted
// counts, and every HTTP forward and every leg of a move's drain is sent
// keyed under one jittered, budgeted retry policy — a replayed batch is
// deduped, never double-served. All of it is testable under deterministic
// adversity:
// -faults "seed=7,dial-fail=1/40,conn-reset=1/80,stall=1/60:5ms,..."
// (internal/faults) injects a seed-reproducible schedule of dial
// failures, connection resets, stalls, partial frames and probe flaps
// into the router's upstream paths, and CI's chaos-smoke job drives a
// replicated cluster through worker and router kill -9 under injected
// faults and still requires the byte-identical golden artifact.
//
// Observability. The serve/cluster stack instruments itself end to end
// (see internal/obs). With -trace-sample 1/N, sampled arrivals carry a
// 64-bit trace id through an optional framed-TCP header field and the
// X-Omflp-Trace HTTP header — router to worker to shard — accumulating
// per-stage latencies (decode, enqueue, dequeue, serve, ack) into
// power-of-two lock-free histograms reported per shard on /v1/metrics; a
// fixed-size per-shard flight recorder ring (-flight-records) keeps the
// last N traced ops and serves them on GET /v1/debug/flight (oldest first,
// ?tenant= and ?max= filters). GET /metrics exposes everything — engine,
// stage, checkpoint, cluster and Go-runtime series — in hand-rolled
// Prometheus 0.0.4 text exposition with zero dependencies; a router merges
// every fresh node scrape under a node="addr" label (the scrape-sequence
// staleness rule drops duplicated node reports) above its cluster-level
// series, and likewise merges node flight dumps into one node-attributed
// timeline. Lifecycle transitions — checkpoint, restore, migration phases,
// node up/down/rejoin, drain — emit structured log/slog JSON events
// (-log-level, -log-out); -pprof mounts net/http/pprof under
// /debug/pprof/. The tracing hot path stays allocation-free: an unsampled
// arrival costs two predicted branches, and CI gates both that tracing-off
// throughput is unchanged and that -trace-sample 16 costs at most 5%
// (benchmark-regression), while the serve and cluster smoke jobs assert
// byte-identical golden snapshots with tracing on full.
//
// Performance. PD-OMFLP's serve path is event-driven end to end. Within
// one arrival, everything the four tightness constraints read — nearest
// facility distances, the incremental bid accumulators, candidate opening
// costs — is static until the event loop ends, so Serve hoists the
// candidate scans out of the loop: per demanded commodity it computes the
// minimum Constraint (3) threshold (and the Constraint (4) analogue) once
// per arrival, after which every raise event costs O(k) over four scalars
// per commodity; the exact per-candidate scan runs only once per
// commodity at freeze time to resolve the nearest-tight-candidate
// tie-break, so solutions stay byte-identical (a conservative rounding
// margin decides when the scalar prefilter must defer to the exact scan).
// The cost table keeps, beside each point's candidate distance row, the
// candidate indices ordered by that distance, and the per-arrival
// thresholds come from two bounded scans per bid row over that order:
// nearest-first until no farther candidate can lower the minimum,
// farthest-first until no nearer one can raise the magnitude bound, each
// cut off by a per-row bound on the bid terms. Rounding is monotone, so
// the scans return exactly the element a full scan returns (the invariants
// build checks every one against it). The bid sums themselves are
// maintained incrementally — per (commodity, candidate) accumulators
// updated when a credit is added or lowered, visiting only the candidates
// nearer to the credit's point than the credit, nearest-first. Credit-ledger
// sweeps after a facility opens read the new facility's distance column
// once instead of a distance row per credit, skip commodities that never
// recorded a credit, and are skipped entirely when a request connects to
// an already-open large facility (provably a no-op: credits are
// invariantly bounded by their distance to every already-open facility).
// Per-arrival working memory lives in reusable scratch buffers, so the hot
// path allocates only the assignment links it retains; the frozen duals go
// straight into the arrival's record. The differential oracle is
// internal/core/pdref, a plain transcription of Algorithm 1 that rescans
// every candidate on every event and that no serving package imports: its
// running mode keeps the bid rows as running sums and must match the
// event-driven loop bit for bit, its naive mode rebuilds them from the
// credit history on every arrival. The perf experiment times the
// event-driven loop against both modes, each as the median of repeated
// passes (BENCH_pd.json, BENCH_algos.json), and CI gates on the
// event-driven loop beating the running mode, the incremental baseline.
// Nearest-facility queries and RAND-OMFLP's class-distance budget minima
// are answered from per-point incremental caches, so serve throughput no
// longer degrades linearly in the number of open facilities. The experiment
// harness fans independent repetitions — and, where generators own
// sub-seeded rng streams (workload.SubSeed), whole experiment rows — out
// across a worker pool: ExperimentConfig.Workers selects the goroutine
// count (0 = GOMAXPROCS, 1 = sequential), with per-index sub-seeds and
// ordered merging making every table byte-identical across worker counts
// under a fixed seed.
//
// Quickstart:
//
//	space := omflp.NewLine([]float64{0, 1, 5})
//	costs := omflp.PowerLawCost(8, 1, 1) // g_x(|σ|)=|σ|^{1/2}
//	alg := omflp.NewPD(space, costs, omflp.Options{})
//	alg.Serve(omflp.Request{Point: 0, Demands: omflp.NewSet(1, 2)})
//	sol := alg.Solution()
//
// See the examples/ directory for runnable programs and cmd/omflp for the
// experiment CLI.
package omflp
