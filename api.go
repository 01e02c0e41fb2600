package omflp

import (
	"io"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/lowerbound"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Core problem types.
type (
	// Set is a commodity set (dynamic bitset); the zero value is empty.
	Set = commodity.Set
	// Request demands a commodity set at a point of the metric space.
	Request = instance.Request
	// Instance couples a space, a cost model and a request sequence.
	Instance = instance.Instance
	// Facility is an opened facility: point plus configuration.
	Facility = instance.Facility
	// Solution lists facilities and per-request connections.
	Solution = instance.Solution
	// Space is a finite metric space.
	Space = metric.Space
	// CostModel is a construction cost function f_m^σ.
	CostModel = cost.Model
	// Algorithm is an online OMFLP algorithm.
	Algorithm = online.Algorithm
	// Factory constructs algorithms for experiment runs.
	Factory = online.Factory
	// Options configures the core algorithms.
	Options = core.Options
	// Table is a rendered experiment result.
	Table = report.Table
)

// Streaming serving engine (see internal/engine): a long-lived, sharded
// multi-tenant subsystem that ingests arrival streams continuously and
// exposes deterministic per-tenant snapshots plus engine-wide metrics.
type (
	// Engine hosts many independent OMFLP instances ("tenants") sharded
	// across goroutines with bounded mailboxes.
	Engine = engine.Engine
	// EngineConfig selects the algorithm, shard count, mailbox capacity
	// and seed of an Engine.
	EngineConfig = engine.Config
	// Snapshot is a consistent per-tenant state cut: open facilities,
	// assignments, cost-so-far vs the dual lower bound.
	Snapshot = engine.TenantSnapshot
	// Metrics is an engine-wide health report: arrivals/s, p50/p99 serve
	// latency, queue depth.
	Metrics = engine.Metrics
	// EngineOp is one line of the engine's JSON-lines ingestion protocol.
	EngineOp = engine.Op
	// Checkpoint is a durable, restorable record of engine state (format
	// v2): per tenant, the serializable substrate, a base snapshot of the
	// algorithm's serialized state, and the arrival-log segment served
	// since the base. Restore loads the state and replays only the
	// segment. WriteFile stores it as one binary document.
	Checkpoint = engine.Checkpoint
	// RestoreStats reports what a checkpoint restore did: tenants rebuilt,
	// total arrivals represented, arrivals actually replayed (the tail
	// segments) and base-state bytes loaded.
	RestoreStats = engine.RestoreStats
	// StateCodec is implemented by algorithms whose complete serving state
	// serializes and restores without replaying history — PD-OMFLP and
	// RAND-OMFLP, the algorithms the engine hosts, do. It is the foundation
	// of checkpoint format v2.
	StateCodec = online.StateCodec
)

// CheckpointVersion is the format version Checkpoint captures when no
// tenant is passive: per tenant, a base state and the arrival segment
// served since. A document holding a passive record is version 3, the same
// layout with each record's role; Restore reads both.
const CheckpointVersion = engine.CheckpointVersion

// NewEngine starts a streaming serving engine; see EngineConfig. The
// returned error reports an unknown algorithm name.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	return engine.NewChecked(cfg)
}

// Network serving layer (see internal/server): an HTTP API and a
// length-prefixed TCP op protocol multiplexed onto one shared Engine, with
// periodic checkpointing to disk and restore-on-start. The CLI front end is
// "omflp serve -listen-http/-listen-tcp"; "omflp loadgen" drives it.
type (
	// Server binds the HTTP/TCP listeners over one engine.
	Server = server.Server
	// ServerConfig selects listen addresses, checkpoint directory and
	// interval, and the underlying engine configuration.
	ServerConfig = server.Config
	// ServerMetrics is the server health report: engine metrics (with the
	// per-shard breakdown) plus checkpoint size/latency and restore stats.
	ServerMetrics = server.Metrics
)

// NewServer creates a network serving layer (restoring any checkpoint found
// in ServerConfig.CheckpointDir); call Start to bind its listeners and
// Shutdown for a graceful drain + final checkpoint.
func NewServer(cfg ServerConfig) (*Server, error) {
	return server.New(cfg)
}

// ReadCheckpoint reads the binary checkpoint document the serving layer
// (or Checkpoint.WriteFile) writes; replay it onto a fresh engine with
// Engine.Restore. JSON documents of earlier builds are refused with an
// error that names them.
var ReadCheckpoint = engine.ReadCheckpointFile

// Cluster serving: a Router fronts N worker Servers with the same HTTP API
// and TCP framing, owning the tenant→node map, migrating tenants live and
// recovering workers from their checkpoints. The CLI front end is
// "omflp serve -cluster-router -nodes addr1,addr2,...".
type (
	// Router is the cluster front; see internal/cluster.
	Router = cluster.Router
	// RouterConfig selects the router's listen addresses, the worker node
	// list, the placement policy and the health-probe cadence.
	RouterConfig = cluster.Config
	// ClusterMetrics is the merged cluster view GET /v1/metrics serves
	// from a router: per-node reports plus aggregation-safe totals.
	ClusterMetrics = cluster.Metrics
)

// NewRouter creates a cluster router over the configured worker nodes;
// call Start to probe the fleet and bind listeners, Shutdown to stop.
func NewRouter(cfg RouterConfig) (*Router, error) {
	return cluster.New(cfg)
}

// Observability (see internal/obs): sampled op tracing with per-stage
// latency histograms, a lock-free flight recorder, hand-rolled Prometheus
// text exposition and structured slog logging — shared by the engine, the
// network server and the cluster router. EngineConfig.TraceSample /
// FlightRecords turn tracing on; ServerConfig.EnablePprof gates
// /debug/pprof/.
type (
	// HistSummary is a serialized latency histogram: occupied power-of-two
	// buckets plus pre-computed p50/p99/p999 (microseconds). Summaries
	// merge losslessly across shards and nodes.
	HistSummary = obs.HistSummary
	// StageBreakdown carries one latency histogram per pipeline stage
	// (decode, enqueue, dequeue, serve, ack, total) over traced arrivals.
	StageBreakdown = obs.StageBreakdown
	// FlightRecord is one traced arrival as kept by the flight recorder
	// ring and served by GET /v1/debug/flight: trace id, tenant, shard,
	// outcome, per-stage microseconds and (in merged cluster dumps) the
	// origin node.
	FlightRecord = obs.FlightRecord
	// RuntimeStats is a point-in-time Go runtime health snapshot:
	// goroutines, heap, GC activity.
	RuntimeStats = obs.RuntimeStats
)

// TraceHeader is the HTTP request header carrying a 16-hex-digit trace id
// end to end (router → worker → flight record).
const TraceHeader = server.TraceHeader

// Trace id codecs for TraceHeader and the framed-TCP trace field.
var (
	// TraceIDString formats a trace id as 16 lowercase hex digits.
	TraceIDString = obs.TraceIDString
	// ParseTraceID parses TraceIDString output; malformed input yields 0
	// (untraced).
	ParseTraceID = obs.ParseTraceID
)

// Commodity set constructors.
var (
	// NewSet returns a set of the given commodity IDs.
	NewSet = commodity.New
	// FullSet returns {0..u-1}.
	FullSet = commodity.Full
	// ParseSet parses "{1,2,3}".
	ParseSet = commodity.Parse
)

// Metric space constructors.
var (
	// NewLine builds a 1-d metric from coordinates.
	NewLine = metric.NewLine
	// NewGrid builds n evenly spaced line points spanning a width.
	NewGrid = metric.NewGrid
	// NewEuclidean builds a k-d Euclidean metric.
	NewEuclidean = metric.NewEuclidean
	// NewGraphBuilder accumulates weighted edges; Build yields the
	// shortest-path metric.
	NewGraphBuilder = metric.NewGraphBuilder
	// NewUniform builds the uniform metric.
	NewUniform = metric.NewUniform
	// SinglePoint returns the one-point space of the Theorem 2 game.
	SinglePoint = metric.SinglePoint
	// CheckMetric verifies the metric axioms (O(n³); for tests).
	CheckMetric = metric.Check
)

// Cost model constructors (all size-dependent models satisfy the paper's
// Condition 1; see package cost for validators).
var (
	// PowerLawCost is the class-C model g_x(|σ|) = scale·|σ|^{x/2}.
	PowerLawCost = cost.PowerLaw
	// LinearCost is perCommodity·|σ| (x = 2).
	LinearCost = cost.Linear
	// ConstantCost is a flat cost per facility (x = 0).
	ConstantCost = cost.Constant
	// CeilSqrtCost is the Theorem 2 model ⌈|σ|/√|S|⌉.
	CeilSqrtCost = cost.CeilSqrt
	// PointScaledCost multiplies a base model by per-point factors.
	PointScaledCost = cost.NewPointScaled
)

// NewPD constructs the deterministic PD-OMFLP algorithm (Algorithm 1,
// Theorem 4).
func NewPD(space Space, costs CostModel, opts Options) *core.PDOMFLP {
	return core.NewPDOMFLP(space, costs, opts)
}

// NewRand constructs the randomized RAND-OMFLP algorithm (Algorithm 2,
// Theorem 19).
func NewRand(space Space, costs CostModel, opts Options, rng *rand.Rand) *core.RandOMFLP {
	return core.NewRandOMFLP(space, costs, opts, rng)
}

// NewHeavyAware constructs the closing-remarks extension that serves heavy
// commodities separately.
func NewHeavyAware(space Space, costs CostModel, opts Options, theta float64) *core.HeavyAware {
	return core.NewHeavyAware(space, costs, opts, theta)
}

// Algorithm factories for harness runs.
var (
	// PDFactory yields PD-OMFLP.
	PDFactory = core.PDFactory
	// RandFactory yields RAND-OMFLP (seeded per run).
	RandFactory = core.RandFactory
	// HeavyFactory yields the heavy-aware extension.
	HeavyFactory = core.HeavyFactory
	// PerCommodityFactory yields the trivial per-commodity baseline.
	PerCommodityFactory = baseline.PerCommodityPDFactory
	// NoPredictionFactory yields the no-prediction greedy strawman.
	NoPredictionFactory = baseline.NoPredictionFactory
)

// Run replays an instance through a factory-constructed algorithm and
// returns the verified solution and its cost.
func Run(f Factory, in *Instance, seed int64) (*Solution, float64, error) {
	return online.Run(f, in, seed, true)
}

// Offline OPT proxies.
var (
	// StarGreedy is the Ravi–Sinha-flavoured offline greedy, with its
	// candidate-star scans fanned across GOMAXPROCS goroutines.
	StarGreedy = baseline.StarGreedy
	// StarGreedyParallel is StarGreedy with an explicit worker count;
	// results are byte-identical for every count.
	StarGreedyParallel = baseline.StarGreedyParallel
	// LocalSearch refines a facility set by add/drop/swap moves, with
	// move evaluation fanned across GOMAXPROCS goroutines.
	LocalSearch = baseline.LocalSearch
	// LocalSearchParallel is LocalSearch with an explicit worker count;
	// results are byte-identical for every count.
	LocalSearchParallel = baseline.LocalSearchParallel
	// BestOffline runs greedy + local search and keeps the better.
	BestOffline = baseline.BestOffline
	// BestOfflineParallel is BestOffline with an explicit worker count.
	BestOfflineParallel = baseline.BestOfflineParallel
	// ExactSmall is the exact branch-and-bound solver (small instances).
	ExactSmall = baseline.ExactSmall
)

// Lower-bound adversaries.
var (
	// NewTheorem2Game builds the Ω(√|S|) single-point game.
	NewTheorem2Game = lowerbound.NewTheorem2Game
	// NewClassCGame builds the Theorem 18 variant with g_x costs.
	NewClassCGame = lowerbound.NewClassCGame
)

// Workload generators.
var (
	// UniformWorkload generates uniform random demand.
	UniformWorkload = workload.Uniform
	// ClusteredWorkload plants cluster centers with known feasible cost.
	ClusteredWorkload = workload.Clustered
	// ZipfWorkload skews commodity popularity.
	ZipfWorkload = workload.Zipf
	// BundledWorkload makes every request demand all of S.
	BundledWorkload = workload.Bundled
)

// ExperimentConfig configures a harness run.
type ExperimentConfig = sim.Config

// ExperimentResult bundles the tables and charts of one experiment.
type ExperimentResult = sim.Result

// Experiments lists every registered experiment (one per paper artifact).
func Experiments() []sim.Experiment { return sim.All() }

// RunExperiment runs a registered experiment by ID (e.g. "thm2", "fig2").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	return sim.RunByID(id, cfg)
}

// RenderChart renders a chart spec from an experiment result as ASCII.
func RenderChart(w io.Writer, c sim.ChartSpec) error {
	return report.Chart(w, c.Title, 72, 18, c.Series...)
}
