// Package engine is the streaming serving subsystem: a long-lived Engine
// hosts many independent OMFLP instances ("tenants"), shards them across a
// pool of goroutines with bounded mailboxes, ingests arrivals continuously
// (API calls, JSON-lines op streams, or gentrace file traces) and exposes
// per-tenant state snapshots plus engine-wide metrics.
//
// The paper's algorithms are inherently online — they serve one arrival at a
// time — and the engine is the abstraction that serves them that way: unlike
// the batch experiment harness in internal/sim, nothing here rebuilds the
// world per table row; tenants live for as long as the engine does and every
// arrival is served exactly once, irrevocably.
//
// # Sharding and determinism
//
// Each tenant is pinned to one shard by a hash of its name, so all of a
// tenant's arrivals are served in ingestion order by a single goroutine —
// no locks on algorithm state, no cross-shard coordination. Tenants are
// independent, so the interleaving across shards cannot affect any tenant's
// final state: a fixed trace yields byte-identical snapshots for every shard
// count (the streaming analogue of internal/par's ordered-merge discipline).
// Randomized tenants draw their rng seed from the engine seed and the tenant
// name (workload.NamedSeed), never from creation order or shard layout.
//
// # Snapshots and metrics
//
// Snapshot and SnapshotAll return TenantSnapshot values: the open facilities
// (point + offered commodities), per-request facility assignments, the
// cost-so-far split into construction and connection, and — for PD-OMFLP
// tenants — the dual total whose triple upper-bounds the algorithm's cost
// (Corollary 8), i.e. a certified lower bound on the achievable cost of the
// served prefix. Snapshots are taken on the owning shard's goroutine,
// serialized with the tenant's arrival stream, so they are always consistent
// cuts of a tenant's state. Metrics reports arrivals/s (lifetime and since
// the previous call), p50/p99 serve latency from lock-free histograms, and
// the current mailbox depth.
package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/online"
)

// Sentinel errors, wrapped by the engine's error returns so network front
// ends can map them to protocol statuses (404/409/503) with errors.Is.
var (
	ErrClosed          = errors.New("engine closed")
	ErrUnknownTenant   = errors.New("unknown tenant")
	ErrDuplicateTenant = errors.New("tenant already exists")
	// ErrArrivalGap: a position-keyed batch (ServeBatchAt) starts beyond the
	// tenant's admitted count — accepting it would skip arrivals. The sender
	// must re-sync its position (409 on the HTTP surface).
	ErrArrivalGap = errors.New("arrival position beyond admitted count")
)

// Shard assignment policies for Config.ShardPolicy.
const (
	// PolicyHash pins each tenant to a shard by a hash of its name:
	// stable across runs and independent of creation order, but several
	// hot tenants can collide on one shard.
	PolicyHash = "hash"
	// PolicyLeastLoad assigns each new tenant to the shard currently
	// hosting the fewest tenants (ties to the lowest shard index):
	// deterministic given creation order, and immune to hash collisions
	// piling hot tenants onto one goroutine.
	PolicyLeastLoad = "leastload"
)

// Config configures an Engine.
type Config struct {
	// Algorithm selects the per-tenant serving algorithm: "pd" (default,
	// deterministic primal-dual) or "rand" (randomized Meyerson-style).
	Algorithm string
	// Shards is the number of serving goroutines; <= 0 means GOMAXPROCS.
	Shards int
	// Mailbox is the per-shard queue capacity (arrivals admitted but not
	// yet served); <= 0 means 256. A full mailbox blocks Serve — the
	// engine's backpressure.
	Mailbox int
	// Seed drives all tenant randomness (rand tenants derive per-tenant
	// seeds from it and their name). Fixed seed + fixed trace = identical
	// snapshots for every shard count.
	Seed int64
	// ShardPolicy selects how tenants are pinned to shards: PolicyHash
	// (default) or PolicyLeastLoad. Tenants are independent, so the policy
	// never affects any tenant's snapshot — only load balance.
	ShardPolicy string
	// RecordArrivals keeps each tenant's served arrival tail (the segment
	// since its last sealed base state) in memory. With it, periodic
	// checkpoints are cheap — cached base bytes plus a short tail — and
	// restores replay at most SealEvery arrivals. Without it, Checkpoint
	// marshals every tenant's full algorithm state on every call, and
	// restores replay nothing.
	RecordArrivals bool
	// SealEvery bounds a recording tenant's in-memory arrival tail: once
	// the tail reaches SealEvery arrivals the tenant re-bases — marshals
	// its algorithm state as the new checkpoint base and truncates the
	// tail — so checkpoint restores replay at most SealEvery arrivals. 0
	// means the 4096 default; negative disables sealing entirely: every
	// checkpoint then holds each tenant's full history and no base, and a
	// restore replays all of it.
	SealEvery int
	// Options is passed through to the core algorithms.
	Options core.Options
	// TraceSample enables op tracing: 1 in TraceSample arrivals entering
	// through a tracing front end gets a full per-stage latency record and
	// a flight-recorder entry. 0 disables tracing entirely — the serve hot
	// path then carries only nil checks. Tracing is observation-only:
	// snapshots stay byte-identical whatever the sample rate.
	TraceSample int
	// FlightRecords sizes each shard's flight ring (last N traced ops);
	// <= 0 means DefaultFlightRecords. Only meaningful with TraceSample.
	FlightRecords int
	// Logger receives structured lifecycle events (seal failures). nil
	// means discard.
	Logger *slog.Logger
}

// DefaultFlightRecords is the per-shard flight-ring capacity used when
// Config.FlightRecords is zero.
const DefaultFlightRecords = 256

// DefaultSealEvery is the arrival-tail bound used when Config.SealEvery is
// zero.
const DefaultSealEvery = 4096

// algoName returns the normalized algorithm name ("" means "pd").
func (c Config) algoName() string {
	if c.Algorithm == "" {
		return "pd"
	}
	return c.Algorithm
}

// algorithm is what a tenant runs. The engine seals and restores its
// state, so an algorithm without a state codec does not compile into the
// engine.
type algorithm interface {
	online.Algorithm
	online.StateCodec
}

// newAlgorithm builds a tenant's algorithm; rand tenants draw from seed.
type newAlgorithm func(space metric.Space, costs cost.Model, seed int64) algorithm

// factory returns the configured algorithm's constructor.
func (c Config) factory() (newAlgorithm, error) {
	switch c.Algorithm {
	case "", "pd":
		return func(space metric.Space, costs cost.Model, _ int64) algorithm {
			return core.NewPDOMFLP(space, costs, c.Options)
		}, nil
	case "rand":
		return func(space metric.Space, costs cost.Model, seed int64) algorithm {
			return core.NewRandOMFLP(space, costs, c.Options, rand.New(rand.NewSource(seed)))
		}, nil
	default:
		return nil, fmt.Errorf("engine: unknown algorithm %q (want pd or rand)", c.Algorithm)
	}
}

// Engine hosts tenants and serves their arrival streams. Create one with
// New, feed it via Serve / ReplayOps / ReplayTrace, inspect it via Snapshot
// and Metrics, and Close it when the stream ends. Serve may be called from
// many goroutines; it must not race with Close.
type Engine struct {
	cfg     Config
	factory newAlgorithm
	shards  []*shard
	start   time.Time
	logger  *slog.Logger

	// tracer decides which arrivals get per-stage records (nil = tracing
	// off); errRing remembers admission rejections (unknown tenant, bad
	// demands), which never reach a shard ring.
	tracer  *obs.Tracer
	errRing *obs.Flight

	mu        sync.Mutex
	tenants   map[string]*tenant
	loads     []int // tenants assigned per shard (least-load policy + metrics)
	passive   int   // registered passive tenants (Metrics.PassiveTenants)
	closed    bool
	lastAt    time.Time // previous Metrics call, for windowed rates
	lastSrvd  []int64   // served per shard at the previous Metrics call
	scrapeSeq int64     // Metrics calls so far (Metrics.Seq)
}

// tenant is one hosted OMFLP instance. Until register publishes it, its
// mutable state is owned by the goroutine that built it (restore and inject
// serve its tail there); after, by its shard's goroutine: serve and
// snapshots both execute there.
//
// A passive tenant (a follower copy) has no algorithm instance: alg is nil,
// and it admits, counts and records each arrival in its tail. The first
// time something needs its state — a snapshot, its tail reaching the seal
// bound, a checkpoint that seals it — goLive builds the instance from its
// base and tail, as a restore would, and it stays live from then on.
type tenant struct {
	id       string
	eng      *Engine
	shard    *shard
	shardIdx int // index of shard in Engine.shards (load accounting)
	space    metric.Space
	costs    cost.Model
	universe commodity.Set // Full(|S|), for admission-time demand validation
	alg      algorithm     // nil while passive
	// passive mirrors alg == nil for Metrics.PassiveTenants; guarded by
	// eng.mu once the tenant is registered.
	passive bool

	served       int
	construction float64
	assignment   float64
	facCursor    int // facilities already priced into construction

	// Stream-position accounting for idempotent, position-keyed ingestion
	// (ServeBatchAt): admitted counts arrivals accepted into the mailbox —
	// it leads served by the queue depth and equals it once drained.
	// admitMu serializes position-checked admissions so concurrent retries
	// of the same position cannot both pass the dedup check. Only the
	// position-keyed path takes it; plain Serve/ServeBatch stay lock-free
	// (mixing keyed and unkeyed senders on one tenant is unsupported, as is
	// any multi-writer tenant — per-tenant order is the determinism
	// contract).
	admitMu  sync.Mutex
	admitted atomic.Int64

	// record + history support Checkpoint: the served arrival tail,
	// appended on the shard goroutine, replayable on restore. origin is
	// the serializable (matrix metric, size table) description of the
	// tenant's substrate — provided by op-stream creation, or synthesized
	// lazily at checkpoint time for API-created tenants.
	record  bool
	history []instance.Request
	origin  *TenantOrigin

	// Checkpoint base: the algorithm state marshaled at the last seal,
	// with the serve counters frozen at that moment. history holds only
	// the arrivals served since. sealEvery caps the tail (0 = never seal);
	// sealBroken latches a failed seal so the serve path does not retry
	// the marshal on every arrival. All owned by the shard goroutine.
	sealEvery        int
	sealBroken       bool
	baseState        []byte
	baseServed       int
	baseConstruction float64
	baseAssignment   float64
}

// seal re-bases the tenant: its algorithm state becomes the new checkpoint
// base and the arrival tail resets. Must run on the goroutine that owns the
// tenant.
func (t *tenant) seal() error {
	data, err := t.alg.MarshalState()
	if err != nil {
		return fmt.Errorf("engine: tenant %q: %v", t.id, err)
	}
	t.baseState = data
	t.baseServed = t.served
	t.baseConstruction = t.construction
	t.baseAssignment = t.assignment
	t.history = t.history[:0]
	return nil
}

// serve processes one arrival: the algorithm step, which a passive tenant
// skips, then the record step. rec, when non-nil, gets its serve-stage
// stamp closed right after the algorithm's Serve call, so post-serve
// bookkeeping (cost accounting, seal-triggered state marshals, a passive
// tenant's build) lands in the ack stage.
func (t *tenant) serve(r instance.Request, rec *obs.OpRecord) {
	if t.alg != nil {
		t.step(r, rec)
	} else if rec != nil {
		rec.MarkServed()
	}
	t.recordArrival(r)
}

// step is the algorithm step. The cost accounting stays incremental:
// facilities only open and assignments never change retroactively, so the
// deltas are exact.
func (t *tenant) step(r instance.Request, rec *obs.OpRecord) {
	t.alg.Serve(r)
	if rec != nil {
		rec.MarkServed()
	}
	sol := t.alg.Solution()
	for _, f := range sol.Facilities[t.facCursor:] {
		t.construction += t.costs.Cost(f.Point, f.Config)
	}
	t.facCursor = len(sol.Facilities)
	for _, fi := range sol.Assign[len(sol.Assign)-1] {
		t.assignment += t.space.Distance(r.Point, sol.Facilities[fi].Point)
	}
}

// recordArrival is the record step: it counts the arrival and keeps the
// tail. A passive tenant always appends, since the tail is its state, and
// goes live once the tail reaches the seal bound; a live tenant appends
// only when recording, and re-bases at SealEvery.
func (t *tenant) recordArrival(r instance.Request) {
	t.served++
	if t.alg == nil {
		t.history = append(t.history, r)
		if len(t.history) >= t.passiveBound() {
			t.goLive()
		}
		return
	}
	if !t.record {
		return
	}
	t.history = append(t.history, r)
	if t.sealEvery > 0 && !t.sealBroken && len(t.history) >= t.sealEvery {
		// Re-base so the tail never exceeds SealEvery. A failed
		// marshal (algorithm without state support) latches: the
		// tail then grows unbounded and checkpoints fall back to
		// full-replay restores.
		if err := t.seal(); err != nil {
			t.sealBroken = true
			t.eng.logger.Warn("seal failed; tail now unbounded",
				"tenant", t.id, "served", t.served, "err", err)
		}
	}
}

// passiveBound is the tail length at which a passive tenant goes live: its
// seal bound, or DefaultSealEvery on an engine that does not seal.
func (t *tenant) passiveBound() int {
	if t.sealEvery > 0 {
		return t.sealEvery
	}
	return DefaultSealEvery
}

// goLive builds a passive tenant's algorithm instance the way a restore
// rebuilds a tenant: loadBase installs its base state and serveTail serves
// its tail again, now with the algorithm step, so a recording tenant seals
// at the arrival a live twin sealed at. Must run on the goroutine that owns
// the tenant.
func (t *tenant) goLive() {
	if err := t.loadBase(); err != nil {
		// buildTenant checked this base on its way in, and the state
		// codecs are deterministic.
		panic(fmt.Sprintf("engine: tenant %q: checked base state does not load: %v", t.id, err))
	}
	t.serveTail()
	e := t.eng
	e.mu.Lock()
	if e.tenants[t.id] == t {
		e.passive--
	}
	t.passive = false
	e.mu.Unlock()
}

// serveTail serves the tail through serve on the instance loadBase has
// just built, so each arrival passes the record step again: a recording
// tenant keeps its tail and re-bases wherever it reaches SealEvery, a
// non-recording one drops it.
func (t *tenant) serveTail() {
	tail := t.history
	t.history = tail[:0] // each append overwrites an arrival already served
	for _, r := range tail {
		t.serve(r, nil)
	}
	if !t.record {
		t.history = nil
	}
}

// shardOp is one mailbox entry: a batch of arrivals for one tenant (a
// single arrival is a batch of one), or a control closure (snapshot, drain
// barrier) to run on the shard goroutine.
type shardOp struct {
	tn   *tenant
	fn   func()
	done chan<- struct{}
	// batch: the shard serves every item in order, then calls onDone (when
	// set) with the served count and per-item serve durations — populated
	// only when wantNs is set, nil otherwise. Batching amortizes the
	// mailbox channel hop across items; everything else (per-item latency
	// histogram, trace publishing, per-tenant order) is identical to
	// item-at-a-time serving.
	batch  []BatchItem
	onDone func(served int, servedNs []int64)
	wantNs bool
	// one carries a single arrival (ServeTraced) with batch nil, so the
	// shard serves it as a batch of one without a slice allocated per
	// arrival.
	one BatchItem
}

// BatchItem is one arrival inside a ServeBatch call.
type BatchItem struct {
	Req instance.Request
	// Rec is the item's trace context; nil for the sampled-out majority.
	Rec *obs.OpRecord
}

type shard struct {
	idx  int
	ops  chan shardOp
	done chan struct{}
	hist obs.Hist // times the items runBatch serves
	// served counts the arrivals of the shard's tenants: the items runBatch
	// served and the tails Restore took. It sits after hist, off the cache
	// line of ops, which every admission reads.
	served atomic.Int64
	// rec aggregates traced ops (stage histograms + flight ring); nil when
	// tracing is off, in which case every item's Rec is nil too.
	rec *obs.Recorder
}

func (s *shard) run() {
	defer close(s.done)
	for op := range s.ops {
		if op.fn != nil {
			op.fn()
			close(op.done)
			continue
		}
		items := op.batch
		if items == nil {
			items = []BatchItem{op.one}
		}
		s.runBatch(op, items)
	}
}

// runBatch serves one batched mailbox op item by item, timing each in the
// latency histogram, and counts the batch served once every item's trace
// record is published, so a scrape that counts an arrival served also
// finds its record.
func (s *shard) runBatch(op shardOp, items []BatchItem) {
	var servedNs []int64
	if op.wantNs {
		servedNs = make([]int64, len(items))
	}
	for i := range items {
		it := &items[i]
		if it.Rec != nil {
			it.Rec.MarkDequeued()
		}
		start := time.Now()
		op.tn.serve(it.Req, it.Rec)
		d := time.Since(start)
		if it.Rec != nil && s.rec != nil {
			s.rec.Publish(it.Rec, s.idx, "")
		}
		s.hist.Record(d)
		if servedNs != nil {
			servedNs[i] = int64(d)
		}
	}
	s.served.Add(int64(len(items)))
	if op.onDone != nil {
		op.onDone(len(items), servedNs)
	}
}

// New starts an engine with cfg.Shards serving goroutines. New panics on an
// unknown algorithm name (a configuration error, not a runtime condition);
// use Config.Validate via NewChecked if the name is user input.
func New(cfg Config) *Engine {
	e, err := NewChecked(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// NewChecked is New with the configuration error returned instead of a
// panic — for CLI front ends where the algorithm name is user input.
func NewChecked(cfg Config) (*Engine, error) {
	f, err := cfg.factory()
	if err != nil {
		return nil, err
	}
	switch cfg.ShardPolicy {
	case "", PolicyHash, PolicyLeastLoad:
	default:
		return nil, fmt.Errorf("engine: unknown shard policy %q (want %s or %s)",
			cfg.ShardPolicy, PolicyHash, PolicyLeastLoad)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Mailbox <= 0 {
		cfg.Mailbox = 256
	}
	switch {
	case cfg.SealEvery == 0:
		cfg.SealEvery = DefaultSealEvery
	case cfg.SealEvery < 0:
		cfg.SealEvery = 0 // sealing disabled
	}
	if cfg.FlightRecords <= 0 {
		cfg.FlightRecords = DefaultFlightRecords
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	e := &Engine{
		cfg:      cfg,
		factory:  f,
		shards:   make([]*shard, cfg.Shards),
		start:    time.Now(),
		logger:   logger,
		tracer:   obs.NewTracer(cfg.TraceSample),
		tenants:  map[string]*tenant{},
		loads:    make([]int, cfg.Shards),
		lastSrvd: make([]int64, cfg.Shards),
	}
	if e.tracer.Enabled() {
		e.errRing = obs.NewFlight(cfg.FlightRecords)
	}
	e.lastAt = e.start
	for i := range e.shards {
		s := &shard{idx: i, ops: make(chan shardOp, cfg.Mailbox), done: make(chan struct{})}
		if e.tracer.Enabled() {
			s.rec = obs.NewRecorder(cfg.FlightRecords)
		}
		e.shards[i] = s
		go s.run()
	}
	return e, nil
}

// Tracer exposes the engine's sampling decisions to network front ends: the
// decode site calls Sample() to decide whether an arrival gets a trace
// record. nil (tracing off) is a valid, inert tracer.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// shardIndexFor picks the shard for a new tenant. Must run under e.mu (it
// reads and updates the per-shard load counts for PolicyLeastLoad).
func (e *Engine) shardIndexFor(id string) int {
	if e.cfg.ShardPolicy == PolicyLeastLoad {
		best := 0
		for i, l := range e.loads {
			if l < e.loads[best] {
				best = i
			}
		}
		return best
	}
	h := fnv.New32a()
	h.Write([]byte(id))
	return int(h.Sum32()) % len(e.shards)
}

// CreateTenant registers a new tenant serving requests on the given space
// and cost model, whose universe may not exceed MaxUniverse. The tenant's
// algorithm instance is constructed here with a name-derived seed; arrivals
// may be served as soon as CreateTenant returns.
func (e *Engine) CreateTenant(id string, space metric.Space, costs cost.Model) error {
	return e.createTenant(id, space, costs, nil, false)
}

// createTenant is CreateTenant with an optional serializable origin (known
// when the tenant arrives through the op protocol). A passive tenant gets
// no algorithm instance until something needs its state.
func (e *Engine) createTenant(id string, space metric.Space, costs cost.Model, origin *TenantOrigin, passive bool) error {
	t, err := e.newTenant(id, space, costs, origin)
	if err != nil {
		return err
	}
	if passive {
		t.passive = true
	} else if err := t.loadBase(); err != nil {
		return err
	}
	return e.register(t)
}

// newTenant constructs a tenant without an algorithm instance (loadBase
// builds one) and without registering it: until register publishes it, the
// caller owns it outright.
func (e *Engine) newTenant(id string, space metric.Space, costs cost.Model, origin *TenantOrigin) (*tenant, error) {
	if id == "" {
		return nil, fmt.Errorf("engine: tenant name must be non-empty")
	}
	if space == nil || costs == nil {
		return nil, fmt.Errorf("engine: tenant %q needs a space and a cost model", id)
	}
	if u := costs.Universe(); u > MaxUniverse {
		return nil, fmt.Errorf("engine: tenant %q: universe %d above MaxUniverse %d", id, u, MaxUniverse)
	}
	return &tenant{
		id:        id,
		eng:       e,
		space:     space,
		costs:     costs,
		universe:  commodity.Full(costs.Universe()),
		record:    e.cfg.RecordArrivals,
		sealEvery: e.cfg.SealEvery,
		origin:    origin,
	}, nil
}

// register pins constructed tenants to shards in order and publishes them,
// all or none: a duplicate name unpublishes those placed before it.
// Arrivals may be served as soon as register returns.
func (e *Engine) register(ts ...*tenant) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	for i, t := range ts {
		if _, dup := e.tenants[t.id]; dup {
			for _, u := range ts[:i] {
				delete(e.tenants, u.id)
				e.count(u, -1)
			}
			return fmt.Errorf("engine: tenant %q: %w", t.id, ErrDuplicateTenant)
		}
		idx := e.shardIndexFor(t.id)
		t.shard, t.shardIdx = e.shards[idx], idx
		e.count(t, 1)
		e.tenants[t.id] = t
	}
	return nil
}

// count adds a tenant entering the tenant map (delta 1) to its shard's load
// and the passive count, or takes one leaving it (delta -1) out. Must run
// under e.mu.
func (e *Engine) count(t *tenant, delta int) {
	e.loads[t.shardIdx] += delta
	if t.passive {
		e.passive += delta
	}
}

func (e *Engine) tenant(id string) (*tenant, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	t, ok := e.tenants[id]
	if !ok {
		return nil, fmt.Errorf("engine: tenant %q: %w", id, ErrUnknownTenant)
	}
	return t, nil
}

// Serve enqueues one arrival for a tenant. It blocks while the tenant's
// shard mailbox is full (backpressure) and returns once the arrival is
// admitted — not necessarily served; Drain waits for the latter.
func (e *Engine) Serve(tenantID string, r instance.Request) error {
	return e.ServeTraced(tenantID, r, nil)
}

// ServeTraced is Serve carrying an optional trace context: rec (from the
// decode site, already MarkDecoded) rides the mailbox to the shard, which
// closes its stage stamps and publishes it to the flight recorder. A nil
// rec is the sampled-out fast path — identical to Serve. Admission
// failures land in the engine's error ring so a flight dump shows rejected
// ops alongside served ones.
func (e *Engine) ServeTraced(tenantID string, r instance.Request, rec *obs.OpRecord) error {
	t, err := e.tenant(tenantID)
	if err != nil {
		e.recordReject(rec, tenantID, err)
		return err
	}
	if err := t.validate(r); err != nil {
		e.recordReject(rec, tenantID, err)
		return err
	}
	t.shard.ops <- shardOp{tn: t, one: BatchItem{Req: r, Rec: rec}}
	t.admitted.Add(1)
	if rec != nil {
		rec.MarkAdmitted()
	}
	return nil
}

// MaxUniverse bounds a tenant's commodity universe |S|: create, restore and
// inject refuse a larger one, and Engine.NewRequest refuses a demand id at
// or above it. It sits far above every universe the repo's workloads create
// (the largest is 32), and it keeps a malformed id from growing a demand
// bitset word by word toward the id.
const MaxUniverse = 1 << 16

// NewRequest builds the request for one arrival for tenantID whose point
// and demand ids came from outside the program: the HTTP, TCP and
// op-stream arrive paths all build theirs here (restored tails are checked
// by validateRecord). It refuses a negative id and any id at or above
// MaxUniverse before the demand set exists (commodity.New panics on the
// first and allocates up to the id on the second), and records the refusal
// in the error ring as validate's refusals are. validate then checks the
// request against the tenant's own space and universe.
func (e *Engine) NewRequest(tenantID string, point int, demands []int, rec *obs.OpRecord) (instance.Request, error) {
	for _, id := range demands {
		if id < 0 || id >= MaxUniverse {
			err := fmt.Errorf("engine: tenant %q: demand id %d outside [0, %d)", tenantID, id, MaxUniverse)
			e.recordReject(rec, tenantID, err)
			return instance.Request{}, err
		}
	}
	return instance.Request{Point: point, Demands: commodity.New(demands...)}, nil
}

// validate checks one request against the tenant's admission rules — the
// shared precondition of ServeTraced and ServeBatchAt. Immutable tenant fields
// only, so it is safe off the shard goroutine.
func (t *tenant) validate(r instance.Request) error {
	if r.Point < 0 || r.Point >= t.space.Len() {
		return fmt.Errorf("engine: tenant %q: point %d outside space of %d points", t.id, r.Point, t.space.Len())
	}
	if r.Demands.IsEmpty() {
		return fmt.Errorf("engine: tenant %q: request demands nothing", t.id)
	}
	if !r.Demands.SubsetOf(t.universe) {
		return fmt.Errorf("engine: tenant %q: demands %v outside universe of %d",
			t.id, r.Demands, t.universe.Len())
	}
	return nil
}

// ServeBatch enqueues a batch of arrivals for one tenant as a single mailbox
// op, amortizing the tenant lookup and the channel hop across the batch —
// the ingestion hot path of the binary wire protocol and the HTTP batch
// endpoint. Items are served in order on the tenant's shard, exactly as if
// each had been passed to Serve individually. It is ServeBatchAt with no
// stream position.
func (e *Engine) ServeBatch(tenantID string, items []BatchItem, wantNs bool, onDone func(served int, servedNs []int64)) (int, error) {
	n, _, err := e.ServeBatchAt(tenantID, -1, items, wantNs, onDone)
	return n, err
}

// ServeBatchAt is ServeBatch keyed to a stream position: start names the
// index (in the tenant's arrival stream) of the batch's first item. It is
// the idempotency primitive under the cluster's retry discipline — a
// replayed batch can never double-serve:
//
//   - start == admitted: the normal case; the batch is enqueued whole.
//   - start < admitted: the leading admitted-start items were already
//     accepted by an earlier attempt and are skipped; only the unseen
//     suffix is enqueued. The returned accepted count still includes the
//     skipped prefix (it is "reflected in the stream"), with deduped
//     reporting how many were skipped.
//   - start > admitted: refused with ErrArrivalGap — accepting would skip
//     arrivals the sender believes were delivered.
//
// start < 0 bypasses position checking entirely: the batch is enqueued
// from its first item.
//
// Validation is per item, in order: on the first invalid item the valid
// prefix is still enqueued (arrivals are irrevocable, matching the HTTP
// batch endpoint's "accepted" semantics) and the accepted count includes
// it alongside the error. onDone, when non-nil, runs on the shard goroutine
// after the newly enqueued items have been served, receiving their count
// and per-item serve durations (populated when wantNs is set, nil
// otherwise). The count is passed explicitly because completion can race
// ServeBatchAt's own return — the callback must not depend on the caller
// having seen the accepted count. An enqueue of no new items (an invalid
// first item, an empty or wholly deduplicated batch) never calls onDone.
func (e *Engine) ServeBatchAt(tenantID string, start int64, items []BatchItem, wantNs bool, onDone func(served int, servedNs []int64)) (accepted, deduped int, err error) {
	t, err := e.tenant(tenantID)
	if err != nil {
		for i := range items {
			e.recordReject(items[i].Rec, tenantID, err)
		}
		return 0, 0, err
	}
	skip := 0
	if start >= 0 {
		t.admitMu.Lock()
		defer t.admitMu.Unlock()
		at := t.admitted.Load()
		if start > at {
			return 0, 0, fmt.Errorf("engine: tenant %q: batch starts at %d, admitted %d: %w", tenantID, start, at, ErrArrivalGap)
		}
		skip = int(at - start)
		if skip >= len(items) {
			return len(items), len(items), nil
		}
		items = items[skip:]
	}
	n := len(items)
	for i := range items {
		if verr := t.validate(items[i].Req); verr != nil {
			e.recordReject(items[i].Rec, tenantID, verr)
			n, err = i, verr
			break
		}
	}
	if n == 0 {
		return skip, skip, err
	}
	t.shard.ops <- shardOp{tn: t, batch: items[:n], onDone: onDone, wantNs: wantNs}
	t.admitted.Add(int64(n))
	for i := 0; i < n; i++ {
		if rec := items[i].Rec; rec != nil {
			rec.MarkAdmitted()
		}
	}
	return skip + n, skip, err
}

// AdmittedCount returns the tenant's stream position: arrivals admitted to
// its mailbox (served plus queued). It is the position ServeBatchAt checks
// against.
func (e *Engine) AdmittedCount(tenantID string) (int64, error) {
	t, err := e.tenant(tenantID)
	if err != nil {
		return 0, err
	}
	return t.admitted.Load(), nil
}

// recordReject drops an admission failure into the error ring (tracing on
// only). Rejections are rare, so they are recorded whether or not the op
// itself was sampled; unsampled rejects get a minimal record.
func (e *Engine) recordReject(rec *obs.OpRecord, tenantID string, err error) {
	if e.errRing == nil {
		return
	}
	outcome := rejectOutcome(err)
	if rec != nil {
		e.errRing.Put(rec.Reject(outcome))
		return
	}
	e.errRing.Put(&obs.FlightRecord{
		Tenant:       tenantID,
		WallUnixNano: time.Now().UnixNano(),
		Shard:        -1,
		Outcome:      outcome,
	})
}

// rejectOutcome classifies an admission error the way the TCP result codes
// do, so flight-record outcomes line up with what the client saw.
func rejectOutcome(err error) string {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return "unknown_tenant"
	case errors.Is(err, ErrDuplicateTenant):
		return "duplicate_tenant"
	case errors.Is(err, ErrClosed):
		return "unavailable"
	default:
		return "invalid_request"
	}
}

// control runs fn on the shard's goroutine, serialized with its arrival
// stream, and waits for it to finish.
func (s *shard) control(fn func()) {
	done := make(chan struct{})
	s.ops <- shardOp{fn: fn, done: done}
	<-done
}

// Drain blocks until every arrival admitted before the call has been served.
// On a closed engine it returns immediately (Close already drained).
func (e *Engine) Drain() {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return
	}
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.control(func() {})
		}(s)
	}
	wg.Wait()
}

// Close drains the engine and stops its shard goroutines. Serve and Snapshot
// fail after Close; Close is not safe to call concurrently with Serve.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	for _, s := range e.shards {
		close(s.ops)
	}
	for _, s := range e.shards {
		<-s.done
	}
}

// Snapshot returns a consistent snapshot of one tenant, taken on its shard's
// goroutine after every previously admitted arrival for it has been served.
func (e *Engine) Snapshot(tenantID string) (*TenantSnapshot, error) {
	return e.snapshotOne(tenantID, false)
}

// SnapshotCompact is Snapshot without the per-arrival assignment history —
// facilities, served count and cost accounting only. For tenants with
// millions of served arrivals the compact form is the one to poll.
func (e *Engine) SnapshotCompact(tenantID string) (*TenantSnapshot, error) {
	return e.snapshotOne(tenantID, true)
}

func (e *Engine) snapshotOne(tenantID string, compact bool) (*TenantSnapshot, error) {
	t, err := e.tenant(tenantID)
	if err != nil {
		return nil, err
	}
	var snap *TenantSnapshot
	t.shard.control(func() { snap = t.snapshot(compact) })
	return snap, nil
}

// SnapshotAll drains the engine and returns every tenant's snapshot sorted
// by tenant name — the deterministic artifact the serve CLI emits: fixed
// seed + fixed trace yield byte-identical JSON for every shard count.
func (e *Engine) SnapshotAll() ([]*TenantSnapshot, error) {
	return e.snapshotAll(false)
}

// SnapshotAllCompact is SnapshotAll with assignment histories omitted.
func (e *Engine) SnapshotAllCompact() ([]*TenantSnapshot, error) {
	return e.snapshotAll(true)
}

func (e *Engine) snapshotAll(compact bool) ([]*TenantSnapshot, error) {
	tns, err := e.sortedTenants()
	if err != nil {
		return nil, err
	}
	out := make([]*TenantSnapshot, len(tns))
	onShards(tns, func(i int, t *tenant) { out[i] = t.snapshot(compact) })
	return out, nil
}

// sortedTenants returns the registered tenants sorted by name.
func (e *Engine) sortedTenants() ([]*tenant, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	tns := make([]*tenant, 0, len(e.tenants))
	for _, t := range e.tenants { //omflp:orderinvariant — collected tenants are sorted by their unique id on the next line
		tns = append(tns, t)
	}
	e.mu.Unlock()
	sort.Slice(tns, func(i, j int) bool { return tns[i].id < tns[j].id })
	return tns, nil
}

// onShards runs fn(i, tns[i]) for every tenant on its shard goroutine,
// serialized with its arrival stream: one control op per shard, the shards
// in parallel. fn may write only what index i owns.
func onShards(tns []*tenant, fn func(i int, t *tenant)) {
	byShard := map[*shard][]int{}
	for i, t := range tns {
		byShard[t.shard] = append(byShard[t.shard], i)
	}
	var wg sync.WaitGroup
	for s, idx := range byShard { //omflp:orderinvariant — shards run concurrently and write disjoint indices; iteration order is immaterial
		wg.Add(1)
		go func(s *shard, idx []int) {
			defer wg.Done()
			s.control(func() {
				for _, i := range idx {
					fn(i, tns[i])
				}
			})
		}(s, idx)
	}
	wg.Wait()
}

// TenantServed is one tenant's stream position: the served and admitted
// counts ServedCount and AdmittedCount report.
type TenantServed struct {
	Tenant   string `json:"tenant"`
	Served   int    `json:"served"`
	Admitted int64  `json:"admitted"`
}

// ServedAll returns every tenant's stream position sorted by tenant name,
// each read on its shard goroutine as ServedCount reads it, with one control
// op per shard. Unlike SnapshotAll it builds no passive tenant.
func (e *Engine) ServedAll() ([]TenantServed, error) {
	tns, err := e.sortedTenants()
	if err != nil {
		return nil, err
	}
	out := make([]TenantServed, len(tns))
	onShards(tns, func(i int, t *tenant) {
		out[i] = TenantServed{Tenant: t.id, Served: t.served, Admitted: t.admitted.Load()}
	})
	return out, nil
}

// TenantSnapshot is a consistent cut of one tenant's state: who it is, what
// it has served, the facilities it opened, how requests are connected, and
// the cost-so-far against the dual lower bound (PD tenants).
type TenantSnapshot struct {
	Tenant    string `json:"tenant"`
	Algorithm string `json:"algorithm"`
	Served    int    `json:"served"`
	// Facilities lists open facilities in opening order.
	Facilities []SnapshotFacility `json:"facilities"`
	// Assignments[i] lists the facility indices arrival i connects to.
	// Full snapshots always carry the field ("[]" for a tenant that has
	// served nothing); compact snapshots (SnapshotCompact) set it to
	// null — the history is deliberately absent, not empty.
	Assignments [][]int `json:"assignments"`
	// Cost = ConstructionCost + AssignmentCost, maintained incrementally.
	ConstructionCost float64 `json:"construction_cost"`
	AssignmentCost   float64 `json:"assignment_cost"`
	Cost             float64 `json:"cost"`
	// DualTotal is PD-OMFLP's dual objective Σ a_re: cost ≤ 3·DualTotal
	// (Corollary 8), so DualTotal is a certified lower bound on a third of
	// any achievable cost for the served prefix. Zero for rand tenants.
	DualTotal float64 `json:"dual_total,omitempty"`
}

// SnapshotFacility is one open facility in a snapshot.
type SnapshotFacility struct {
	Point       int   `json:"point"`
	Commodities []int `json:"commodities"`
}

// snapshot must run on the tenant's shard goroutine. A passive tenant goes
// live first. With compact set the per-arrival assignment history is
// skipped entirely (never copied) and the dual total is read from PD's
// running sum, so the cost of a compact snapshot is O(facilities)
// regardless of stream length.
func (t *tenant) snapshot(compact bool) *TenantSnapshot {
	if t.alg == nil {
		t.goLive()
	}
	sol := t.alg.Solution()
	snap := &TenantSnapshot{
		Tenant:           t.id,
		Algorithm:        t.alg.Name(),
		Served:           t.served,
		Facilities:       make([]SnapshotFacility, len(sol.Facilities)),
		ConstructionCost: t.construction,
		AssignmentCost:   t.assignment,
		Cost:             t.construction + t.assignment,
	}
	for i, f := range sol.Facilities {
		snap.Facilities[i] = SnapshotFacility{Point: f.Point, Commodities: f.Config.IDs()}
	}
	if !compact {
		snap.Assignments = make([][]int, len(sol.Assign))
		for i, links := range sol.Assign {
			snap.Assignments[i] = append([]int{}, links...)
		}
	}
	if d, ok := t.alg.(interface{ DualTotal() float64 }); ok {
		snap.DualTotal = d.DualTotal()
	}
	return snap
}

// TenantCount returns the number of registered tenants.
func (e *Engine) TenantCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tenants)
}

// ServedCount returns how many arrivals the tenant has served. The count is
// read on the tenant's shard goroutine after every previously admitted
// arrival for it has drained, so a caller that stops sending and then polls
// ServedCount observes the final, settled total — the synchronization
// primitive behind cluster tenant handoff (quiesce means "served reached the
// count the router forwarded").
func (e *Engine) ServedCount(id string) (int, error) {
	t, err := e.tenant(id)
	if err != nil {
		return 0, err
	}
	var n int
	t.shard.control(func() { n = t.served })
	return n, nil
}
