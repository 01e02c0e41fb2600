// Package cluster turns a fleet of single-node omflp servers into one
// serving surface. A Router fronts N worker nodes (each an ordinary
// internal/server instance) with the same HTTP API and length-prefixed TCP
// op protocol the nodes themselves speak, so clients and load generators
// run unchanged against a cluster.
//
// # Topology and routing
//
// Each tenant lives on exactly one node; the router owns the tenant→node
// map. Creates place the tenant on the healthy node hosting the fewest
// tenants, and arrivals are forwarded to the owner two ways:
// framed-TCP arrivals, binary or JSON, travel as binary frames over the
// session's own TCP connection to the node (routeBinary; a JSON arrive is
// re-encoded first), and HTTP arrivals as one keyed, retried JSON POST per
// batch (sendArrivals). Because a tenant's algorithmic randomness derives
// from workload.NamedSeed(engine seed, tenant name), every node must run
// the same algorithm and seed; the router verifies this at admission and
// refuses mismatched nodes. Under that invariant a tenant's snapshot is
// byte-identical wherever it is served, which is what makes migration and
// recovery testable against single-node goldens.
//
// # The arrival ledger
//
// For every route the router counts arrivals it has forwarded to the owner
// (route.count). The counter is maintained under the routing table's read
// lock, and forwarding I/O happens under that same read lock — so taking
// the write lock is a barrier: once held, no forward is in flight and the
// ledger exactly names the number of arrivals the owner has admitted for
// that tenant. Migration's quiesce step is built on this: the coordinator
// reads the ledger under the write lock and polls the owner until it has
// admitted that many arrivals before capturing state.
//
// # Moving tenants
//
// Migrate moves one tenant live with no arrival loss and no reordering,
// and a follower reseed copies one, by the same move: quiesce (mark the
// route moving, so new arrivals buffer in the router; read the exact
// ledger cut; flush in-flight frames to the owner and the follower; poll
// the owner until it has admitted the cut — an owner whose count differs
// from it either way has drifted from the ledger, so its count becomes
// the ledger and the cut and the follower is dropped, as is a follower
// that does not stand at the cut), capture (extract on the source, which
// takes every arrival it admitted, then checkpoint the source so a
// restart does not resurrect the tenant; a reseed exports instead),
// install (inject on the target and checkpoint it; a reseed first clears
// any stale replica, then makes the new one the route's follower), drain
// (replay the buffer, each batch to the owner leg, whose admitted count
// advances the ledger, then to the route's follower, whose failure only
// drops the follower; both legs go through sendArrivals keyed at the
// ledger, so a transient failure is retried, never dropped or served
// twice) and settle (once the buffer is observed empty under the write
// lock, flip the route or journal the new follower, naming the follower
// the route holds then). An owner quiesce cannot read, or a capture or
// install failure, aborts: the drain goes back to the source, whose state
// never left. Snapshots on the target are byte-identical to what the
// source would have produced.
//
// The captured state travels as a transfer: a one-tenant checkpoint
// document, in the binary format of a worker's engine.ckpt, that the
// router forwards as opaque bytes. Builds before the binary transfer moved
// JSON, so a move between such a build and a later one fails its install,
// reinjects on the source and aborts.
//
// # Failure model
//
// The router health-checks nodes and stops placing tenants on unreachable
// ones; a node is declared down only after Config.DownAfter consecutive
// probe failures, so one flapped probe does not trigger failover. With
// Config.Replicate off, a worker that dies takes its un-checkpointed tail
// with it — the same contract as a single node — and arrivals routed to it
// fail until it returns. When a restarted worker (restored from its
// checkpoint) rejoins, the router re-syncs the routes and ledgers for its
// tenants from the node's GET /v1/served, which builds none of its passive
// copies, and traffic resumes. A failed read fails the probe; a worker
// without that route does not rejoin.
//
// # Durable routes
//
// With Config.StateDir set, the router persists its routing table the same
// way workers persist tenants: a base snapshot (routes.ckpt.json, written
// atomically via tmp+rename) plus an append-only journal (routes.journal)
// of placement events — place, flip, drop, promote, follower. Ledger counts
// are folded in compactly on every health tick rather than per arrival. A
// restarted router loads the base, replays the journal (a torn final line
// is the expected kill -9 artifact and is ignored), and is routing again in
// O(1) — it does not re-read the nodes. Restored ledgers may trail the
// truth by at most one health tick; each route is marked unsynced and
// lazily reconciled against its owner before any operation that needs the
// exact ledger (migration quiesce). Only the active router writes the
// journal: a standby follows it read-only and workers never touch it.
//
// # Tenant replication
//
// With Config.Replicate on, every tenant is placed on an owner and a
// follower node: live on the owner, passive on the follower. Because
// tenant state is a pure function of (algorithm, seed, arrival stream),
// replication is dual-write: the router forwards every arrival to both
// copies, and an arrival is acked only after both admitted it. The passive
// copy records its arrivals without serving them and builds its state from
// its base and tail when a snapshot reads it or its tail reaches the seal
// bound, after which it serves as a live copy; its snapshots are then
// byte-identical to the owner's. When the owner node dies, the router
// promotes the route to the follower — epoch++, ledger unchanged, no call
// to the worker — losing at most the in-flight (unacked) window, and
// reseeds a new passive follower from the survivor's exported state. Route
// epochs guard against ghosts: once a route has been promoted, a stale old
// owner rejoining can never win the route back via re-sync.
//
// # Router failover
//
// A second router started with Config.StandbyOf follows the primary's
// route journal over the framed TCP protocol (a "follow" op streams the
// base doc and then every journal event live). The follow connection
// doubles as the health probe: after Config.FailoverAfter consecutive
// redial failures the standby promotes itself — re-probes the nodes,
// re-syncs routes as a consistency check, and goes active. Until then it
// answers routing verbs with 503 and reports role "standby" on /healthz.
// Clients fail over by retrying against a list of router addresses.
//
// # Fault injection
//
// All of the above is testable deterministically: a faults.Injector
// (Config.Faults) hooks the router's upstream dials, connection writes,
// HTTP transport, and health probes with seed-driven connection resets,
// stalls, partial frames, dial failures, and probe flaps. HTTP forwards and
// every drain leg send through one function, sendArrivals, which wraps the
// node call in a jittered, budgeted retry policy, and those arrivals carry
// idempotency keys (stream positions) end to end, so a replayed batch is
// trimmed by the owner rather than double-served.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config configures a Router.
type Config struct {
	// HTTPAddr is the router's HTTP listen address (required).
	HTTPAddr string
	// TCPAddr is the router's framed-op listen address ("" disables TCP).
	TCPAddr string
	// Nodes lists worker HTTP addresses ("host:port"). At least one.
	Nodes []string
	// Placement names the tenant-placement policy. "leastload", the only
	// one, places on the node hosting the fewest tenants; "" means it.
	Placement string
	// HealthEvery is the node health-probe period (default 1s).
	HealthEvery time.Duration
	// TraceSample samples 1-in-N framed arrivals forwarded over TCP for op
	// tracing: the router stamps a trace id on the upstream frame and the
	// worker records the op under that id, so a cluster-wide flight dump
	// ties a forwarded arrival to the node that served it. Inbound frames
	// that already carry an id keep it. 0 disables router-side sampling
	// (worker-side sampling still applies).
	TraceSample int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the router's
	// HTTP listener.
	EnablePprof bool
	// StateDir is the router's durable-state directory. When set, the
	// routing table and per-route ledgers are persisted as a base snapshot
	// plus an append-only journal, and a restarted router restores them in
	// O(1) instead of re-reading the nodes. "" keeps routes in memory
	// only (the pre-durability behavior).
	StateDir string
	// StandbyOf names the primary router's framed-op TCP address. When set,
	// this router starts passive: it follows the primary's route journal
	// over TCP, answers routing verbs with 503, and promotes itself to
	// active after FailoverAfter consecutive connection failures.
	StandbyOf string
	// Replicate places every tenant on an owner and a follower node,
	// dual-writes arrivals to both, and promotes the follower when the
	// owner dies. Needs at least two nodes.
	Replicate bool
	// DownAfter is how many consecutive probe failures mark a node down
	// (default 1 — the pre-hardening behavior). Raise it to ride out probe
	// flaps without triggering failover.
	DownAfter int
	// FailoverAfter is how many consecutive follow-connection failures make
	// a standby promote itself (default 3). Only read when StandbyOf is
	// set.
	FailoverAfter int
	// Faults, when non-nil, injects deterministic failures into the
	// router's upstream dials, connection writes, HTTP transport, and
	// health probes. Testing and chaos drills only.
	Faults *faults.Injector
	// Logger receives structured router lifecycle events — placements,
	// node up/down/rejoin, migration phases (default: discard).
	Logger *slog.Logger
}

// Router is the cluster front: it owns the tenant→node routing table,
// proxies both protocols, coordinates migrations, and merges node metrics.
type Router struct {
	cfg    Config
	nodes  []*node
	logger *slog.Logger
	// tracer samples forwarded TCP arrivals (nil = off); see
	// Config.TraceSample.
	tracer *obs.Tracer

	// client is used for all node-side HTTP calls.
	client *http.Client

	// ident is the cluster identity (algorithm, seed) learned from the
	// first admitted node; every other node must match.
	identMu  sync.Mutex
	identSet bool
	ident    struct {
		algorithm string
		seed      int64
	}

	// mu guards routes. Forwarding I/O runs under RLock (see package doc:
	// the write lock is the quiesce barrier).
	mu     sync.RWMutex
	routes map[string]*route

	// rlog is the durable route log (memory-only when StateDir is "").
	// Every route mutation is journaled through it under r.mu, so the
	// journal order is the route-table mutation order; a standby's follow
	// stream is a subscription to it.
	rlog *routeLog
	// routesRestored counts routes recovered from the route log at New —
	// the restart-was-O(1) observable (/healthz reports it).
	routesRestored int

	// standby is true while this router is a passive follower of another
	// router's route journal (Config.StandbyOf). Routing verbs answer 503
	// until promotion flips it.
	standby atomic.Bool

	// upstreams registers every live session's node connections so the
	// migration coordinator can flush frames it did not write.
	upMu      sync.Mutex
	upstreams map[*upstream]struct{}

	// migMu serializes migrations — one tenant moves at a time.
	migMu      sync.Mutex
	migrations atomic.Int64

	// Hardening counters, surfaced via Metrics and /metrics.
	retries      atomic.Int64 // node calls retried after a transient error
	failovers    atomic.Int64 // node-down events that triggered promotions
	promotions   atomic.Int64 // routes flipped owner→follower
	replDegrades atomic.Int64 // followers dropped after replication errors

	// migFault, when non-nil, is consulted at each phase of a tenant move
	// (see checkMigFault) and fails the phase when it returns an error.
	// Fault-injection tests only; nil in production. The health loop's
	// reseeds read it, so a test sets it before Start.
	migFault func(phase string) error

	httpLn   net.Listener
	tcpLn    net.Listener
	httpSrv  *http.Server
	loops    sync.WaitGroup
	tcpConns sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	stop     chan struct{}
	stopOnce sync.Once
}

// node is the router's view of one worker.
type node struct {
	idx  int
	addr string // host:port as configured
	base string // http://host:port

	mu      sync.Mutex
	healthy bool
	info    server.NodeInfo
	// lastSeq/lastWall are the node's (Metrics.Seq, WallUnixNano) at the
	// previous cluster scrape; an unchanged pair marks the next report
	// stale (see metrics.go).
	lastSeq  int64
	lastWall int64
	// fails counts consecutive probe failures; the node is marked down only
	// at Config.DownAfter (health-loop goroutine only).
	fails int
	// everUp records that this router process has probed the node healthy
	// at least once. The first successful probe after a clean route-log
	// restore skips the re-sync (restart is O(1)); later
	// transitions (a node rejoining after downtime) still re-sync.
	everUp bool
}

func (n *node) tcp() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.info.TCPAddr
}

func (n *node) isHealthy() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.healthy
}

// route is one tenant's placement.
type route struct {
	node int
	// follower is the replica node's index, or -1 when the tenant is not
	// replicated (Config.Replicate off, or the follower was degraded after
	// a replication error). Guarded by Router.mu like node.
	follower int
	// epoch counts ownership changes (promotions). A route with epoch > 0
	// has been failed over at least once; the re-sync then refuses to
	// re-adopt any other claimant — a rejoining stale owner is a ghost.
	epoch int64
	// count is the arrival ledger: lifetime arrivals the routed node has
	// admitted for this tenant (bootstrap seeds it from the node's served
	// count). Incremented under Router.mu.RLock, read authoritatively
	// under WLock.
	count atomic.Int64
	// synced is false when count was restored from the route log (which
	// trails the truth by up to one health tick) and has not yet been
	// reconciled against the owner. Migration re-syncs a stale route
	// before quiescing on its ledger. Guarded by Router.mu.
	synced bool
	// mig is non-nil while the tenant is migrating; arrivals then buffer
	// in it instead of being forwarded.
	mig *migration
}

// New validates the config and builds a Router. Start brings it up.
func New(cfg Config) (*Router, error) {
	if cfg.HTTPAddr == "" {
		return nil, fmt.Errorf("cluster: config needs an HTTP listen address")
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: config needs at least one node")
	}
	switch cfg.Placement {
	case "", "leastload":
	default:
		return nil, fmt.Errorf("cluster: unknown placement policy %q", cfg.Placement)
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.DownAfter <= 0 {
		cfg.DownAfter = 1
	}
	if cfg.FailoverAfter <= 0 {
		cfg.FailoverAfter = 3
	}
	if cfg.Replicate && len(cfg.Nodes) < 2 {
		return nil, fmt.Errorf("cluster: replication needs at least two nodes, got %d", len(cfg.Nodes))
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	transport := http.DefaultTransport
	if cfg.Faults != nil {
		transport = cfg.Faults.Transport(transport)
	}
	r := &Router{
		cfg:       cfg,
		logger:    logger,
		tracer:    obs.NewTracer(cfg.TraceSample),
		client:    &http.Client{Timeout: 30 * time.Second, Transport: transport},
		routes:    make(map[string]*route),
		upstreams: make(map[*upstream]struct{}),
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	for i, addr := range cfg.Nodes {
		addr = strings.TrimPrefix(strings.TrimSpace(addr), "http://")
		if addr == "" {
			return nil, fmt.Errorf("cluster: node %d has an empty address", i)
		}
		if seen[addr] {
			return nil, fmt.Errorf("cluster: node address %s listed twice", addr)
		}
		seen[addr] = true
		r.nodes = append(r.nodes, &node{idx: i, addr: addr, base: "http://" + addr})
	}

	rl, err := openRouteLog(cfg.StateDir)
	if err != nil {
		return nil, fmt.Errorf("cluster: opening route log in %s: %v", cfg.StateDir, err)
	}
	r.rlog = rl
	if r.routesRestored = r.loadRoutes(); r.routesRestored > 0 {
		r.logger.Info("routes restored from route log",
			"routes", r.routesRestored, "dir", cfg.StateDir)
	}
	return r, nil
}

// loadRoutes sets the routing table from the route log's records: the
// named tenants' routes, or the whole table when none is named. Records
// are keyed by node address, so the router must be configured with the
// same node set; a record naming an address not in the config is dropped
// with a warning (the operator reshaped the cluster — those tenants will be
// re-adopted by the re-sync when their node is probed). Loaded routes
// are unsynced: the log's ledgers may trail the truth by up to one health
// tick. It returns the number of routes loaded.
func (r *Router) loadRoutes(tenants ...string) int {
	state, _ := r.rlog.snapshot(tenants...)
	byAddr := make(map[string]int, len(r.nodes))
	for _, n := range r.nodes {
		byAddr[n.addr] = n.idx
	}
	routes := make(map[string]*route, len(state))
	for tenant, rec := range state {
		idx, ok := byAddr[rec.Node]
		if !ok {
			r.logger.Warn("route names an unconfigured node, dropping",
				"tenant", tenant, "node", rec.Node)
			continue
		}
		rt := &route{node: idx, follower: -1, epoch: rec.Epoch}
		if rec.Follower != "" {
			if fidx, ok := byAddr[rec.Follower]; ok {
				rt.follower = fidx
			} else {
				r.logger.Warn("route names an unconfigured follower, degrading",
					"tenant", tenant, "follower", rec.Follower)
			}
		}
		rt.count.Store(rec.Count)
		routes[tenant] = rt
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(tenants) == 0 {
		r.routes = routes
	}
	for _, id := range tenants {
		if rt, ok := routes[id]; ok {
			r.routes[id] = rt
		} else {
			delete(r.routes, id)
		}
	}
	return len(routes)
}

// Start probes every node once (admitting the reachable ones and
// bootstrapping routes from their served counts), then opens the listeners
// and begins the health loop. At least one node must be reachable. A
// standby router (Config.StandbyOf) skips the probes and the health loop:
// it binds its listeners passive and follows the primary's route journal
// until promotion.
func (r *Router) Start() error {
	if r.cfg.StandbyOf != "" {
		r.standby.Store(true)
		if err := r.bindListeners(); err != nil {
			return err
		}
		r.loops.Add(1)
		go r.followLoop()
		r.logger.Info("router up (standby)",
			"http", r.HTTPAddr(), "tcp", r.TCPAddr(), "primary", r.cfg.StandbyOf)
		return nil
	}

	healthy := 0
	for _, n := range r.nodes {
		if err := r.probe(n); err != nil {
			r.logger.Warn("node not admitted at start", "node", n.addr, "err", err)
			continue
		}
		healthy++
	}
	if healthy == 0 {
		return fmt.Errorf("cluster: no node among %v is reachable", r.cfg.Nodes)
	}

	if err := r.bindListeners(); err != nil {
		return err
	}

	r.loops.Add(1)
	go r.healthLoop()
	r.logger.Info("router up",
		"http", r.HTTPAddr(), "tcp", r.TCPAddr(), "nodes", len(r.nodes),
		"healthy", healthy, "routes_restored", r.routesRestored)
	return nil
}

// bindListeners opens the HTTP (and optional TCP) listeners and starts
// their serving loops — shared by active start and standby start.
func (r *Router) bindListeners() error {
	httpLn, err := net.Listen("tcp", r.cfg.HTTPAddr)
	if err != nil {
		return fmt.Errorf("cluster: listening on %s: %v", r.cfg.HTTPAddr, err)
	}
	r.httpLn = httpLn
	r.httpSrv = server.NewHTTPServer(r.handler())
	r.loops.Add(1)
	go func() {
		defer r.loops.Done()
		r.httpSrv.Serve(httpLn) //nolint:errcheck // ErrServerClosed on shutdown
	}()

	if r.cfg.TCPAddr != "" {
		tcpLn, err := net.Listen("tcp", r.cfg.TCPAddr)
		if err != nil {
			httpLn.Close()
			return fmt.Errorf("cluster: listening on %s: %v", r.cfg.TCPAddr, err)
		}
		r.tcpLn = tcpLn
		r.loops.Add(1)
		go r.acceptLoop(tcpLn)
	}
	return nil
}

// HTTPAddr returns the bound HTTP address ("" before Start).
func (r *Router) HTTPAddr() string {
	if r.httpLn == nil {
		return ""
	}
	return r.httpLn.Addr().String()
}

// TCPAddr returns the bound framed-op address ("" when disabled).
func (r *Router) TCPAddr() string {
	if r.tcpLn == nil {
		return ""
	}
	return r.tcpLn.Addr().String()
}

// Shutdown stops the listeners, waits for in-flight sessions, and stops the
// health loop. Worker nodes are not touched — they outlive their router.
func (r *Router) Shutdown(timeout time.Duration) error {
	r.stopOnce.Do(func() { close(r.stop) })
	var err error
	if r.tcpLn != nil {
		r.tcpLn.Close()
	}
	done := make(chan struct{})
	go func() {
		r.tcpConns.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		err = fmt.Errorf("cluster: TCP sessions still open after %v", timeout)
		r.connMu.Lock()
		for c := range r.conns {
			c.Close()
		}
		r.connMu.Unlock()
	}
	if r.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		defer cancel()
		if serr := r.httpSrv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	r.loops.Wait()
	// Final rebase folds the latest in-memory ledgers into the base
	// snapshot so a clean shutdown restores exact counts.
	r.mu.RLock()
	counts := make(map[string]int64, len(r.routes))
	for id, rt := range r.routes {
		counts[id] = rt.count.Load()
	}
	r.mu.RUnlock()
	r.rlog.persistCounts(counts)
	r.rlog.close()
	return err
}

// nodeAddr maps a node index to its configured address ("" for -1 / out of
// range) — the journal records addresses, not indices.
func (r *Router) nodeAddr(idx int) string {
	if idx < 0 || idx >= len(r.nodes) {
		return ""
	}
	return r.nodes[idx].addr
}

// checkIdentity admits a node into the cluster identity (algorithm, seed)
// or rejects it: migration correctness depends on every node running the
// same deterministic policy.
func (r *Router) checkIdentity(info server.NodeInfo) error {
	r.identMu.Lock()
	defer r.identMu.Unlock()
	if !r.identSet {
		r.ident.algorithm, r.ident.seed = info.Algorithm, info.Seed
		r.identSet = true
		return nil
	}
	if info.Algorithm != r.ident.algorithm || info.Seed != r.ident.seed {
		return fmt.Errorf("node runs %s/seed=%d, cluster runs %s/seed=%d",
			info.Algorithm, info.Seed, r.ident.algorithm, r.ident.seed)
	}
	return nil
}

// call sends one request to a node and reads its success response into
// out: a *[]byte takes the raw body (a tenant transfer is forwarded
// verbatim, never re-encoded), nil discards it, anything else is decoded
// as JSON. body is nil, pre-marshaled JSON bytes, or a value to marshal. A
// non-2xx status is an error carrying an excerpt of the body.
func (r *Router) call(method, url string, body, out interface{}) error {
	data, ok := body.([]byte)
	if !ok && body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer closeBody(resp)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, snippet(resp.Body))
	}
	switch o := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*o, err = io.ReadAll(resp.Body)
		return err
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// drainLimit bounds what closeBody reads of a response nobody consumed.
const drainLimit = 64 << 10

// closeBody reads what is left of a node's response body, up to
// drainLimit, and closes it. net/http keeps a connection for reuse only
// once its body was read to the end, so a response closed unread (a
// discarded create or checkpoint reply, the newline after a decoded JSON
// value) would cost a new TCP connection on the next call.
func closeBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, drainLimit)) //nolint:errcheck // best effort: a failed drain only loses the connection
	resp.Body.Close()
}

// snippet reads a short error-body excerpt for diagnostics.
func snippet(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 256))
	return strings.TrimSpace(string(b))
}
