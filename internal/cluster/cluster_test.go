package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// The fixed test workload: a 4-point line metric, universe 3, and an
// arithmetically generated arrival sequence — deterministic without any
// RNG so the single-node reference and the cluster replay byte-compare.
var testCreate = createBody{
	Universe: 3,
	Distances: [][]float64{
		{0, 1, 2, 3},
		{1, 0, 1, 2},
		{2, 1, 0, 1},
		{3, 2, 1, 0},
	},
	CostBySize: []float64{0, 1, 1.5, 1.8},
}

var demandSets = [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}

func testArrival(i int) server.Arrival {
	return server.Arrival{Point: (i * 5) % 4, Demands: demandSets[i%len(demandSets)]}
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%03d", i) }

func startWorker(t testing.TB, seed int64, ckptDir string) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		HTTPAddr:      "127.0.0.1:0",
		TCPAddr:       "127.0.0.1:0",
		CheckpointDir: ckptDir,
		Engine:        engine.Config{Algorithm: "pd", Shards: 2, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func startRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	return startFaultRouter(t, cfg, nil)
}

// startFaultRouter starts a router whose move phases consult fault (see
// checkMigFault). The hook is set before Start because the health loop's
// reseeds read it.
func startFaultRouter(t testing.TB, cfg Config, fault func(phase string) error) *Router {
	t.Helper()
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:0"
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = 25 * time.Millisecond
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.migFault = fault
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Shutdown(5 * time.Second) })
	return r
}

func httpJSON(t testing.TB, method, url string, body interface{}, wantStatus int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d — body %s", method, url, resp.StatusCode, wantStatus, out)
	}
	return out
}

// referenceArtifact serves the full workload on one fresh node and returns
// its /v1/snapshots bytes — the golden every cluster test compares against.
func referenceArtifact(t *testing.T, seed int64, tenants, arrivals int) []byte {
	t.Helper()
	ref := startWorker(t, seed, "")
	base := "http://" + ref.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	for i := 0; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	return httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestRouterByteIdentity: tenants created and served through a 2-node
// router produce the exact /v1/snapshots artifact a single node yields for
// the same workload — the cluster determinism contract over HTTP.
func TestRouterByteIdentity(t *testing.T) {
	const tenants, arrivals = 3, 60
	want := referenceArtifact(t, 11, tenants, arrivals)

	w1 := startWorker(t, 11, "")
	w2 := startWorker(t, 11, "")
	r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	// Least-load placement must actually spread the tenants.
	r.mu.RLock()
	byNode := map[int]int{}
	for _, rt := range r.routes {
		byNode[rt.node]++
	}
	r.mu.RUnlock()
	if len(byNode) != 2 {
		t.Fatalf("placement used %d of 2 nodes", len(byNode))
	}

	// Batched and single arrivals, mixed.
	for i := 0; i < arrivals; i += 2 {
		id := tenantName(i % tenants)
		next := tenantName((i + 1) % tenants)
		if id == next {
			httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", map[string]interface{}{
				"arrivals": []server.Arrival{testArrival(i), testArrival(i + 1)},
			}, http.StatusOK)
			continue
		}
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
		httpJSON(t, "POST", base+"/v1/tenants/"+next+"/arrive", testArrival(i+1), http.StatusOK)
	}

	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("cluster snapshots differ from the single-node artifact")
	}

	var m Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	if m.Tenants != tenants || m.Served != arrivals || m.HealthyNodes != 2 {
		t.Errorf("cluster metrics %+v, want %d tenants / %d served / 2 healthy", m, tenants, arrivals)
	}
}

// streamFrames writes arrive ops for arrivals [lo, hi) over an open framed
// connection to the router.
func streamFrames(t *testing.T, bw *bufio.Writer, tenants, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		a := testArrival(i)
		op := engine.Op{Op: "arrive", Tenant: tenantName(i % tenants), Point: a.Point, Demands: a.Demands}
		payload, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestMigrationByteIdentityOverTCP is the live-migration contract end to
// end: a tenant moves between nodes in the middle of an open framed-TCP
// stream — quiescing the in-flight frames the coordinator itself never
// wrote — and the final cluster artifact is byte-identical to the
// single-node reference.
func TestMigrationByteIdentityOverTCP(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 33
	want := referenceArtifact(t, 13, tenants, arrivals)

	w1 := startWorker(t, 13, "")
	w2 := startWorker(t, 13, "")
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}

	conn, err := net.Dial("tcp", r.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	streamFrames(t, bw, tenants, 0, cut)

	// Move tenant-001 to whichever node doesn't own it, with the stream
	// still open: Migrate must flush this session's buffered upstream
	// frames to quiesce, then flip. Wait for the router to have forwarded
	// the prefix first — otherwise the move is still correct but the test
	// would see the frames buffered and replayed instead of quiesced.
	const moved = "tenant-001"
	waitFor(t, "prefix to reach the ledger", func() bool {
		r.mu.RLock()
		defer r.mu.RUnlock()
		rt, ok := r.routes[moved]
		return ok && rt.count.Load() == cut/3
	})
	r.mu.RLock()
	owner := r.routes[moved].node
	r.mu.RUnlock()
	target := []string{w1.HTTPAddr(), w2.HTTPAddr()}[1-owner]
	res, err := r.Migrate(moved, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.To != target || res.Served != cut/3 {
		t.Errorf("migrate result %+v, want to=%s served=%d", res, target, cut/3)
	}

	// Same connection keeps serving the suffix, now routed to the new owner.
	streamFrames(t, bw, tenants, cut, arrivals)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	frame, err := server.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var tcpRes server.TCPResult
	if err := json.Unmarshal(frame, &tcpRes); err != nil {
		t.Fatal(err)
	}
	if !tcpRes.OK || tcpRes.Arrivals != arrivals {
		t.Fatalf("TCP result %+v, want ok with %d arrivals", tcpRes, arrivals)
	}

	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("post-migration snapshots differ from the single-node artifact")
	}
	if n := r.migrations.Load(); n != 1 {
		t.Errorf("migrations counter = %d, want 1", n)
	}
}

// TestRecoveryRejoin: a worker restarted from its checkpoint rejoins the
// cluster — the router re-syncs the routes and ledgers from the node's
// snapshots and serving resumes with the reference artifact intact.
func TestRecoveryRejoin(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 42
	want := referenceArtifact(t, 17, tenants, arrivals)

	w1 := startWorker(t, 17, t.TempDir())
	dir2 := t.TempDir()
	w2 := startWorker(t, 17, dir2)
	w2Addr := w2.HTTPAddr()
	r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2Addr}})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	httpJSON(t, "POST", base+"/v1/checkpoint", nil, http.StatusOK)

	// Take worker 2 down and wait for the router to notice.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	w2.Shutdown(ctx)
	cancel()
	waitFor(t, "router to mark node 2 down", func() bool {
		var m Metrics
		json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m)
		return m.HealthyNodes == 1
	})

	// Arrivals for worker-2 tenants fail while it is down (502), and the
	// creates keep landing on the survivor.
	r.mu.RLock()
	var lostTenant string
	for id, rt := range r.routes {
		if r.nodes[rt.node].addr == w2Addr {
			lostTenant = id
			break
		}
	}
	r.mu.RUnlock()
	if lostTenant == "" {
		t.Fatal("no tenant was routed to worker 2")
	}
	resp, err := http.Post(base+"/v1/tenants/"+lostTenant+"/arrive", "application/json",
		strings.NewReader(`{"point":0,"demands":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("arrive on downed node: status %d, want 502", resp.StatusCode)
	}

	// Restart worker 2 on the same address from its checkpoint; the
	// router's health loop re-admits it and re-syncs its routes.
	w2b, err := server.New(server.Config{
		HTTPAddr:      w2Addr,
		CheckpointDir: dir2,
		Engine:        engine.Config{Algorithm: "pd", Shards: 2, Seed: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w2b.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w2b.Shutdown(ctx)
	})
	waitFor(t, "router to re-admit node 2", func() bool {
		var m Metrics
		json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m)
		return m.HealthyNodes == 2
	})

	// Serving resumes across the whole cluster; the final artifact equals
	// the single-node reference.
	for i := cut; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("post-recovery snapshots differ from the single-node artifact")
	}
}

// TestRouterSentinels: the router maps routing failures onto distinct
// statuses — 421 for a tenant no node owns (the request was misdirected at
// the cluster), 409 for duplicate creates — and the framed path reports the
// machine-readable code.
func TestRouterSentinels(t *testing.T) {
	w1 := startWorker(t, 19, "")
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()

	httpJSON(t, "POST", base+"/v1/tenants/a/arrive", server.Arrival{Point: 0, Demands: []int{0}},
		http.StatusMisdirectedRequest)
	httpJSON(t, "GET", base+"/v1/tenants/a/snapshot", nil, http.StatusMisdirectedRequest)
	httpJSON(t, "POST", base+"/v1/tenants/a", testCreate, http.StatusCreated)
	httpJSON(t, "POST", base+"/v1/tenants/a", testCreate, http.StatusConflict)

	conn, err := net.Dial("tcp", r.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	payload, _ := json.Marshal(engine.Op{Op: "arrive", Tenant: "ghost", Point: 0, Demands: []int{0}})
	if err := server.WriteFrame(bw, payload); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	frame, err := server.ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var res server.TCPResult
	if err := json.Unmarshal(frame, &res); err != nil {
		t.Fatal(err)
	}
	if res.OK || res.Code != server.CodeUnknownTenant {
		t.Errorf("framed unknown-tenant result %+v, want code %q", res, server.CodeUnknownTenant)
	}

	// Migrating to the only node (the current owner) is refused.
	httpJSON(t, "POST", base+"/v1/migrate", migrateBody{Tenant: "a", Target: w1.HTTPAddr()}, http.StatusBadGateway)
}

// TestMigrateWithoutTargetSkipsFollower: POST /v1/migrate naming no target
// moves a replicated tenant onto a node that hosts neither its owner nor
// its follower. Three workers and one tenant, owned by node 0 and followed
// on node 1: the move lands on node 2 with every arrival.
func TestMigrateWithoutTargetSkipsFollower(t *testing.T) {
	const arrivals = 5
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, 23, "").HTTPAddr()
	}
	r := startRouter(t, Config{Nodes: nodes, Replicate: true, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	id := tenantName(0)
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	r.mu.RLock()
	owner, follower := r.routes[id].node, r.routes[id].follower
	r.mu.RUnlock()
	if owner != 0 || follower != 1 {
		t.Fatalf("tenant placed on node %d with follower %d, want 0 and 1", owner, follower)
	}

	var res MigrateResult
	if err := json.Unmarshal(httpJSON(t, "POST", base+"/v1/migrate", migrateBody{Tenant: id}, http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if res.From != nodes[0] || res.To != nodes[2] {
		t.Errorf("migrated from %s to %s, want %s to %s", res.From, res.To, nodes[0], nodes[2])
	}
	if got := admittedOn(t, nodes[2], id); got != arrivals {
		t.Errorf("target admitted %d arrivals, want %d", got, arrivals)
	}
}

// TestStaleScrapeExcluded: a node that replays an identical metrics body
// (same Seq and wall stamp — a wedged process or a caching proxy) is
// flagged stale and its window rate is not double-counted.
func TestStaleScrapeExcluded(t *testing.T) {
	fixed := server.Metrics{}
	fixed.Seq = 5
	fixed.WallUnixNano = 123456789
	fixed.Served = 40
	fixed.WindowArrivalsPerSec = 100

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/node", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(server.NodeInfo{Algorithm: "pd", Seed: 1})
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(fixed)
	})
	mux.HandleFunc("GET /v1/served", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode([]engine.TenantServed{})
	})
	fake := httptest.NewServer(mux)
	defer fake.Close()

	r := startRouter(t, Config{Nodes: []string{strings.TrimPrefix(fake.URL, "http://")}})

	m1 := r.Metrics()
	if len(m1.PerNode) != 1 || m1.PerNode[0].Stale {
		t.Fatalf("first scrape %+v, want one fresh report", m1.PerNode)
	}
	if m1.WindowArrivalsPerSec != 100 {
		t.Errorf("first scrape window rate %g, want 100", m1.WindowArrivalsPerSec)
	}
	m2 := r.Metrics()
	if !m2.PerNode[0].Stale {
		t.Error("identical rescrape not flagged stale")
	}
	if m2.WindowArrivalsPerSec != 0 {
		t.Errorf("stale scrape window rate %g, want 0 (excluded)", m2.WindowArrivalsPerSec)
	}

	// A restarted node (fresh Seq, new wall stamp) must NOT read as stale.
	fixed.Seq = 1
	fixed.WallUnixNano = 987654321
	m3 := r.Metrics()
	if m3.PerNode[0].Stale {
		t.Error("restarted node flagged stale")
	}
}

// TestRouterReusesNodeConnections: the router's node calls keep their
// connections for the next call, both when the reply is discarded (a
// tenant create, on the owner and on the follower) and when a JSON reply
// larger than the decoder's first read is decoded (a node's snapshot
// list). Each fake node counts the connections it accepts.
func TestRouterReusesNodeConnections(t *testing.T) {
	var big []engine.TenantSnapshot
	for i := 0; i < 64; i++ {
		big = append(big, engine.TenantSnapshot{Tenant: fmt.Sprintf("resident-%03d", i), Algorithm: "pd"})
	}
	var addrs []string
	var conns []*atomic.Int64
	for range 2 {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/node", func(w http.ResponseWriter, req *http.Request) {
			json.NewEncoder(w).Encode(server.NodeInfo{Algorithm: "pd", Seed: 1})
		})
		mux.HandleFunc("GET /v1/served", func(w http.ResponseWriter, req *http.Request) {
			json.NewEncoder(w).Encode([]engine.TenantServed{})
		})
		mux.HandleFunc("GET /v1/snapshots", func(w http.ResponseWriter, req *http.Request) {
			// The chunked body's terminator trails the value, as it may
			// over a network: the decoder stops at the value.
			json.NewEncoder(w).Encode(big)
			w.(http.Flusher).Flush()
			time.Sleep(2 * time.Millisecond)
		})
		mux.HandleFunc("POST /v1/tenants/{id}", func(w http.ResponseWriter, req *http.Request) {
			io.Copy(io.Discard, req.Body)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			json.NewEncoder(w).Encode(map[string]string{"tenant": req.PathValue("id"), "status": "created"})
		})
		fake := httptest.NewUnstartedServer(mux)
		n := new(atomic.Int64)
		fake.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				n.Add(1)
			}
		}
		fake.Start()
		defer fake.Close()
		addrs = append(addrs, strings.TrimPrefix(fake.URL, "http://"))
		conns = append(conns, n)
	}
	r := startRouter(t, Config{Nodes: addrs, Replicate: true, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	for i := 0; i < 50; i++ {
		httpJSON(t, "POST", fmt.Sprintf("%s/v1/tenants/t%02d", base, i), testCreate, http.StatusCreated)
	}
	for i := 0; i < 50; i++ {
		var snaps []engine.TenantSnapshot
		if err := r.call("GET", r.nodes[i%2].base+"/v1/snapshots?compact=true", nil, &snaps); err != nil {
			t.Fatal(err)
		}
		if len(snaps) != len(big) {
			t.Fatalf("decoded %d snapshots, want %d", len(snaps), len(big))
		}
	}
	for i, n := range conns {
		if got := n.Load(); got > 2 {
			t.Errorf("node %d accepted %d connections over 50 creates and 25 snapshot reads, want at most 2", i, got)
		}
	}
}

// TestNewRejectsBadConfig: New refuses a placement policy other than
// leastload, an empty node list and a node listed twice.
func TestNewRejectsBadConfig(t *testing.T) {
	nodes := []string{"10.0.0.1:9000", "10.0.0.2:9000"}
	for _, policy := range []string{"rendezvous", "roulette"} {
		if _, err := New(Config{HTTPAddr: ":0", Nodes: nodes, Placement: policy}); err == nil {
			t.Errorf("placement policy %q accepted", policy)
		}
	}
	if _, err := New(Config{HTTPAddr: ":0"}); err == nil {
		t.Error("router with no nodes accepted")
	}
	if _, err := New(Config{HTTPAddr: ":0", Nodes: []string{"a:1", "a:1"}}); err == nil {
		t.Error("duplicate node list accepted")
	}
}

// TestRouterShutdownUnusedHTTPConn: a connection dialed to the router's
// HTTP listener that never sends a request does not hold up Shutdown.
// net/http alone waits until such a connection is 5 s old.
func TestRouterShutdownUnusedHTTPConn(t *testing.T) {
	w := startWorker(t, 23, "")
	r, err := New(Config{HTTPAddr: "127.0.0.1:0", Nodes: []string{w.HTTPAddr()}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", r.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request answered on a second connection means the first one was
	// accepted already: the listener hands connections over in order.
	once := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := once.Get("http://" + r.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	start := time.Now()
	if err := r.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Shutdown took %v with one unused connection open", d)
	}
}
