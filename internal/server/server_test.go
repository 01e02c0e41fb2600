package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/metric"
	"repro/internal/workload"
)

func testTrace(seed int64, n, u, points int) *workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	space := metric.RandomEuclidean(rng, points, 2, 100)
	return workload.Uniform(rng, space, cost.PowerLaw(u, 1, 2), n, u/2+1)
}

// traceOps rewrites a trace as the op stream ReplayTrace would produce:
// per-tenant creates, then arrivals fanned round-robin — the wire image of
// the engine's file-trace fan-out.
func traceOps(t *testing.T, tr *workload.Trace, tenants int) []engine.Op {
	t.Helper()
	in := tr.Instance
	nPts := in.Space.Len()
	u := in.Universe()
	dist := make([][]float64, nPts)
	for i := range dist {
		dist[i] = make([]float64, nPts)
		for j := range dist[i] {
			dist[i][j] = in.Space.Distance(i, j)
		}
	}
	bySize := make([]float64, u+1)
	for k := 1; k <= u; k++ {
		bySize[k] = in.Costs.Cost(0, commodity.Full(k))
	}
	var ops []engine.Op
	for i := 0; i < tenants; i++ {
		ops = append(ops, engine.Op{
			Op: "create", Tenant: fmt.Sprintf("tenant-%03d", i),
			Universe: u, Distances: dist, CostBySize: bySize,
		})
	}
	for i, r := range in.Requests {
		ops = append(ops, engine.Op{
			Op: "arrive", Tenant: fmt.Sprintf("tenant-%03d", i%tenants),
			Point: r.Point, Demands: r.Demands.IDs(),
		})
	}
	return ops
}

// stdinSnapshots replays the ops through a bare engine — the stdin path —
// and returns the CLI snapshot artifact bytes.
func stdinSnapshots(t *testing.T, cfg engine.Config, ops []engine.Op) []byte {
	t.Helper()
	var lines bytes.Buffer
	enc := json.NewEncoder(&lines)
	for _, op := range ops {
		if err := enc.Encode(op); err != nil {
			t.Fatal(err)
		}
	}
	e, err := engine.NewChecked(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.ReplayOps(&lines); err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
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

func httpJSON(t *testing.T, method, url string, body interface{}, wantStatus int) []byte {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, ok := body.([]byte) // a transfer document goes verbatim
		if !ok {
			var err error
			if data, err = json.Marshal(body); err != nil {
				t.Fatal(err)
			}
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

// TestHTTPPathMatchesStdinPath is the tentpole contract: arrivals POSTed
// over HTTP must produce tenant snapshots byte-identical to the existing
// stdin op-stream path under the same seed.
func TestHTTPPathMatchesStdinPath(t *testing.T) {
	tr := testTrace(41, 60, 6, 10)
	ops := traceOps(t, tr, 3)
	engCfg := engine.Config{Algorithm: "pd", Shards: 4, Seed: 1}
	want := stdinSnapshots(t, engCfg, ops)

	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engCfg})
	base := "http://" + s.HTTPAddr()
	for _, op := range ops {
		switch op.Op {
		case "create":
			httpJSON(t, "POST", base+"/v1/tenants/"+op.Tenant,
				createBody{Universe: op.Universe, Distances: op.Distances, CostBySize: op.CostBySize},
				http.StatusCreated)
		case "arrive":
			httpJSON(t, "POST", base+"/v1/tenants/"+op.Tenant+"/arrive",
				Arrival{Point: op.Point, Demands: op.Demands}, http.StatusOK)
		}
	}
	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("HTTP-ingested snapshots differ from the stdin op-stream path")
	}
}

// TestTCPPathMatchesStdinPath: the framed TCP protocol must agree with the
// stdin path too, including when arrivals stream over several connections.
func TestTCPPathMatchesStdinPath(t *testing.T) {
	tr := testTrace(43, 80, 5, 12)
	const tenants = 4
	ops := traceOps(t, tr, tenants)
	engCfg := engine.Config{Algorithm: "pd", Shards: 2, Seed: 9}
	want := stdinSnapshots(t, engCfg, ops)

	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0", Engine: engCfg})

	// Creates first on one connection (await the ack so arrivals on other
	// conns never race tenant existence).
	streamOps(t, s.TCPAddr(), ops[:tenants], true)
	// Arrivals split across two connections by tenant parity — per-tenant
	// order is preserved within each connection.
	var a, b []engine.Op
	for _, op := range ops[tenants:] {
		if int(op.Tenant[len(op.Tenant)-1]-'0')%2 == 0 {
			a = append(a, op)
		} else {
			b = append(b, op)
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		streamOps(t, s.TCPAddr(), a, true)
	}()
	streamOps(t, s.TCPAddr(), b, true)
	<-done

	got := httpJSON(t, "GET", "http://"+s.HTTPAddr()+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("TCP-ingested snapshots differ from the stdin op-stream path")
	}
}

// streamOps sends ops as frames over one TCP connection, half-closes, and
// (when await is set) verifies the server's result frame.
func streamOps(t *testing.T, addr string, ops []engine.Op, await bool) TCPResult {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	arrivals := 0
	for _, op := range ops {
		payload, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(bw, payload); err != nil {
			t.Fatal(err)
		}
		if op.Op == "arrive" {
			arrivals++
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	frame, err := ReadFrame(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	var res TCPResult
	if err := json.Unmarshal(frame, &res); err != nil {
		t.Fatal(err)
	}
	if await {
		if !res.OK || res.Arrivals != arrivals {
			t.Fatalf("TCP result = %+v, want ok with %d arrivals", res, arrivals)
		}
	}
	return res
}

// TestTCPBadOpReportsError: a malformed op must produce a result frame with
// ok=false, not a silent close.
func TestTCPBadOpReportsError(t *testing.T) {
	s := startServer(t, Config{TCPAddr: "127.0.0.1:0", Engine: engine.Config{Shards: 1}})
	res := streamOps(t, s.TCPAddr(), []engine.Op{{Op: "arrive", Tenant: "ghost", Point: 0, Demands: []int{0}}}, false)
	if res.OK || !strings.Contains(res.Error, "ghost") {
		t.Errorf("result = %+v, want unknown-tenant failure", res)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 2, Seed: 1}})
	base := "http://" + s.HTTPAddr()
	create := createBody{
		Universe:   3,
		Distances:  [][]float64{{0, 1}, {1, 0}},
		CostBySize: []float64{0, 1, 1.5, 1.8},
	}
	httpJSON(t, "POST", base+"/v1/tenants/a", create, http.StatusCreated)
	httpJSON(t, "POST", base+"/v1/tenants/a", create, http.StatusConflict)

	// Single arrival, then a batch.
	httpJSON(t, "POST", base+"/v1/tenants/a/arrive", Arrival{Point: 0, Demands: []int{0, 2}}, http.StatusOK)
	out := httpJSON(t, "POST", base+"/v1/tenants/a/arrive", map[string]interface{}{
		"arrivals": []Arrival{{Point: 1, Demands: []int{1}}, {Point: 0, Demands: []int{2}}},
	}, http.StatusOK)
	var acc struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(out, &acc); err != nil || acc.Accepted != 2 {
		t.Errorf("batch response %s (err %v), want accepted=2", out, err)
	}

	// Unknown tenant → 404; invalid arrival → 400.
	httpJSON(t, "POST", base+"/v1/tenants/ghost/arrive", Arrival{Point: 0, Demands: []int{0}}, http.StatusNotFound)
	httpJSON(t, "GET", base+"/v1/tenants/ghost/snapshot", nil, http.StatusNotFound)
	httpJSON(t, "POST", base+"/v1/tenants/a/arrive", Arrival{Point: 99, Demands: []int{0}}, http.StatusBadRequest)
	httpJSON(t, "POST", base+"/v1/checkpoint", nil, http.StatusNotFound) // not configured

	// Snapshot: full carries assignments, compact doesn't; both agree on cost.
	var full, compact engine.TenantSnapshot
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/tenants/a/snapshot", nil, http.StatusOK), &full); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/tenants/a/snapshot?compact=1", nil, http.StatusOK), &compact); err != nil {
		t.Fatal(err)
	}
	if full.Served != 3 || len(full.Assignments) != 3 {
		t.Errorf("full snapshot: served %d, %d assignment rows, want 3/3", full.Served, len(full.Assignments))
	}
	if compact.Assignments != nil || compact.Cost != full.Cost || compact.Served != full.Served {
		t.Errorf("compact snapshot %+v disagrees with full %+v", compact, full)
	}

	var m engine.Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	if m.Tenants != 1 {
		t.Errorf("metrics tenants = %d, want 1", m.Tenants)
	}
	var health struct {
		Status string `json:"status"`
		Served int64  `json:"served"`
	}
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/healthz", nil, http.StatusOK), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("healthz status %q", health.Status)
	}
}

// TestCheckpointRestartContinuity: a server restarted on the same checkpoint
// dir resumes its tenants — snapshots after restart equal snapshots before
// shutdown, and serving continues without divergence.
// TestHTTPCreateRejectsNonMetric: a create whose matrix is not a metric
// (negative distances, a non-zero diagonal) is a 400 and leaves no tenant
// behind — before, such a tenant served arrivals into a negative cost.
func TestHTTPCreateRejectsNonMetric(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	base := "http://" + s.HTTPAddr()
	for _, d := range [][][]float64{{{0, -1}, {-1, 0}}, {{5, 1}, {1, 0}}} {
		create := createBody{Universe: 2, Distances: d, CostBySize: []float64{0, 1, 1.5}}
		httpJSON(t, "POST", base+"/v1/tenants/a", create, http.StatusBadRequest)
		httpJSON(t, "GET", base+"/v1/tenants/a/snapshot", nil, http.StatusNotFound)
	}
}

func TestCheckpointRestartContinuity(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(47, 50, 5, 9)
	ops := traceOps(t, tr, 2)
	engCfg := engine.Config{Algorithm: "pd", Shards: 3, Seed: 5}
	mk := func() Config {
		return Config{
			HTTPAddr:        "127.0.0.1:0",
			CheckpointDir:   dir,
			CheckpointEvery: time.Hour, // only explicit + shutdown checkpoints
			Engine:          engCfg,
		}
	}

	s1, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s1.HTTPAddr()
	half := len(ops) / 2
	for _, op := range ops[:half] {
		applyOverHTTP(t, base, op)
	}
	httpJSON(t, "POST", base+"/v1/checkpoint", nil, http.StatusOK)
	before := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Restart on the same dir: tenants must come back.
	s2 := startServer(t, mk())
	if s2.Restored() == 0 {
		t.Fatal("restarted server restored nothing")
	}
	base = "http://" + s2.HTTPAddr()
	after := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(before, after) {
		t.Error("snapshots after restart differ from snapshots before shutdown")
	}

	// Continue the stream on the restarted server; final state must match
	// an uninterrupted run of the full op sequence.
	for _, op := range ops[half:] {
		applyOverHTTP(t, base, op)
	}
	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	want := stdinSnapshots(t, engCfg, ops)
	if !bytes.Equal(got, want) {
		t.Error("resumed stream diverged from an uninterrupted run")
	}
}

func applyOverHTTP(t *testing.T, base string, op engine.Op) {
	t.Helper()
	switch op.Op {
	case "create":
		httpJSON(t, "POST", base+"/v1/tenants/"+op.Tenant,
			createBody{Universe: op.Universe, Distances: op.Distances, CostBySize: op.CostBySize},
			http.StatusCreated)
	case "arrive":
		httpJSON(t, "POST", base+"/v1/tenants/"+op.Tenant+"/arrive",
			Arrival{Point: op.Point, Demands: op.Demands}, http.StatusOK)
	}
}

// TestShutdownDrains: arrivals admitted before Shutdown must all be served
// (and checkpointed) even with a deliberately tiny mailbox.
func TestShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(53, 150, 4, 8)
	ops := traceOps(t, tr, 2)
	s, err := New(Config{
		TCPAddr:         "127.0.0.1:0",
		CheckpointDir:   dir,
		CheckpointEvery: time.Hour,
		Engine:          engine.Config{Algorithm: "pd", Shards: 2, Mailbox: 4, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	streamOps(t, s.TCPAddr(), ops, true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ck, err := engine.ReadCheckpointFile(dir + "/" + CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ck.Arrivals(), len(tr.Instance.Requests); got != want {
		t.Errorf("final checkpoint has %d arrivals, want %d", got, want)
	}
}

// TestShutdownUnusedHTTPConn: a connection dialed to the HTTP listener that
// never sends a request does not hold up Shutdown. net/http alone waits
// until such a connection is 5 s old.
func TestShutdownUnusedHTTPConn(t *testing.T) {
	s, err := New(Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request answered on a second connection means the first one was
	// accepted already: the listener hands connections over in order.
	once := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := once.Get("http://" + s.HTTPAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("Shutdown took %v with one unused connection open", d)
	}
}

func TestServerConfigErrors(t *testing.T) {
	if _, err := New(Config{Engine: engine.Config{Algorithm: "quantum"}}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	s, err := New(Config{Engine: engine.Config{Shards: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("Start with no listeners succeeded")
	}
	s.Engine().Close()
}

// TestMetricsCheckpointAndPerShard: /v1/metrics must expose the per-shard
// breakdown (satellite of the observability work) and the checkpoint
// pipeline's size/latency/restore numbers.
func TestMetricsCheckpointAndPerShard(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(31, 40, 4, 8)
	ops := traceOps(t, tr, 3)
	engCfg := engine.Config{Algorithm: "pd", Shards: 3, Seed: 2, SealEvery: 5}
	mk := func() Config {
		return Config{
			HTTPAddr:        "127.0.0.1:0",
			CheckpointDir:   dir,
			CheckpointEvery: time.Hour,
			Engine:          engCfg,
		}
	}
	s1, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s1.HTTPAddr()
	for _, op := range ops {
		applyOverHTTP(t, base, op)
	}
	s1.Engine().Drain()
	httpJSON(t, "POST", base+"/v1/checkpoint", nil, http.StatusOK)

	var m Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	if len(m.PerShard) != 3 {
		t.Fatalf("metrics has %d per-shard rows, want 3", len(m.PerShard))
	}
	var served int64
	tenants := 0
	for i, sm := range m.PerShard {
		if sm.Shard != i {
			t.Errorf("per-shard row %d has shard id %d", i, sm.Shard)
		}
		served += sm.Served
		tenants += sm.Tenants
	}
	if served != m.Served {
		t.Errorf("per-shard served sums to %d, aggregate %d", served, m.Served)
	}
	if tenants != m.Tenants {
		t.Errorf("per-shard tenants sum to %d, aggregate %d", tenants, m.Tenants)
	}
	if !m.Checkpoint.Configured || m.Checkpoint.Count < 1 || m.Checkpoint.LastBytes <= 0 {
		t.Errorf("checkpoint metrics %+v, want configured with ≥1 write", m.Checkpoint)
	}
	if m.Checkpoint.LastArrivals != 40 {
		t.Errorf("checkpoint metrics report %d arrivals, want 40", m.Checkpoint.LastArrivals)
	}
	// SealEvery 5 means at most 3 tenants × 4 tail arrivals survive unsealed.
	if m.Checkpoint.LastTailArrivals >= 3*5 {
		t.Errorf("checkpoint tail %d arrivals, want < tenants×SealEvery", m.Checkpoint.LastTailArrivals)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// The on-disk artifact must be a v2 checkpoint with sealed bases.
	ck, err := engine.ReadCheckpointFile(dir + "/" + CheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Version != engine.CheckpointVersion {
		t.Fatalf("checkpoint file version %d, want %d", ck.Version, engine.CheckpointVersion)
	}
	for i := range ck.Tenants {
		if len(ck.Tenants[i].BaseState) == 0 {
			t.Errorf("tenant %s checkpointed without a base state", ck.Tenants[i].Tenant)
		}
	}

	// A restarted server reports the restore side: bounded replay, state
	// bytes loaded, and a restore duration.
	s2 := startServer(t, mk())
	if got := s2.RestoreStats(); got.Arrivals != 40 || got.Replayed >= 3*5 || got.BasesLoaded != 3 {
		t.Errorf("restore stats %+v, want 40 arrivals, <15 replayed, 3 bases", got)
	}
	var m2 Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", "http://"+s2.HTTPAddr()+"/v1/metrics", nil, http.StatusOK), &m2); err != nil {
		t.Fatal(err)
	}
	if m2.Checkpoint.RestoredArrivals != 40 || m2.Checkpoint.RestoredStateBytes <= 0 {
		t.Errorf("restarted metrics restore section %+v", m2.Checkpoint)
	}
}

// TestNewRefusesLegacyCheckpointDir: a checkpoint directory of a build
// before the binary document holds only engine.ckpt.json. New must fail
// naming it rather than start empty and drop every tenant in it; a JSON
// document under the new name is refused as JSON.
func TestNewRefusesLegacyCheckpointDir(t *testing.T) {
	legacy, err := os.ReadFile(filepath.Join("..", "engine", "testdata", "checkpoint_json_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 7}}
	for file, want := range map[string]string{"engine.ckpt.json": "engine.ckpt.json", CheckpointFile: "JSON checkpoint document"} {
		cfg.CheckpointDir = t.TempDir()
		if err := os.WriteFile(filepath.Join(cfg.CheckpointDir, file), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(cfg)
		if err == nil {
			s.Engine().Close()
			t.Errorf("%s: New started over a JSON-era checkpoint", file)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", file, err, want)
		}
	}
}
