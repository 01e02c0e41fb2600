package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// startTracedWorker is startWorker with op tracing on full blast, so every
// forwarded arrival leaves a flight record on the node that served it.
func startTracedWorker(t *testing.T, seed int64) *server.Server {
	t.Helper()
	s, err := server.New(server.Config{
		HTTPAddr: "127.0.0.1:0",
		TCPAddr:  "127.0.0.1:0",
		Engine: engine.Config{
			Algorithm: "pd", Shards: 2, Seed: seed,
			TraceSample: 1, FlightRecords: 256,
		},
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

// routerFlight fetches and decodes the router's merged flight dump.
func routerFlight(t *testing.T, base, query string) server.FlightDumpDoc {
	t.Helper()
	var doc server.FlightDumpDoc
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/debug/flight"+query, nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// streamTracedFrames sends arrivals [lo, hi) over one framed connection to
// the router, each frame stamped with idBase+i, and awaits the result.
func streamTracedFrames(t *testing.T, addr string, tenants, lo, hi int, idBase uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	for i := lo; i < hi; i++ {
		a := testArrival(i)
		op := engine.Op{Op: "arrive", Tenant: tenantName(i % tenants), Point: a.Point, Demands: a.Demands}
		payload, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		if err := server.WriteFrameTrace(bw, payload, idBase+uint64(i)); err != nil {
			t.Fatal(err)
		}
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
	if !res.OK || res.Arrivals != hi-lo {
		t.Fatalf("TCP result %+v, want ok with %d arrivals", res, hi-lo)
	}
}

// TestClusterFlightDumpMergedAndMigrated: trace ids stamped on client
// frames survive the router hop and land in worker flight recorders; the
// router's merged dump stamps each record's origin node, and a migrated
// tenant's records span both its source and target nodes.
func TestClusterFlightDumpMergedAndMigrated(t *testing.T) {
	const tenants, first, second = 3, 30, 12
	w1 := startTracedWorker(t, 17)
	w2 := startTracedWorker(t, 17)
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	streamTracedFrames(t, r.TCPAddr(), tenants, 0, first, 0x1000)

	// Every frame carried a wire id, so every arrival must eventually
	// publish a flight record on whichever node served it.
	waitFor(t, "first batch flight records", func() bool {
		return len(routerFlight(t, base, "").Records) == first
	})
	doc := routerFlight(t, base, "")
	if !doc.Tracing {
		t.Error("merged dump reports tracing off though workers trace")
	}
	nodes := map[string]bool{}
	ids := map[string]bool{}
	for _, rec := range doc.Records {
		if rec.Node != w1.HTTPAddr() && rec.Node != w2.HTTPAddr() {
			t.Fatalf("record carries unknown node %q", rec.Node)
		}
		nodes[rec.Node] = true
		ids[rec.TraceID] = true
	}
	if len(nodes) != 2 {
		t.Errorf("records from %d nodes, want both (least-load spreads 3 tenants)", len(nodes))
	}
	for i := 0; i < first; i++ {
		if !ids[obs.TraceIDString(0x1000+uint64(i))] {
			t.Errorf("wire id %#x missing from merged dump", 0x1000+i)
		}
	}

	// Move tenant-001, then send a second batch: its new records must come
	// from the target while the old ones stay attributed to the source.
	var routes map[string]RouteInfo
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/routes", nil, http.StatusOK), &routes); err != nil {
		t.Fatal(err)
	}
	src := routes[tenantName(1)].Node
	dst := w1.HTTPAddr()
	if src == dst {
		dst = w2.HTTPAddr()
	}
	httpJSON(t, "POST", base+"/v1/migrate", migrateBody{Tenant: tenantName(1), Target: dst}, http.StatusOK)
	streamTracedFrames(t, r.TCPAddr(), tenants, first, first+second, 0x9000)

	waitFor(t, "post-migration flight records", func() bool {
		return len(routerFlight(t, base, "").Records) == first+second
	})
	migrated := routerFlight(t, base, "?tenant="+tenantName(1))
	perNode := map[string]int{}
	for _, rec := range migrated.Records {
		if rec.Tenant != tenantName(1) {
			t.Fatalf("tenant filter leaked record for %q", rec.Tenant)
		}
		perNode[rec.Node]++
	}
	if perNode[src] == 0 || perNode[dst] == 0 {
		t.Errorf("migrated tenant's records on src=%d dst=%d, want both non-zero (%v)",
			perNode[src], perNode[dst], perNode)
	}

	// max applies to the merged view: newest records win.
	capped := routerFlight(t, base, "?max=5")
	if len(capped.Records) != 5 {
		t.Errorf("max=5 returned %d records", len(capped.Records))
	}
	httpJSON(t, "GET", base+"/v1/debug/flight?max=-1", nil, http.StatusBadRequest)
}

// TestClusterPromMerged: the router's GET /metrics carries cluster-level
// series plus each node's full exposition under a node label, with one
// TYPE header per family.
func TestClusterPromMerged(t *testing.T) {
	const tenants, arrivals = 2, 20
	w1 := startTracedWorker(t, 19)
	w2 := startTracedWorker(t, 19)
	r := startRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	streamTracedFrames(t, r.TCPAddr(), tenants, 0, arrivals, 0x2000)
	waitFor(t, "flight records", func() bool {
		return len(routerFlight(t, base, "").Records) == arrivals
	})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != server.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, server.PromContentType)
	}
	text := readAll(t, resp.Body)
	if strings.HasPrefix(strings.TrimSpace(text), "{") {
		t.Fatal("router /metrics served JSON, want text exposition")
	}

	for _, want := range []string{
		"omflp_cluster_nodes 2",
		"omflp_cluster_healthy_nodes 2",
		fmt.Sprintf("omflp_cluster_tenants %d", tenants),
		fmt.Sprintf("omflp_cluster_served_total %d", arrivals),
		fmt.Sprintf(`omflp_node_healthy{node="%s"} 1`, w1.HTTPAddr()),
		fmt.Sprintf(`omflp_node_healthy{node="%s"} 1`, w2.HTTPAddr()),
		fmt.Sprintf(`omflp_served_total{node="%s"}`, w1.HTTPAddr()),
		fmt.Sprintf(`omflp_served_total{node="%s"}`, w2.HTTPAddr()),
		fmt.Sprintf(`omflp_stage_latency_seconds_bucket{node="%s",stage="total",le="+Inf"}`, w1.HTTPAddr()),
		fmt.Sprintf(`omflp_goroutines{node="%s"}`, w2.HTTPAddr()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("cluster exposition lacks %q", want)
		}
	}

	// One TYPE header per family even though two nodes emit the family.
	typeCount := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			typeCount[strings.Fields(line)[2]]++
		}
	}
	for name, c := range typeCount {
		if c != 1 {
			t.Errorf("family %s has %d TYPE headers, want 1", name, c)
		}
	}
}

func readAll(t *testing.T, r interface{ Read([]byte) (int, error) }) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// TestClusterPromStaleExcluded: a node replaying an identical /v1/metrics
// body keeps its marker series but is not re-emitted into the merged
// exposition — the prom view follows the same Seq rule as /v1/metrics.
func TestClusterPromStaleExcluded(t *testing.T) {
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
	addr := strings.TrimPrefix(fake.URL, "http://")

	r := startRouter(t, Config{Nodes: []string{addr}})
	base := "http://" + r.HTTPAddr()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return readAll(t, resp.Body)
	}

	fresh := scrape()
	nodeSeries := fmt.Sprintf(`omflp_served_total{node="%s"} 40`, addr)
	if !strings.Contains(fresh, nodeSeries) {
		t.Errorf("fresh scrape lacks %q", nodeSeries)
	}
	if !strings.Contains(fresh, fmt.Sprintf(`omflp_node_stale{node="%s"} 0`, addr)) {
		t.Error("fresh scrape not marked non-stale")
	}

	stale := scrape()
	if strings.Contains(stale, nodeSeries) {
		t.Error("stale scrape re-emitted the node's series")
	}
	if !strings.Contains(stale, fmt.Sprintf(`omflp_node_stale{node="%s"} 1`, addr)) {
		t.Error("stale scrape lacks the stale marker")
	}
	if !strings.Contains(stale, fmt.Sprintf(`omflp_node_healthy{node="%s"} 1`, addr)) {
		t.Error("stale node still answers; healthy marker must stay 1")
	}
}
