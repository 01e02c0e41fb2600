package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/engine"
)

// TestNodeExtractInjectEndpoints drives the node-side handoff surface the
// cluster router uses: /v1/node identity, quiesced extract (?served=N),
// inject on a peer, and the sentinel statuses for the failure cases.
func TestNodeExtractInjectEndpoints(t *testing.T) {
	cfg := engine.Config{Algorithm: "pd", Shards: 2, Seed: 5}
	src := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	dst := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	srcBase := "http://" + src.HTTPAddr()
	dstBase := "http://" + dst.HTTPAddr()

	var info NodeInfo
	if err := json.Unmarshal(httpJSON(t, "GET", srcBase+"/v1/node", nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	if info.Algorithm != "pd" || info.Seed != 5 || info.Tenants != 0 {
		t.Fatalf("node info %+v, want pd/5 with no tenants", info)
	}

	create := createBody{
		Universe:   3,
		Distances:  [][]float64{{0, 1}, {1, 0}},
		CostBySize: []float64{0, 1, 1.5, 1.8},
	}
	httpJSON(t, "POST", srcBase+"/v1/tenants/a", create, http.StatusCreated)
	for _, a := range []Arrival{{Point: 0, Demands: []int{0, 2}}, {Point: 1, Demands: []int{1}}, {Point: 0, Demands: []int{2}}} {
		httpJSON(t, "POST", srcBase+"/v1/tenants/a/arrive", a, http.StatusOK)
	}
	before := httpJSON(t, "GET", srcBase+"/v1/tenants/a/snapshot", nil, http.StatusOK)

	// Extract failure cases: unknown tenant, and a served watermark the
	// engine has already passed (the router's ledger can only be behind,
	// never ahead — ahead means the ledger is corrupt, a hard conflict).
	httpJSON(t, "POST", srcBase+"/v1/tenants/ghost/extract", nil, http.StatusNotFound)
	httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract?served=2", nil, http.StatusConflict)

	// Quiesced extract at the true watermark, inject into the peer.
	wire := httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract?served=3", nil, http.StatusOK)
	var tf engine.TenantTransfer
	if err := json.Unmarshal(wire, &tf); err != nil {
		t.Fatal(err)
	}
	// Without RecordArrivals the capture seals everything into the base
	// state; either way base + tail must account for all three arrivals.
	if tf.Tenant != "a" || tf.BaseServed+len(tf.Arrivals) != 3 {
		t.Fatalf("transfer %q: base %d + tail %d arrivals, want 3 total", tf.Tenant, tf.BaseServed, len(tf.Arrivals))
	}
	httpJSON(t, "GET", srcBase+"/v1/tenants/a/snapshot", nil, http.StatusNotFound)

	// Inject body/path mismatch is a 400; the real inject lands the tenant.
	httpJSON(t, "POST", dstBase+"/v1/tenants/b/inject", json.RawMessage(wire), http.StatusBadRequest)
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", json.RawMessage(wire), http.StatusOK)
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", json.RawMessage(wire), http.StatusConflict)

	// The restored snapshot is byte-identical to the source's.
	after := httpJSON(t, "GET", dstBase+"/v1/tenants/a/snapshot", nil, http.StatusOK)
	if string(before) != string(after) {
		t.Error("snapshot after extract/inject differs from the source snapshot")
	}

	// Serving continues on the new owner only.
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/arrive", Arrival{Point: 1, Demands: []int{0}}, http.StatusOK)
	httpJSON(t, "POST", srcBase+"/v1/tenants/a/arrive", Arrival{Point: 1, Demands: []int{0}}, http.StatusNotFound)

	// An arrive ack means admitted, not served. The snapshot runs on the
	// tenant's shard after that arrival, so /v1/node then counts it.
	httpJSON(t, "GET", dstBase+"/v1/tenants/a/snapshot", nil, http.StatusOK)
	if err := json.Unmarshal(httpJSON(t, "GET", dstBase+"/v1/node", nil, http.StatusOK), &info); err != nil {
		t.Fatal(err)
	}
	// Served counts arrivals this engine process served: the sealed base
	// loads without replay, so only the post-inject arrival registers.
	if info.Tenants != 1 || info.Served != 1 {
		t.Errorf("dst node info %+v, want 1 tenant / 1 served", info)
	}

	// A seed-mismatched peer refuses the transfer.
	alien := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 6}})
	httpJSON(t, "POST", "http://"+alien.HTTPAddr()+"/v1/tenants/a/inject", json.RawMessage(wire), http.StatusBadRequest)
}

// TestInjectRefusesTamperedTransfer: an inject whose base counters
// contradict its base state (a served count 1000 too high, a negative
// construction cost) or whose tail demands a commodity outside the universe
// is a 400 that leaves no tenant behind — the untouched transfer then
// injects cleanly instead of hitting a 409.
func TestInjectRefusesTamperedTransfer(t *testing.T) {
	cfg := engine.Config{Algorithm: "pd", Shards: 1, Seed: 5}
	src := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	dst := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	srcBase := "http://" + src.HTTPAddr()
	dstBase := "http://" + dst.HTTPAddr()
	create := createBody{Universe: 3, Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5, 1.8}}
	httpJSON(t, "POST", srcBase+"/v1/tenants/a", create, http.StatusCreated)
	for _, a := range []Arrival{{Point: 0, Demands: []int{0, 2}}, {Point: 1, Demands: []int{1}}} {
		httpJSON(t, "POST", srcBase+"/v1/tenants/a/arrive", a, http.StatusOK)
	}
	var tf engine.TenantTransfer
	if err := json.Unmarshal(httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract?served=2", nil, http.StatusOK), &tf); err != nil {
		t.Fatal(err)
	}
	if tf.BaseServed != 2 || len(tf.BaseState) == 0 {
		t.Fatalf("transfer carries %d base arrivals and %d state bytes, want a sealed base of 2", tf.BaseServed, len(tf.BaseState))
	}
	for name, edit := range map[string]func(*engine.TenantTransfer){
		"served+1000":     func(tr *engine.TenantTransfer) { tr.BaseServed += 1000 },
		"construction-5":  func(tr *engine.TenantTransfer) { tr.BaseConstruction = -5 },
		"negative demand": func(tr *engine.TenantTransfer) { tr.Arrivals = []engine.ArrivalRecord{{Point: 0, Demands: []int{-1}}} },
	} {
		bad := tf
		edit(&bad)
		httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", bad, http.StatusBadRequest)
		httpJSON(t, "GET", dstBase+"/v1/tenants/a/snapshot", nil, http.StatusNotFound)
		var info NodeInfo
		if err := json.Unmarshal(httpJSON(t, "GET", dstBase+"/v1/node", nil, http.StatusOK), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tenants != 0 {
			t.Fatalf("%s: refused inject left %d tenants behind", name, info.Tenants)
		}
	}
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", tf, http.StatusOK)
}

// TestTCPResultCodes: the framed-op protocol reports machine-readable
// sentinel codes so a router can distinguish unknown-tenant from transport
// failures without parsing error prose.
func TestTCPResultCodes(t *testing.T) {
	s := startServer(t, Config{TCPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	res := streamOps(t, s.TCPAddr(), []engine.Op{
		{Op: "arrive", Tenant: "ghost", Point: 0, Demands: []int{0}},
	}, false)
	if res.OK || res.Code != CodeUnknownTenant {
		t.Errorf("unknown-tenant result %+v, want code %q", res, CodeUnknownTenant)
	}

	dup := []engine.Op{
		{Op: "create", Tenant: "a", Universe: 2, Distances: [][]float64{{0}}, CostBySize: []float64{0, 1, 1.5}},
		{Op: "create", Tenant: "a", Universe: 2, Distances: [][]float64{{0}}, CostBySize: []float64{0, 1, 1.5}},
	}
	res = streamOps(t, s.TCPAddr(), dup, false)
	if res.OK || res.Code != CodeDuplicateTenant {
		t.Errorf("duplicate-tenant result %+v, want code %q", res, CodeDuplicateTenant)
	}
}
