package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

// TestNodeExtractInjectEndpoints drives the node-side handoff surface the
// cluster router uses: /v1/node identity, extract, inject on a peer, and
// the sentinel statuses for the failure cases.
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

	// Extract failure cases: unknown tenant, and a served= wait, which
	// earlier builds took and this one refuses without touching the tenant.
	httpJSON(t, "POST", srcBase+"/v1/tenants/ghost/extract", nil, http.StatusNotFound)
	httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract?served=3", nil, http.StatusBadRequest)
	if got := httpJSON(t, "GET", srcBase+"/v1/tenants/a/snapshot", nil, http.StatusOK); string(got) != string(before) {
		t.Error("snapshot after a refused served= extract differs from the one before it")
	}

	// Extract every admitted arrival, inject into the peer.
	wire := httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract", nil, http.StatusOK)
	tf := decodeTransfer(t, wire)
	// Without RecordArrivals the capture seals everything into the base
	// state; either way base + tail must account for all three arrivals.
	if tc := tf.Tenants[0]; tc.Tenant != "a" || tc.BaseServed+len(tc.Arrivals) != 3 {
		t.Fatalf("transfer %q: base %d + tail %d arrivals, want 3 total", tc.Tenant, tc.BaseServed, len(tc.Arrivals))
	}
	httpJSON(t, "GET", srcBase+"/v1/tenants/a/snapshot", nil, http.StatusNotFound)

	// Inject body/path mismatch is a 400; the real inject lands the tenant.
	httpJSON(t, "POST", dstBase+"/v1/tenants/b/inject", wire, http.StatusBadRequest)
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", wire, http.StatusOK)
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", wire, http.StatusConflict)

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

	// An export is the same document, and the tenant stays.
	exported := decodeTransfer(t, httpJSON(t, "GET", dstBase+"/v1/tenants/a/export", nil, http.StatusOK))
	if tc := exported.Tenants[0]; tc.Tenant != "a" || tc.BaseServed+len(tc.Arrivals) != 4 {
		t.Errorf("export %q: base %d + tail %d arrivals, want 4 total", tc.Tenant, tc.BaseServed, len(tc.Arrivals))
	}
	httpJSON(t, "GET", dstBase+"/v1/tenants/a/snapshot", nil, http.StatusOK)

	// A seed-mismatched peer refuses the transfer.
	alien := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 6}})
	httpJSON(t, "POST", "http://"+alien.HTTPAddr()+"/v1/tenants/a/inject", wire, http.StatusBadRequest)
}

// decodeTransfer reads an extract or export reply: one tenant's document.
func decodeTransfer(t *testing.T, body []byte) *engine.TenantTransfer {
	t.Helper()
	tf, err := engine.DecodeTransfer(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.Tenants) != 1 {
		t.Fatalf("transfer holds %d tenants, want 1", len(tf.Tenants))
	}
	return tf
}

// encodeTransfer writes a transfer document for an inject body.
func encodeTransfer(t *testing.T, tf *engine.TenantTransfer) []byte {
	t.Helper()
	data, err := engine.EncodeTransfer(tf)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInjectRefusesTamperedTransfer: an inject whose base counters
// contradict its base state (a served count 1000 too high, a negative
// construction cost), whose tail demands a commodity outside the universe,
// or which is not a one-tenant document naming the path's tenant — a JSON
// transfer as builds before the binary transfer send it, a document of
// zero or two tenants, one that names another tenant, a truncated one — is
// a 400 that leaves no tenant behind. The untouched transfer then injects
// cleanly instead of hitting a 409.
func TestInjectRefusesTamperedTransfer(t *testing.T) {
	cfg := engine.Config{Algorithm: "pd", Shards: 1, Seed: 5}
	src := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	dst := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	srcBase := "http://" + src.HTTPAddr()
	dstBase := "http://" + dst.HTTPAddr()
	create := createBody{Universe: 3, Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5, 1.8}}
	for _, id := range []string{"a", "b"} {
		httpJSON(t, "POST", srcBase+"/v1/tenants/"+id, create, http.StatusCreated)
		for _, a := range []Arrival{{Point: 0, Demands: []int{0, 2}}, {Point: 1, Demands: []int{1}}} {
			httpJSON(t, "POST", srcBase+"/v1/tenants/"+id+"/arrive", a, http.StatusOK)
		}
	}
	wire := httpJSON(t, "POST", srcBase+"/v1/tenants/a/extract", nil, http.StatusOK)
	tf := decodeTransfer(t, wire)
	other := decodeTransfer(t, httpJSON(t, "GET", srcBase+"/v1/tenants/b/export", nil, http.StatusOK))
	if tc := tf.Tenants[0]; tc.BaseServed != 2 || len(tc.BaseState) == 0 {
		t.Fatalf("transfer carries %d base arrivals and %d state bytes, want a sealed base of 2", tc.BaseServed, len(tc.BaseState))
	}
	tampered := func(edit func(*engine.TenantCheckpoint)) []byte {
		bad := *tf
		bad.Tenants = []engine.TenantCheckpoint{tf.Tenants[0]}
		edit(&bad.Tenants[0])
		return encodeTransfer(t, &bad)
	}
	withTenants := func(tcs ...engine.TenantCheckpoint) []byte {
		bad := *tf
		bad.Tenants = tcs
		return encodeTransfer(t, &bad)
	}
	legacy, err := json.Marshal(struct {
		Algorithm string `json:"algorithm"`
		Seed      int64  `json:"seed"`
		engine.TenantCheckpoint
	}{tf.Algorithm, tf.Seed, tf.Tenants[0]})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"served+1000":    tampered(func(tc *engine.TenantCheckpoint) { tc.BaseServed += 1000 }),
		"construction-5": tampered(func(tc *engine.TenantCheckpoint) { tc.BaseConstruction = -5 }),
		"outside universe": tampered(func(tc *engine.TenantCheckpoint) {
			tc.Arrivals = []engine.ArrivalRecord{{Point: 0, Demands: []int{3}}}
		}),
		"json transfer":  legacy,
		"no tenants":     withTenants(),
		"two tenants":    withTenants(tf.Tenants[0], other.Tenants[0]),
		"another tenant": withTenants(other.Tenants[0]),
		"truncated":      wire[:len(wire)-1],
		"truncated half": wire[:len(wire)/2],
	} {
		out := httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", body, http.StatusBadRequest)
		if name == "json transfer" && !strings.Contains(string(out), "JSON checkpoint document") {
			t.Errorf("JSON transfer refused with %s, want the JSON document refusal", out)
		}
		httpJSON(t, "GET", dstBase+"/v1/tenants/a/snapshot", nil, http.StatusNotFound)
		var info NodeInfo
		if err := json.Unmarshal(httpJSON(t, "GET", dstBase+"/v1/node", nil, http.StatusOK), &info); err != nil {
			t.Fatal(err)
		}
		if info.Tenants != 0 {
			t.Fatalf("%s: refused inject left %d tenants behind", name, info.Tenants)
		}
	}
	httpJSON(t, "POST", dstBase+"/v1/tenants/a/inject", wire, http.StatusOK)
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

// TestPassiveEndpoints drives the worker surface for follower copies: a
// create with "passive":true, GET /v1/served, the passive_tenants count in
// /v1/metrics and /metrics, and inject?passive=1. A passive copy counts its
// arrivals like a live one, and its snapshot, which builds it, equals the
// live copy's.
func TestPassiveEndpoints(t *testing.T) {
	cfg := engine.Config{Algorithm: "pd", Shards: 2, Seed: 5, RecordArrivals: true}
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	peer := startServer(t, Config{HTTPAddr: "127.0.0.1:0", Engine: cfg})
	base, peerBase := "http://"+s.HTTPAddr(), "http://"+peer.HTTPAddr()
	create := createBody{Universe: 3, Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5, 1.8}}
	httpJSON(t, "POST", base+"/v1/tenants/live", create, http.StatusCreated)
	create.Passive = true
	httpJSON(t, "POST", base+"/v1/tenants/copy", create, http.StatusCreated)
	for _, id := range []string{"live", "copy"} {
		for _, a := range []Arrival{{Point: 0, Demands: []int{0, 2}}, {Point: 1, Demands: []int{1}}} {
			httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", a, http.StatusOK)
		}
	}
	passive := func(base string) int {
		var m Metrics
		if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
			t.Fatal(err)
		}
		return m.PassiveTenants
	}

	var counts []engine.TenantServed
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/served", nil, http.StatusOK), &counts); err != nil {
		t.Fatal(err)
	}
	want := []engine.TenantServed{{Tenant: "copy", Served: 2, Admitted: 2}, {Tenant: "live", Served: 2, Admitted: 2}}
	if len(counts) != 2 || counts[0] != want[0] || counts[1] != want[1] {
		t.Fatalf("GET /v1/served = %+v, want %+v", counts, want)
	}
	if n := passive(base); n != 1 {
		t.Fatalf("passive_tenants %d, want 1", n)
	}
	if prom := string(httpJSON(t, "GET", base+"/metrics", nil, http.StatusOK)); !strings.Contains(prom, "\nomflp_passive_tenants 1\n") {
		t.Errorf("/metrics lacks omflp_passive_tenants 1:\n%s", prom)
	}

	// Export the passive copy, which a recording engine captures as its
	// base and tail stand, and inject it passive on the peer.
	wire := httpJSON(t, "GET", base+"/v1/tenants/copy/export", nil, http.StatusOK)
	if n := passive(base); n != 1 {
		t.Fatalf("passive_tenants %d after an export, want 1", n)
	}
	httpJSON(t, "POST", peerBase+"/v1/tenants/copy/inject?passive=maybe", wire, http.StatusBadRequest)
	httpJSON(t, "POST", peerBase+"/v1/tenants/copy/inject?passive=1", wire, http.StatusOK)
	if n := passive(peerBase); n != 1 {
		t.Fatalf("peer passive_tenants %d after inject?passive=1, want 1", n)
	}
	live := httpJSON(t, "GET", base+"/v1/tenants/live/snapshot", nil, http.StatusOK)
	for _, b := range []string{base, peerBase} {
		got := httpJSON(t, "GET", b+"/v1/tenants/copy/snapshot", nil, http.StatusOK)
		if strings.Replace(string(got), `"copy"`, `"live"`, 1) != string(live) {
			t.Errorf("%s: passive copy's snapshot %s differs from the live tenant's %s", b, got, live)
		}
		if n := passive(b); n != 0 {
			t.Errorf("%s: passive_tenants %d after the snapshot, want 0", b, n)
		}
	}
}
