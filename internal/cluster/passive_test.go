package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// workerMetrics reads one worker's GET /v1/metrics.
func workerMetrics(t *testing.T, w *server.Server) server.Metrics {
	t.Helper()
	var m server.Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", "http://"+w.HTTPAddr()+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPassiveFollowerPromotion: on a replicated pair every follower is
// passive — the follower worker reports all its tenants passive, the owner
// none. After the owner's Shutdown the promoted copies are still passive
// (promotion calls no worker), the rest of the workload goes to them, and
// the router's artifact equals the single-node reference; the snapshot
// read built them. Run with and without checkpoint dirs, that is on
// recording and non-recording workers.
func TestPassiveFollowerPromotion(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 30
	want := referenceArtifact(t, 61, tenants, arrivals)
	for _, ckpt := range []bool{false, true} {
		name := "no-checkpoint-dir"
		if ckpt {
			name = "checkpoint-dir"
		}
		t.Run(name, func(t *testing.T) {
			dir := func() string {
				if ckpt {
					return t.TempDir()
				}
				return ""
			}
			w1 := startWorker(t, 61, dir())
			w2 := startWorker(t, 61, dir())
			r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}, Replicate: true})
			base := "http://" + r.HTTPAddr()
			for i := 0; i < tenants; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
			}
			for i := 0; i < cut; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
			}
			// Every owner lands on node 0 and every follower on node 1
			// (see TestReplicationWorkerLoss).
			if m := workerMetrics(t, w2); m.Tenants != tenants || m.PassiveTenants != tenants {
				t.Fatalf("follower worker: %d tenants, %d passive; want %d and %d", m.Tenants, m.PassiveTenants, tenants, tenants)
			}
			if m := workerMetrics(t, w1); m.Tenants != tenants || m.PassiveTenants != 0 {
				t.Fatalf("owner worker: %d tenants, %d passive; want %d and 0", m.Tenants, m.PassiveTenants, tenants)
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := w1.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "follower promotion", func() bool { return r.promotions.Load() == tenants })
			if m := workerMetrics(t, w2); m.PassiveTenants != tenants {
				t.Fatalf("promotion built %d of %d passive copies, want none", tenants-m.PassiveTenants, tenants)
			}
			for i := cut; i < arrivals; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
			}
			if got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK); !bytes.Equal(got, want) {
				t.Error("snapshots after promoting passive followers differ from the single-node artifact")
			}
			if m := workerMetrics(t, w2); m.PassiveTenants != 0 {
				t.Errorf("%d promoted tenants still passive after the snapshot read, want 0", m.PassiveTenants)
			}
		})
	}
}

// TestPassiveFollowerRejoin: when the follower node of a replicated pair
// is marked down and rejoins, the router re-syncs it from GET /v1/served.
// Its tenants stay passive, and the route ledgers and followers stay as
// they were.
func TestPassiveFollowerRejoin(t *testing.T) {
	const tenants, arrivals = 3, 30
	w1 := startWorker(t, 62, "")
	w2 := startWorker(t, 62, "")
	r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}, Replicate: true, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	for i := 0; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	type routeView struct {
		node, follower int
		count          int64
	}
	view := func() map[string]routeView {
		r.mu.RLock()
		defer r.mu.RUnlock()
		out := map[string]routeView{}
		for id, rt := range r.routes {
			out[id] = routeView{rt.node, rt.follower, rt.count.Load()}
		}
		return out
	}
	before := view()
	if m := workerMetrics(t, w2); m.PassiveTenants != tenants {
		t.Fatalf("follower worker holds %d passive tenants, want %d", m.PassiveTenants, tenants)
	}

	n := r.nodes[1]
	n.mu.Lock()
	n.healthy = false
	n.mu.Unlock()
	if err := r.probe(n); err != nil {
		t.Fatalf("rejoin probe: %v", err)
	}
	if !n.isHealthy() {
		t.Fatal("follower node did not rejoin")
	}
	if m := workerMetrics(t, w2); m.PassiveTenants != tenants {
		t.Errorf("rejoin built %d of %d passive followers, want none", tenants-m.PassiveTenants, tenants)
	}
	after := view()
	for id, rv := range before {
		if after[id] != rv {
			t.Errorf("route %s: %+v before the rejoin, %+v after", id, rv, after[id])
		}
	}
	if len(after) != len(before) {
		t.Errorf("%d routes after the rejoin, want %d", len(after), len(before))
	}
}

// TestRejoinServedFallback: a (re)joining node is read through
// GET /v1/served only. Any failure of the call, a 404 or 405 from a worker
// without the route included, fails the probe without a snapshot read, so
// a rejoin never builds a node's passive followers; the next probe retries.
func TestRejoinServedFallback(t *testing.T) {
	var code, snapReads atomic.Int64 // code: GET /v1/served's status
	code.Store(http.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/node", func(w http.ResponseWriter, req *http.Request) {
		json.NewEncoder(w).Encode(server.NodeInfo{Algorithm: "pd", Seed: 1})
	})
	mux.HandleFunc("GET /v1/served", func(w http.ResponseWriter, req *http.Request) {
		if c := int(code.Load()); c != http.StatusOK {
			http.Error(w, "served unavailable", c)
			return
		}
		json.NewEncoder(w).Encode([]engine.TenantServed{{Tenant: "t0", Served: 7, Admitted: 7}})
	})
	mux.HandleFunc("GET /v1/snapshots", func(w http.ResponseWriter, req *http.Request) {
		snapReads.Add(1)
		json.NewEncoder(w).Encode([]engine.TenantSnapshot{{Tenant: "t0", Algorithm: "pd", Served: 5}})
	})
	fake := httptest.NewServer(mux)
	defer fake.Close()
	r := startRouter(t, Config{Nodes: []string{strings.TrimPrefix(fake.URL, "http://")}, HealthEvery: time.Hour})
	n := r.nodes[0]
	ledger := func() int64 {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return r.routes["t0"].count.Load()
	}
	if got := ledger(); got != 7 || snapReads.Load() != 0 {
		t.Fatalf("join: ledger %d after %d snapshot reads, want 7 from GET /v1/served and none", got, snapReads.Load())
	}
	for _, c := range []int{
		http.StatusNotFound,
		http.StatusInternalServerError,
		http.StatusMethodNotAllowed,
		http.StatusServiceUnavailable,
		http.StatusOK,
	} {
		code.Store(int64(c))
		n.mu.Lock()
		n.healthy = false
		n.mu.Unlock()
		err := r.probe(n)
		if c == http.StatusOK {
			if err != nil || snapReads.Load() != 0 || ledger() != 7 {
				t.Errorf("served 200: probe %v, %d snapshot reads, ledger %d; want a rejoin from GET /v1/served, ledger 7",
					err, snapReads.Load(), ledger())
			}
		} else if err == nil || n.isHealthy() || snapReads.Load() != 0 {
			t.Errorf("served %d: probe %v, healthy %v, %d snapshot reads; want a failed probe, still down, no snapshot read",
				c, err, n.isHealthy(), snapReads.Load())
		}
	}
}
