package cluster

// Tests for the hardening layers: the durable route log, router restart,
// standby failover, tenant replication, and deterministic fault injection.
// Every recovery path closes the loop against the same golden the rest of
// the suite uses — the single-node /v1/snapshots artifact for the identical
// workload — so "survived the fault" always means "byte-identical state",
// never just "did not crash".

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/server"
)

// TestRouteLogRoundTrip: the folded state of a route log survives a clean
// close/reopen cycle (base snapshot path) with sequence numbers intact.
func TestRouteLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rl, err := openRouteLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	rl.append(routeEvent{Op: "place", Tenant: "a", Node: "n1:1", Follower: "n2:1"})
	rl.append(routeEvent{Op: "place", Tenant: "b", Node: "n2:1"})
	rl.append(routeEvent{Op: "counts", Counts: map[string]int64{"a": 12, "b": 7}})
	rl.append(routeEvent{Op: "flip", Tenant: "b", Node: "n1:1", Count: 9})
	rl.append(routeEvent{Op: "promote", Tenant: "a", Node: "n2:1", Count: 12, Epoch: 1})
	rl.append(routeEvent{Op: "place", Tenant: "c", Node: "n1:1"})
	rl.append(routeEvent{Op: "drop", Tenant: "c"})
	want, seq := rl.snapshot()
	rl.close()

	re, err := openRouteLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	got, gotSeq := re.snapshot()
	if gotSeq != seq {
		t.Errorf("reopened log at seq %d, want %d", gotSeq, seq)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reopened state %+v, want %+v", got, want)
	}
	if re.restored != len(want) {
		t.Errorf("restored %d routes, want %d", re.restored, len(want))
	}
}

// TestRouteLogTornJournal: a torn final journal line — the expected kill -9
// artifact — stops replay cleanly instead of corrupting the restore, and so
// does a last line that lost only its newline. Either way the event
// appended after the restart survives the next one: it must not be glued
// onto the tail that the first restart stopped at.
func TestRouteLogTornJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(journal []byte) []byte
	}{
		{"torn line", func(j []byte) []byte { return append(j, `{"seq":3,"op":"pla`...) }},
		{"no newline", func(j []byte) []byte { return bytes.TrimSuffix(j, []byte("\n")) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jpath := filepath.Join(dir, routesJournalFile)
			rl, err := openRouteLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			rl.append(routeEvent{Op: "place", Tenant: "a", Node: "n1:1"})
			rl.append(routeEvent{Op: "place", Tenant: "b", Node: "n2:1", Count: 5})
			want, seq := rl.snapshot()
			// No close: simulate a kill -9 that tore the last write.
			rl.journal.Close()
			data, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jpath, tc.tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			re, err := openRouteLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			got, gotSeq := re.snapshot()
			if gotSeq != seq {
				t.Errorf("replay past the tear: seq %d, want %d", gotSeq, seq)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("restored state %+v, want %+v", got, want)
			}
			re.append(routeEvent{Op: "place", Tenant: "c", Node: "n1:1"})
			want["c"] = routeRecord{Node: "n1:1"}
			re.journal.Close() // a second kill -9

			again, err := openRouteLog(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer again.close()
			if got, _ := again.snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("second restart restored %+v, want %+v", got, want)
			}
		})
	}
}

// TestRouterRestartRestoresRoutes: a router with a StateDir restores its
// routing table and ledgers from its own checkpoint — O(1), no node
// snapshot rescans — and serves the remaining workload to byte identity.
func TestRouterRestartRestoresRoutes(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 36
	want := referenceArtifact(t, 31, tenants, arrivals)

	w1 := startWorker(t, 31, "")
	w2 := startWorker(t, 31, "")
	nodes := []string{w1.HTTPAddr(), w2.HTTPAddr()}
	dir := t.TempDir()

	r1 := startRouter(t, Config{Nodes: nodes, StateDir: dir})
	base := "http://" + r1.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	if err := r1.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	r2 := startRouter(t, Config{Nodes: nodes, StateDir: dir})
	base = "http://" + r2.HTTPAddr()
	if r2.routesRestored != tenants {
		t.Fatalf("restored %d routes from the route log, want %d", r2.routesRestored, tenants)
	}
	var hz struct {
		Role           string `json:"role"`
		RoutesRestored int    `json:"routes_restored"`
	}
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/healthz", nil, http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "router" || hz.RoutesRestored != tenants {
		t.Errorf("healthz role=%s routes_restored=%d, want router/%d", hz.Role, hz.RoutesRestored, tenants)
	}
	// A clean shutdown folded the exact ledgers into the base snapshot.
	r2.mu.RLock()
	var restored int64
	for _, rt := range r2.routes {
		restored += rt.count.Load()
	}
	r2.mu.RUnlock()
	if restored != cut {
		t.Errorf("restored ledgers sum to %d, want %d", restored, cut)
	}

	for i := cut; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("snapshots after router restart differ from the single-node artifact")
	}
}

// TestStandbyPromoteByteIdentity: a standby router follows the primary's
// route journal, refuses routing verbs while passive, promotes itself when
// the primary dies, and serves the rest of the workload to byte identity.
func TestStandbyPromoteByteIdentity(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 30
	want := referenceArtifact(t, 41, tenants, arrivals)

	w1 := startWorker(t, 41, "")
	w2 := startWorker(t, 41, "")
	nodes := []string{w1.HTTPAddr(), w2.HTTPAddr()}

	primary := startRouter(t, Config{Nodes: nodes, TCPAddr: "127.0.0.1:0", StateDir: t.TempDir()})
	pbase := "http://" + primary.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", pbase+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", pbase+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}

	standby := startRouter(t, Config{
		Nodes: nodes, StandbyOf: primary.TCPAddr(), FailoverAfter: 1, StateDir: t.TempDir(),
	})
	sbase := "http://" + standby.HTTPAddr()

	// Passive standbys refuse routing verbs with the rotation signal.
	httpJSON(t, "GET", sbase+"/v1/snapshots", nil, http.StatusServiceUnavailable)

	// The follow stream must deliver the full table and, within a health
	// tick, the exact ledgers.
	waitFor(t, "standby to follow the route table", func() bool {
		state, _ := standby.rlog.snapshot()
		if len(state) != tenants {
			return false
		}
		var sum int64
		for _, rec := range state {
			sum += rec.Count
		}
		return sum == cut
	})

	if err := primary.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "standby promotion", func() bool { return !standby.standby.Load() })

	var hz struct {
		Role string `json:"role"`
	}
	if err := json.Unmarshal(httpJSON(t, "GET", sbase+"/healthz", nil, http.StatusOK), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Role != "router" {
		t.Errorf("promoted standby reports role %q, want router", hz.Role)
	}

	for i := cut; i < arrivals; i++ {
		httpJSON(t, "POST", sbase+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	got := httpJSON(t, "GET", sbase+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("snapshots after standby takeover differ from the single-node artifact")
	}
}

// TestReplicationWorkerLoss: with Replicate on, every acknowledged arrival
// survives the owner node's death — the followers promote and the final
// artifact is byte-identical to the fault-free single-node run.
func TestReplicationWorkerLoss(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 30
	want := referenceArtifact(t, 51, tenants, arrivals)

	w1 := startWorker(t, 51, "")
	w2 := startWorker(t, 51, "")
	r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}, Replicate: true})
	base := "http://" + r.HTTPAddr()

	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}
	var m Metrics
	if err := json.Unmarshal(httpJSON(t, "GET", base+"/v1/metrics", nil, http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	if m.ReplicatedTenants != tenants {
		t.Fatalf("%d of %d tenants replicated", m.ReplicatedTenants, tenants)
	}
	// Least-load placement with two nodes puts every owner on node 0 (ties
	// go to the lowest index) and every follower on node 1 — so killing
	// node 0 exercises promotion for the whole table.
	r.mu.RLock()
	for id, rt := range r.routes {
		if rt.node != 0 || rt.follower != 1 {
			t.Fatalf("route %s: owner %d follower %d, want 0/1", id, rt.node, rt.follower)
		}
	}
	r.mu.RUnlock()

	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}

	// Kill the owner node. Every pre-kill arrival was acknowledged only
	// after both replicas admitted it, so zero acknowledged loss is exactly
	// byte identity of the survivor's state.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower promotion", func() bool { return r.promotions.Load() == tenants })

	r.mu.RLock()
	for id, rt := range r.routes {
		if rt.node != 1 || rt.epoch != 1 {
			t.Errorf("route %s after failover: owner %d epoch %d, want 1/1", id, rt.node, rt.epoch)
		}
		if rt.follower != -1 {
			t.Errorf("route %s kept follower %d with one node left", id, rt.follower)
		}
	}
	r.mu.RUnlock()
	if r.failovers.Load() == 0 {
		t.Error("failover counter never advanced")
	}

	for i := cut; i < arrivals; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i%tenants)+"/arrive", testArrival(i), http.StatusOK)
	}
	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("snapshots after worker loss differ from the single-node artifact")
	}
}

// TestMigrationFaultInjection drives the migration coordinator into every
// injected failure phase, with arrivals buffered between quiesce and capture
// so every outcome has a tail to drain, and asserts the documented outcome:
// extract and inject faults abort cleanly back to the source, a replay
// fault lands the route on the target with the buffered tail dropped, a
// flip fault lands the route on the target anyway (state lives there), and
// an inject+reinject double fault drops the route rather than leaving it
// split. In every case that keeps the tail, the tenant's final snapshot is
// byte-identical — no arrival is lost or double-served by a faulted
// migration.
func TestMigrationFaultInjection(t *testing.T) {
	const arrivals, cut, moving = 40, 20, 5
	cases := []struct {
		name    string
		fail    map[string]bool
		flipped bool // route ends on the target despite the error
		dropped bool // route is gone (tenant needs manual restore)
		lost    bool // the failed owner leg dropped the buffered tail
	}{
		{name: "extract-fault-aborts", fail: map[string]bool{"extract": true}},
		{name: "inject-fault-aborts", fail: map[string]bool{"inject": true}},
		{name: "replay-fault-flips-and-drops-tail", fail: map[string]bool{"replay": true}, flipped: true, lost: true},
		{name: "flip-fault-flips-anyway", fail: map[string]bool{"flip": true}, flipped: true},
		{name: "double-fault-drops-route", fail: map[string]bool{"inject": true, "reinject": true}, dropped: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceArtifact(t, 61, 1, arrivals)
			w1 := startWorker(t, 61, "")
			w2 := startWorker(t, 61, "")
			id := tenantName(0)
			var base string
			// The hook runs on this goroutine, inside Migrate. Arrivals
			// posted from the "extract" phase land after quiesce and buffer
			// in the router.
			r := startFaultRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}}, func(phase string) error {
				if phase == "extract" {
					for i := cut; i < cut+moving; i++ {
						httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
					}
				}
				if tc.fail[phase] {
					return fmt.Errorf("injected %s fault", phase)
				}
				return nil
			})
			base = "http://" + r.HTTPAddr()
			httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
			for i := 0; i < cut; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
			}

			if _, err := r.Migrate(id, w2.HTTPAddr()); err == nil {
				t.Fatal("migration with an injected fault reported success")
			}
			if n := r.migrations.Load(); n != 0 {
				t.Errorf("failed migration counted as complete (%d)", n)
			}

			if tc.dropped {
				// The tenant's state was lost mid-move; the route must be
				// gone so requests fail fast instead of splitting.
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(cut), http.StatusMisdirectedRequest)
				return
			}

			r.mu.RLock()
			rt := r.routes[id]
			var node int
			var count int64
			migrating := false
			if rt != nil {
				node, count, migrating = rt.node, rt.count.Load(), rt.mig != nil
			}
			r.mu.RUnlock()
			if rt == nil {
				t.Fatal("route vanished after a recoverable migration fault")
			}
			if migrating {
				t.Fatal("route left in the migrating state")
			}
			wantNode := 0
			if tc.flipped {
				wantNode = 1
			}
			if node != wantNode {
				t.Errorf("route on node %d, want %d", node, wantNode)
			}
			if tc.lost {
				// The ledger names exactly what the target admitted.
				if admitted := admittedOn(t, w2.HTTPAddr(), id); count != admitted || count != cut {
					t.Errorf("ledger %d, target admitted %d, want both %d", count, admitted, cut)
				}
				return
			}
			if count != cut+moving {
				t.Errorf("ledger reads %d after the faulted migration, want %d", count, cut+moving)
			}

			for i := cut + moving; i < arrivals; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
			}
			got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Error("snapshots after the faulted migration differ from the single-node artifact")
			}
		})
	}
}

// admittedOn reads a worker's admitted count for tenant.
func admittedOn(t *testing.T, worker, tenant string) int64 {
	t.Helper()
	var doc struct {
		Admitted int64 `json:"admitted"`
	}
	if err := json.Unmarshal(httpJSON(t, "GET", "http://"+worker+"/v1/tenants/"+tenant+"/served", nil, http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	return doc.Admitted
}

// postKeyed posts arrivals [lo, hi) as one batch keyed at stream position
// lo and returns the router's (accepted, deduped) counts.
func postKeyed(t *testing.T, base, tenant string, lo, hi int) (int, int) {
	t.Helper()
	batch := make([]server.Arrival, 0, hi-lo)
	for i := lo; i < hi; i++ {
		batch = append(batch, testArrival(i))
	}
	body, status := tryJSON(t, "POST", base+"/v1/tenants/"+tenant+"/arrive",
		map[string]interface{}{"arrivals": batch}, map[string]string{server.IdemHeader: strconv.Itoa(lo)})
	if status != http.StatusOK {
		t.Fatalf("keyed arrive [%d, %d): status %d — body %s", lo, hi, status, body)
	}
	var out struct {
		Accepted int `json:"accepted"`
		Deduped  int `json:"deduped"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Accepted, out.Deduped
}

// TestKeyedRetryDuringDrain: a keyed retry that lands while the drain is
// replaying its batch — taken from the buffer, not yet admitted into the
// ledger — is trimmed as already accounted, never served a second time.
func TestKeyedRetryDuringDrain(t *testing.T) {
	const cut = 10
	w1 := startWorker(t, 81, "")
	w2 := startWorker(t, 81, "")
	id := tenantName(0)
	var base string
	retried := false
	r := startFaultRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}}, func(phase string) error {
		switch {
		case phase == "extract":
			postKeyed(t, base, id, cut, cut+1) // buffers at position cut
		case phase == "replay" && !retried:
			retried = true
			if acc, dd := postKeyed(t, base, id, cut, cut+1); acc != 1 || dd != 1 {
				t.Errorf("keyed retry mid-drain: accepted %d, deduped %d; want 1, 1", acc, dd)
			}
		}
		return nil
	})
	base = "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	postKeyed(t, base, id, 0, cut)

	res, err := r.Migrate(id, w2.HTTPAddr())
	if err != nil {
		t.Fatal(err)
	}
	if !retried || res.Replayed != 1 {
		t.Errorf("migration replayed %d buffered arrivals (retry sent: %v), want 1", res.Replayed, retried)
	}
	if admitted := admittedOn(t, w2.HTTPAddr(), id); admitted != cut+1 {
		t.Errorf("target admitted %d arrivals for %d positions", admitted, cut+1)
	}
	if m := r.Metrics(); m.Served != cut+1 {
		t.Errorf("ledger accounts %d arrivals, want %d", m.Served, cut+1)
	}
}

// TestDrainRetriesTransientFailure: a drain leg the target refuses with a
// 503 is retried under its key, not dropped. The target sits behind a
// front that answers its first arrive POST with the refusal and forwards
// everything else to the worker; the move still lands with every buffered
// arrival replayed exactly once.
func TestDrainRetriesTransientFailure(t *testing.T) {
	const cut, moving = 10, 4
	w1 := startWorker(t, 83, "")
	w2 := startWorker(t, 83, "")
	proxy := httputil.NewSingleHostReverseProxy(&url.URL{Scheme: "http", Host: w2.HTTPAddr()})
	var refused atomic.Bool
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/arrive") && refused.CompareAndSwap(false, true) {
			http.Error(w, `{"error":"injected refusal"}`, http.StatusServiceUnavailable)
			return
		}
		proxy.ServeHTTP(w, req)
	}))
	defer front.Close()
	target := strings.TrimPrefix(front.URL, "http://")

	id := tenantName(0)
	var base string
	// Arrivals posted from the "extract" phase land after quiesce and
	// buffer in the router.
	r := startFaultRouter(t, Config{Nodes: []string{w1.HTTPAddr(), target}}, func(phase string) error {
		if phase == "extract" {
			for i := cut; i < cut+moving; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
			}
		}
		return nil
	})
	base = "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}

	res, err := r.Migrate(id, target)
	if err != nil {
		t.Fatal(err)
	}
	if !refused.Load() || r.retries.Load() == 0 {
		t.Fatalf("no drain leg was refused and retried (refused %v, retries %d)", refused.Load(), r.retries.Load())
	}
	if res.Replayed != moving {
		t.Errorf("migration replayed %d buffered arrivals, want %d", res.Replayed, moving)
	}
	r.mu.RLock()
	count := r.routes[id].count.Load()
	r.mu.RUnlock()
	if admitted := admittedOn(t, w2.HTTPAddr(), id); count != admitted || count != cut+moving {
		t.Errorf("ledger %d, target admitted %d, want both %d", count, admitted, cut+moving)
	}
}

// TestAbortDrainAfterRefusedTCPArrival: an arrival the owner refuses over
// the router's TCP wire (a demand outside the tenant's universe) fails
// that upstream stream, yet the ledger counted it when the router wrote
// the frame. A move of the tenant finds the owner short of the ledger at
// quiesce, waits for it, adopts the owner's admitted count and drops the
// follower, whose stream no longer matches the ledger. When the move then
// aborts, its drain admits every buffered arrival on the owner.
func TestAbortDrainAfterRefusedTCPArrival(t *testing.T) {
	const cut, moving = 10, 4
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, 87, "").HTTPAddr()
	}
	id := tenantName(0)
	var base string
	cfg := Config{Nodes: nodes, Replicate: true, TCPAddr: "127.0.0.1:0", HealthEvery: time.Hour}
	r := startFaultRouter(t, cfg, func(phase string) error {
		if phase != "extract" {
			return nil
		}
		for i := cut; i < cut+moving; i++ {
			httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
		}
		return fmt.Errorf("injected extract failure")
	})
	base = "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	route := func() (owner *node, follower int, ledger int64) {
		r.mu.RLock()
		defer r.mu.RUnlock()
		rt := r.routes[id]
		return r.nodes[rt.node], rt.follower, rt.count.Load()
	}
	c := dialBinary(t, r.TCPAddr())
	c.frame(server.AppendWireArrive(nil, c.ref(id), 0, []int{testCreate.Universe}))
	c.flush()
	waitFor(t, "the ledger to count the refused arrival", func() bool {
		_, _, ledger := route()
		return ledger == cut+1
	})

	owner, follower, _ := route()
	if follower < 0 {
		t.Fatal("tenant placed without a follower")
	}
	target := ""
	for _, n := range r.nodes {
		if n != owner && n.idx != follower {
			target = n.addr
		}
	}
	if _, err := r.Migrate(id, target); err == nil || !strings.Contains(err.Error(), "injected extract failure") {
		t.Fatalf("Migrate: %v, want the injected extract failure", err)
	}
	if admitted := admittedOn(t, owner.addr, id); admitted != cut+moving {
		t.Errorf("owner admitted %d arrivals, want %d: the abort's drain dropped buffered arrivals", admitted, cut+moving)
	}
	if o, f, ledger := route(); o != owner || f != -1 || ledger != cut+moving {
		t.Errorf("route on %s, follower %d, ledger %d; want %s, -1, %d", o.addr, f, ledger, owner.addr, cut+moving)
	}
}

// TestMigrateAfterRefusedTCPArrival: an arrival the owner refuses over the
// router's TCP wire leaves the ledger one ahead of the owner. The next move
// finds the owner short of the ledger at quiesce, waits for it, and then
// moves the tenant at the owner's count: the ledger and the target agree,
// the follower, whose stream no longer matches, is dropped, and HTTP
// arrivals keep being admitted.
func TestMigrateAfterRefusedTCPArrival(t *testing.T) {
	const seed, cut = 97, 10
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, seed, "").HTTPAddr()
	}
	id := tenantName(0)
	r := startRouter(t, Config{Nodes: nodes, Replicate: true, TCPAddr: "127.0.0.1:0", HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	route := func() (owner, follower int, ledger int64) {
		r.mu.RLock()
		defer r.mu.RUnlock()
		rt := r.routes[id]
		return rt.node, rt.follower, rt.count.Load()
	}
	c := dialBinary(t, r.TCPAddr())
	c.frame(server.AppendWireArrive(nil, c.ref(id), 0, []int{testCreate.Universe}))
	c.flush()
	waitFor(t, "the ledger to count the refused arrival", func() bool {
		_, _, ledger := route()
		return ledger == cut+1
	})
	owner, follower, _ := route()
	if follower < 0 {
		t.Fatal("tenant placed without a follower")
	}
	target := 3 - owner - follower

	res, err := r.Migrate(id, nodes[target])
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != cut {
		t.Errorf("migration served %d, want the owner's %d", res.Served, cut)
	}
	if node, f, ledger := route(); node != target || f != -1 || ledger != cut {
		t.Errorf("route on node %d, follower %d, ledger %d; want %d, -1, %d", node, f, ledger, target, cut)
	}
	httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(cut), http.StatusOK)
	want := referenceArtifact(t, seed, 1, cut+1)
	if got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK); !bytes.Equal(got, want) {
		t.Error("snapshots after the move differ from the single-node artifact")
	}
}

// TestMigrateOwnerAheadOfLedger: an arrival posted straight to the owner
// worker puts the owner one ahead of the ledger. The move adopts the
// owner's count at quiesce, captures every arrival it admitted and drops
// the follower, which never saw that arrival.
func TestMigrateOwnerAheadOfLedger(t *testing.T) {
	const seed, cut = 99, 10
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, seed, "").HTTPAddr()
	}
	id := tenantName(0)
	r := startRouter(t, Config{Nodes: nodes, Replicate: true, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	r.mu.RLock()
	owner, follower := r.routes[id].node, r.routes[id].follower
	r.mu.RUnlock()
	if follower < 0 {
		t.Fatal("tenant placed without a follower")
	}
	httpJSON(t, "POST", "http://"+nodes[owner]+"/v1/tenants/"+id+"/arrive", testArrival(cut), http.StatusOK)
	target := 3 - owner - follower

	res, err := r.Migrate(id, nodes[target])
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != cut+1 {
		t.Errorf("migration served %d, want the owner's %d", res.Served, cut+1)
	}
	r.mu.RLock()
	node, f, ledger := r.routes[id].node, r.routes[id].follower, r.routes[id].count.Load()
	r.mu.RUnlock()
	if node != target || f != -1 || ledger != cut+1 {
		t.Errorf("route on node %d, follower %d, ledger %d; want %d, -1, %d", node, f, ledger, target, cut+1)
	}
	want := referenceArtifact(t, seed, 1, cut+1)
	if got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK); !bytes.Equal(got, want) {
		t.Error("snapshots after the move differ from the single-node artifact")
	}
}

// TestMigrateOwnerUnreadableAborts: a move whose owner cannot be read at
// quiesce aborts there. The route stays on the owner, stops moving and
// keeps its ledger, and the target never hears of the tenant.
func TestMigrateOwnerUnreadableAborts(t *testing.T) {
	const cut = 5
	owner := startWorker(t, 101, "")
	target := startWorker(t, 101, "")
	id := tenantName(0)
	r := startRouter(t, Config{Nodes: []string{owner.HTTPAddr(), target.HTTPAddr()}, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := owner.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := r.Migrate(id, target.HTTPAddr()); err == nil || !strings.Contains(err.Error(), "admitted count") {
		t.Fatalf("Migrate with its owner down: %v, want the owner read failure", err)
	}
	r.mu.RLock()
	node, ledger, moving := r.routes[id].node, r.routes[id].count.Load(), r.routes[id].mig != nil
	r.mu.RUnlock()
	if node != 0 || ledger != cut || moving {
		t.Errorf("route on node %d, ledger %d, moving %v; want 0, %d, false", node, ledger, moving, cut)
	}
	httpJSON(t, "GET", "http://"+target.HTTPAddr()+"/v1/tenants/"+id+"/served", nil, http.StatusNotFound)
}

// TestDrainSkipsRefusedArrival: an arrival the router buffered during a
// move but the owner refuses (a demand id equal to the universe) is cut
// from the drain, uncounted, and the valid arrivals behind it still drain.
// The follower gets exactly the prefix the owner admitted, so it stays in
// step and the route keeps it.
func TestDrainSkipsRefusedArrival(t *testing.T) {
	const cut = 10
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, 89, "").HTTPAddr()
	}
	id := tenantName(0)
	var base string
	cfg := Config{Nodes: nodes, Replicate: true, HealthEvery: time.Hour}
	r := startFaultRouter(t, cfg, func(phase string) error {
		if phase == "extract" {
			httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(cut), http.StatusOK)
			httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive",
				server.Arrival{Point: 0, Demands: []int{testCreate.Universe}}, http.StatusOK)
			for i := cut + 1; i < cut+4; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
			}
		}
		return nil
	})
	base = "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	r.mu.RLock()
	owner, follower := r.routes[id].node, r.routes[id].follower
	r.mu.RUnlock()
	if follower < 0 {
		t.Fatal("tenant placed without a follower")
	}
	target := 3 - owner - follower

	res, err := r.Migrate(id, nodes[target])
	if err != nil {
		t.Fatal(err)
	}
	if res.Replayed != 4 {
		t.Errorf("migration replayed %d buffered arrivals, want 4", res.Replayed)
	}
	r.mu.RLock()
	rt := r.routes[id]
	node, f, ledger := rt.node, rt.follower, rt.count.Load()
	r.mu.RUnlock()
	if node != target || f != follower || ledger != cut+4 {
		t.Errorf("route on node %d, follower %d, ledger %d; want %d, %d, %d", node, f, ledger, target, follower, cut+4)
	}
	for _, n := range []int{target, follower} {
		if got := admittedOn(t, nodes[n], id); got != cut+4 {
			t.Errorf("node %d admitted %d arrivals, want %d", n, got, cut+4)
		}
	}
	want := referenceArtifact(t, 89, 1, cut+4)
	if got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK); !bytes.Equal(got, want) {
		t.Error("snapshots after the drain differ from the single-node artifact")
	}
}

// TestForwardRefusalKeepsFollower: an HTTP batch whose second arrival the
// owner refuses (a demand id equal to the universe) still sends the
// follower the one arrival the owner admitted, so the follower stays in
// step with the ledger and the next forward keeps it.
func TestForwardRefusalKeepsFollower(t *testing.T) {
	const cut = 5
	nodes := []string{startWorker(t, 93, "").HTTPAddr(), startWorker(t, 93, "").HTTPAddr()}
	id := tenantName(0)
	r := startRouter(t, Config{Nodes: nodes, Replicate: true, HealthEvery: time.Hour})
	base := "http://" + r.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	bad := server.Arrival{Point: 0, Demands: []int{testCreate.Universe}}
	httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive",
		map[string]interface{}{"arrivals": []server.Arrival{testArrival(cut), bad, testArrival(cut + 1)}}, http.StatusBadGateway)
	httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(cut+1), http.StatusOK)
	r.mu.RLock()
	f, ledger := r.routes[id].follower, r.routes[id].count.Load()
	r.mu.RUnlock()
	if f < 0 || ledger != cut+2 {
		t.Errorf("follower %d, ledger %d; want a follower and %d", f, ledger, cut+2)
	}
	for _, n := range nodes {
		if got := admittedOn(t, n, id); got != cut+2 {
			t.Errorf("node %s admitted %d arrivals, want %d", n, got, cut+2)
		}
	}
}

// TestMigrationKeepsMidMoveDegrade: a follower degraded while its tenant
// migrates — by a forward whose follower write failed just before the
// quiesce — stays degraded. The drain feeds it nothing more, and the flip
// journals the follower the route holds at settle, so neither the route
// log nor a standby following it brings the diverged replica back.
func TestMigrationKeepsMidMoveDegrade(t *testing.T) {
	const cut, moving = 10, 3
	nodes := make([]string, 3)
	for i := range nodes {
		nodes[i] = startWorker(t, 71, "").HTTPAddr()
	}
	id := tenantName(0)
	var r *Router
	var base string
	follower := -1
	// No health tick fires, so no reseed replaces the degraded follower.
	cfg := Config{Nodes: nodes, Replicate: true, TCPAddr: "127.0.0.1:0", StateDir: t.TempDir(), HealthEvery: time.Hour}
	r = startFaultRouter(t, cfg, func(phase string) error {
		if phase == "extract" {
			r.degradeFollower(id, follower, fmt.Errorf("follower write failed before quiesce"))
			for i := cut; i < cut+moving; i++ {
				httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
			}
		}
		return nil
	})
	base = "http://" + r.HTTPAddr()
	standby := startRouter(t, Config{Nodes: nodes, StandbyOf: r.TCPAddr(), StateDir: t.TempDir()})
	httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
	for i := 0; i < cut; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i), http.StatusOK)
	}
	r.mu.RLock()
	owner := r.routes[id].node
	follower = r.routes[id].follower
	r.mu.RUnlock()
	if follower < 0 {
		t.Fatal("tenant placed without a follower")
	}
	target := 3 - owner - follower
	waitFor(t, "standby to follow the replicated route", func() bool {
		state, _ := standby.rlog.snapshot()
		return state[id].Follower == nodes[follower]
	})

	if _, err := r.Migrate(id, nodes[target]); err != nil {
		t.Fatal(err)
	}
	r.mu.RLock()
	f := r.routes[id].follower
	r.mu.RUnlock()
	if f != -1 {
		t.Errorf("route follower %d after the flip, want none", f)
	}
	if state, _ := r.rlog.snapshot(); state[id].Node != nodes[target] || state[id].Follower != "" {
		t.Errorf("route log holds %+v after the flip, want node %s and no follower", state[id], nodes[target])
	}
	waitFor(t, "standby to follow the flip", func() bool {
		state, _ := standby.rlog.snapshot()
		return state[id].Node == nodes[target]
	})
	if state, _ := standby.rlog.snapshot(); state[id].Follower != "" {
		t.Errorf("standby's route log names follower %q after the flip", state[id].Follower)
	}
	standby.mu.RLock()
	sf := standby.routes[id].follower
	standby.mu.RUnlock()
	if sf != -1 {
		t.Errorf("standby's route follower %d after the flip, want none", sf)
	}
	if got := admittedOn(t, nodes[follower], id); got != cut {
		t.Errorf("degraded follower admitted %d arrivals, want the %d it had at the degrade", got, cut)
	}
	if got := admittedOn(t, nodes[target], id); got != cut+moving {
		t.Errorf("target admitted %d arrivals, want %d", got, cut+moving)
	}
}

// TestReseedFaults drives a follower reseed into each failure phase —
// capture (export), install (inject), the owner leg and the follower leg of
// the drain — with keyed arrivals buffered during the move, one of them
// landing mid-drain after the first batch was taken. Whatever fails, the
// owner must end up admitting every acked arrival exactly once: a dropped
// owner leg rolls the keyed positions back, so the client's retry refills
// exactly the dropped ones. Only a reseed that completes leaves the route
// replicated, with a follower byte-identical to its owner.
func TestReseedFaults(t *testing.T) {
	const arrivals, cut, tail = 40, 20, 5
	cases := []struct {
		name       string
		fail       string // phase whose hook returns an error
		sabotage   bool   // the follower loses its replica mid-drain
		replicated bool
		lost       bool // the failed owner leg dropped the buffered tail
	}{
		{name: "clean", replicated: true},
		{name: "export-fault", fail: "export"},
		{name: "inject-fault", fail: "inject"},
		{name: "owner-leg-fault", fail: "replay", lost: true},
		{name: "follower-leg-fails", sabotage: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceArtifact(t, 91, 1, arrivals)
			w1 := startWorker(t, 91, "")
			w2 := startWorker(t, 91, "")
			id := tenantName(0)
			var base string
			replaying := false
			// No health tick fires: the test runs the one reseed itself,
			// and the hook runs on its goroutine.
			cfg := Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}, Replicate: true, HealthEvery: time.Hour}
			r := startFaultRouter(t, cfg, func(phase string) error {
				switch {
				case phase == "export":
					if acc, dd := postKeyed(t, base, id, cut, cut+tail-1); acc != tail-1 || dd != 0 {
						t.Errorf("buffered arrivals: accepted %d, deduped %d; want %d, 0", acc, dd, tail-1)
					}
				case phase == "replay" && !replaying:
					replaying = true
					if tc.sabotage {
						httpJSON(t, "POST", "http://"+w2.HTTPAddr()+"/v1/tenants/"+id+"/extract", nil, http.StatusOK)
					}
					postKeyed(t, base, id, cut+tail-1, cut+tail)
				}
				if phase == tc.fail {
					return fmt.Errorf("injected %s fault", phase)
				}
				return nil
			})
			base = "http://" + r.HTTPAddr()
			httpJSON(t, "POST", base+"/v1/tenants/"+id, testCreate, http.StatusCreated)
			postKeyed(t, base, id, 0, cut)
			r.degradeFollower(id, 1, fmt.Errorf("test degrade"))

			r.reseedFollower(id)
			r.mu.RLock()
			follower, count, migrating := r.routes[id].follower, r.routes[id].count.Load(), r.routes[id].mig != nil
			r.mu.RUnlock()
			if migrating {
				t.Fatal("route left moving after the reseed")
			}
			if wantF := map[bool]int{true: 1, false: -1}[tc.replicated]; follower != wantF {
				t.Errorf("route follower %d after the reseed, want %d", follower, wantF)
			}
			if admitted := admittedOn(t, w1.HTTPAddr(), id); admitted != count {
				t.Errorf("ledger %d, owner admitted %d", count, admitted)
			}

			// The client resends the buffered tail under its key: trimmed
			// when it was kept, refilled when the owner leg dropped it.
			acc, dd := postKeyed(t, base, id, cut, cut+tail)
			if wantDD := map[bool]int{true: 0, false: tail}[tc.lost]; acc != tail || dd != wantDD {
				t.Errorf("resent tail: accepted %d, deduped %d; want %d, %d", acc, dd, tail, wantDD)
			}
			postKeyed(t, base, id, cut+tail, arrivals)
			if admitted := admittedOn(t, w1.HTTPAddr(), id); admitted != arrivals {
				t.Errorf("owner admitted %d arrivals, want %d", admitted, arrivals)
			}
			got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
			if !bytes.Equal(got, want) {
				t.Error("snapshots after the faulted reseed differ from the single-node artifact")
			}
			if tc.replicated {
				snap := "/v1/tenants/" + id + "/snapshot"
				owner := httpJSON(t, "GET", "http://"+w1.HTTPAddr()+snap, nil, http.StatusOK)
				replica := httpJSON(t, "GET", "http://"+w2.HTTPAddr()+snap, nil, http.StatusOK)
				if !bytes.Equal(owner, replica) {
					t.Error("reseeded follower's snapshot differs from its owner's")
				}
			}
		})
	}
}

// tryJSON is httpJSON without the fatal status check — fault-injection
// tests retry around injected transport failures instead of dying on them.
// The client→router hop carries no injected faults, so a transport error
// there is still fatal.
func tryJSON(t *testing.T, method, url string, body interface{}, hdr map[string]string) ([]byte, int) {
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
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return out, resp.StatusCode
}

// TestInjectedFaultsNoDoubleServe runs a full workload through a router
// whose upstream transport injects deterministic dial failures and stalls.
// Arrivals carry client-side idempotency keys and are retried until
// acknowledged; the test asserts the end state the hardening promises —
// every acknowledged arrival admitted exactly once (ledger == workload,
// artifact byte-identical) no matter how many forwards the injector killed.
func TestInjectedFaultsNoDoubleServe(t *testing.T) {
	const tenants, arrivals = 3, 90
	want := referenceArtifact(t, 71, tenants, arrivals)

	inj, err := faults.Parse("seed=7,dial-fail=1/25,stall=1/20:1ms")
	if err != nil {
		t.Fatal(err)
	}
	w1 := startWorker(t, 71, "")
	w2 := startWorker(t, 71, "")
	// DownAfter rides out injected probe-path faults without failover.
	r := startRouter(t, Config{Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}, DownAfter: 5, Faults: inj})
	base := "http://" + r.HTTPAddr()

	// Creates are not retried inside the router (a failed create rolls its
	// reservation back), so retry here; 409 means an earlier attempt won.
	for i := 0; i < tenants; i++ {
		url := base + "/v1/tenants/" + tenantName(i)
		waitFor(t, "create "+tenantName(i), func() bool {
			_, status := tryJSON(t, "POST", url, testCreate, nil)
			return status == http.StatusCreated || status == http.StatusConflict
		})
	}

	// Keyed arrivals: every post names its stream position, so a retried
	// batch is trimmed by the ledger, never double-served.
	pos := make(map[string]int64)
	for i := 0; i < arrivals; i++ {
		id := tenantName(i % tenants)
		sent := false
		for attempt := 0; attempt < 50 && !sent; attempt++ {
			_, status := tryJSON(t, "POST", base+"/v1/tenants/"+id+"/arrive", testArrival(i),
				map[string]string{server.IdemHeader: strconv.FormatInt(pos[id], 10)})
			if status == http.StatusOK {
				sent = true
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !sent {
			t.Fatalf("arrival %d for %s not admitted after retries", i, id)
		}
		pos[id]++
	}

	m := r.Metrics()
	if m.Served != arrivals {
		t.Errorf("route ledgers account %d arrivals, want exactly %d", m.Served, arrivals)
	}
	var fired int64
	for _, n := range m.Faults {
		fired += n
	}
	if fired == 0 {
		t.Error("fault injector never fired — the workload did not exercise the retry path")
	}

	// The artifact fetch itself crosses the faulty transport; retry it too.
	var got []byte
	waitFor(t, "snapshots through the faulty transport", func() bool {
		b, status := tryJSON(t, "GET", base+"/v1/snapshots", nil, nil)
		if status != http.StatusOK {
			return false
		}
		got = b
		return true
	})
	if !bytes.Equal(got, want) {
		t.Error("snapshots under fault injection differ from the single-node artifact")
	}
}
