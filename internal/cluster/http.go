package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// handler builds the router's HTTP surface: the node API verbatim (create,
// arrive, snapshots, metrics, healthz, checkpoint) plus the cluster-only
// verbs (migrate, routes). Routing verbs are gated on the router's role: a
// passive standby answers them 503 with role=standby so clients rotate to
// the active router; observability verbs always answer.
func (r *Router) handler() http.Handler {
	mux := http.NewServeMux()
	active := r.requireActive
	mux.HandleFunc("POST /v1/tenants/{id}", active(r.handleCreate))
	mux.HandleFunc("POST /v1/tenants/{id}/arrive", active(r.handleArrive))
	mux.HandleFunc("GET /v1/tenants/{id}/served", active(r.handleServed))
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", active(r.handleSnapshot))
	mux.HandleFunc("GET /v1/snapshots", active(r.handleSnapshots))
	mux.HandleFunc("GET /v1/metrics", r.handleMetrics)
	mux.HandleFunc("GET /metrics", r.handleProm)
	mux.HandleFunc("GET /v1/debug/flight", r.handleFlight)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("POST /v1/checkpoint", active(r.handleCheckpoint))
	mux.HandleFunc("POST /v1/migrate", active(r.handleMigrate))
	mux.HandleFunc("GET /v1/routes", r.handleRoutes)
	if r.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// requireActive refuses routing verbs while the router is a passive
// standby. 503 + role=standby is the rotation signal: retrying clients
// (loadgen -retry, the cluster retry policy) move to the next address.
func (r *Router) requireActive(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.standby.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{
				"error": "router is a passive standby", "role": "standby", "primary": r.cfg.StandbyOf,
			})
			return
		}
		next(w, req)
	}
}

// clusterStatus maps router errors onto HTTP statuses. A stale or missing
// route answers 421 Misdirected Request — the cluster cousin of the node's
// 404: the tenant may exist, just not where this request went. An
// idempotency-key gap answers 409, matching the node's contract.
func clusterStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrArrivalGap):
		return http.StatusConflict
	case errors.Is(err, engine.ErrUnknownTenant):
		return http.StatusMisdirectedRequest
	case errors.Is(err, engine.ErrDuplicateTenant):
		return http.StatusConflict
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadGateway
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type createBody struct {
	Universe   int         `json:"universe"`
	Distances  [][]float64 `json:"distances"`
	CostBySize []float64   `json:"cost_by_size"`
}

type arriveBody struct {
	server.Arrival
	Arrivals []server.Arrival `json:"arrivals"`
}

func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	var body createBody
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding create body: %v", err))
		return
	}
	id := req.PathValue("id")
	if err := r.createTenant(id, body.Universe, body.Distances, body.CostBySize); err != nil {
		writeErr(w, clusterStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"tenant": id, "status": "created"})
}

func (r *Router) handleArrive(w http.ResponseWriter, req *http.Request) {
	var body arriveBody
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding arrive body: %v", err))
		return
	}
	batch := body.Arrivals
	if batch == nil {
		batch = []server.Arrival{body.Arrival}
	}
	// Propagate an inbound trace id, or sample one at the router, so the
	// worker's record carries the cluster-level trace context.
	traceID := obs.ParseTraceID(req.Header.Get(server.TraceHeader))
	if traceID == 0 {
		traceID = r.tracer.Sample()
	}
	// A client idempotency key (stream position of batch[0]) makes the call
	// retry-safe end to end: the router trims the already-routed prefix
	// against its ledger before forwarding, exactly as a node trims against
	// its admitted count.
	clientStart := int64(-1)
	if v := req.Header.Get(server.IdemHeader); v != "" {
		start, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || start < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad %s %q", server.IdemHeader, v))
			return
		}
		clientStart = start
	}
	accepted, deduped, err := r.forwardArrivalsAt(req.PathValue("id"), batch, traceID, clientStart)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(clusterStatus(err))
		json.NewEncoder(w).Encode(map[string]interface{}{
			"error": err.Error(), "accepted": accepted, "deduped": deduped,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": accepted, "deduped": deduped})
}

// handleServed proxies the owner node's admitted/served counts — what a
// resuming client needs to rebuild its idempotency key after a failover.
// The route is re-synced first so a freshly promoted or restarted router
// answers with the owner's truth, not a restored ledger.
func (r *Router) handleServed(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.ensureSynced(id); err != nil {
		writeErr(w, clusterStatus(err), err)
		return
	}
	r.mu.RLock()
	rt := r.routes[id]
	var base string
	if rt != nil {
		base = r.nodes[rt.node].base
	}
	r.mu.RUnlock()
	if rt == nil {
		writeErr(w, http.StatusMisdirectedRequest,
			fmt.Errorf("cluster: tenant %q has no route: %w", id, engine.ErrUnknownTenant))
		return
	}
	resp, err := r.client.Get(base + "/v1/tenants/" + id + "/served")
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: node served: %v", err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client-side failure
}

// handleSnapshot proxies a single-tenant snapshot to the owner node. While
// the tenant migrates there is a window (extracted, not yet injected) in
// which the source answers 404; clients retry, as they would any transient.
func (r *Router) handleSnapshot(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	r.mu.RLock()
	rt := r.routes[id]
	var base string
	if rt != nil {
		base = r.nodes[rt.node].base
	}
	r.mu.RUnlock()
	if rt == nil {
		writeErr(w, http.StatusMisdirectedRequest,
			fmt.Errorf("cluster: tenant %q has no route: %w", id, engine.ErrUnknownTenant))
		return
	}
	url := base + "/v1/tenants/" + id + "/snapshot"
	if q := req.URL.RawQuery; q != "" {
		url += "?" + q
	}
	resp, err := r.client.Get(url)
	if err != nil {
		writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: node snapshot: %v", err))
		return
	}
	defer resp.Body.Close()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // client-side failure
}

// handleSnapshots merges every node's snapshots into the exact artifact a
// single node emits — all tenants sorted by name, indented, trailing
// newline — so cluster goldens diff against single-node goldens. Each
// node's list is filtered by the routing table, which drops ghosts (a
// tenant a node still hosts after its migration away, e.g. because the
// post-extract checkpoint could not be written before a restart). It reads
// every copy a node hosts, so it builds every passive follower it reaches:
// it produces the golden artifact and is not on the serving path.
func (r *Router) handleSnapshots(w http.ResponseWriter, req *http.Request) {
	q := ""
	if v := req.URL.Query().Get("compact"); v != "" {
		if _, err := strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("compact=%q is not a boolean", v))
			return
		}
		q = "?compact=" + v
	}

	owned := make(map[string]int)
	r.mu.RLock()
	for id, rt := range r.routes {
		owned[id] = rt.node
	}
	r.mu.RUnlock()

	var merged []*engine.TenantSnapshot
	for _, n := range r.nodes {
		if !n.isHealthy() {
			// An unreachable node makes the artifact incomplete; refuse
			// rather than silently emitting a partial cluster state.
			if nodeOwnsAny(owned, n.idx) {
				writeErr(w, http.StatusServiceUnavailable,
					fmt.Errorf("cluster: node %s (owning tenants) is unreachable", n.addr))
				return
			}
			continue
		}
		var snaps []*engine.TenantSnapshot
		if err := r.call("GET", n.base+"/v1/snapshots"+q, nil, &snaps); err != nil {
			writeErr(w, http.StatusBadGateway, fmt.Errorf("cluster: snapshots from %s: %v", n.addr, err))
			return
		}
		for _, s := range snaps {
			if idx, ok := owned[s.Tenant]; ok && idx == n.idx {
				merged = append(merged, s)
			}
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Tenant < merged[j].Tenant })
	data, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n')) //nolint:errcheck // client-side failure
}

func nodeOwnsAny(owned map[string]int, idx int) bool {
	for _, n := range owned {
		if n == idx {
			return true
		}
	}
	return false
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Metrics())
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	healthy := 0
	for _, n := range r.nodes {
		if n.isHealthy() {
			healthy++
		}
	}
	r.mu.RLock()
	tenants := len(r.routes)
	replicated := 0
	for _, rt := range r.routes {
		if rt.follower >= 0 {
			replicated++
		}
	}
	r.mu.RUnlock()
	status := "ok"
	if healthy < len(r.nodes) {
		status = "degraded"
	}
	role := "router"
	if r.standby.Load() {
		role = "standby"
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":          status,
		"role":            role,
		"nodes":           len(r.nodes),
		"healthy":         healthy,
		"tenants":         tenants,
		"replicated":      replicated,
		"routes_restored": r.routesRestored,
	})
}

// handleCheckpoint fans the checkpoint verb out to every healthy node, so
// "persist the cluster" is one call — the smoke test's pre-kill step.
func (r *Router) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	type nodeStatus struct {
		Node  string `json:"node"`
		OK    bool   `json:"ok"`
		Error string `json:"error,omitempty"`
	}
	statuses := make([]nodeStatus, 0, len(r.nodes))
	failed := 0
	for _, n := range r.nodes {
		st := nodeStatus{Node: n.addr}
		if !n.isHealthy() {
			st.Error = "unreachable"
			failed++
		} else if err := r.call("POST", n.base+"/v1/checkpoint", nil, nil); err != nil {
			st.Error = err.Error()
			failed++
		} else {
			st.OK = true
		}
		statuses = append(statuses, st)
	}
	code := http.StatusOK
	if failed > 0 {
		code = http.StatusBadGateway
	}
	writeJSON(w, code, map[string]interface{}{"nodes": statuses, "failed": failed})
}

// migrateBody is the POST /v1/migrate document. Target may be empty: the
// router then picks the healthy node hosting the fewest tenants, owners
// and followers counted, other than the tenant's owner and follower.
type migrateBody struct {
	Tenant string `json:"tenant"`
	Target string `json:"target"`
}

func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	var body migrateBody
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding migrate body: %v", err))
		return
	}
	if body.Tenant == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("migrate needs a tenant"))
		return
	}
	target := body.Target
	if target == "" {
		t, err := r.pickMigrateTarget(body.Tenant)
		if err != nil {
			writeErr(w, http.StatusConflict, err)
			return
		}
		target = t
	}
	res, err := r.Migrate(body.Tenant, target)
	if err != nil {
		writeErr(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// pickMigrateTarget chooses where an unspecified migration should land:
// the least-loaded healthy node other than the tenant's owner and its
// follower, which Migrate would refuse.
func (r *Router) pickMigrateTarget(tenant string) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rt := r.routes[tenant]
	if rt == nil {
		return "", fmt.Errorf("cluster: tenant %q has no route", tenant)
	}
	idx, err := r.placeLeastLoad(rt.node, rt.follower)
	if err != nil {
		return "", fmt.Errorf("cluster: migrating %q: %w", tenant, err)
	}
	return r.nodes[idx].addr, nil
}

// RouteInfo is one tenant's routing entry as reported by GET /v1/routes.
type RouteInfo struct {
	Node      string `json:"node"`
	Follower  string `json:"follower,omitempty"`
	Arrivals  int64  `json:"arrivals"`
	Epoch     int64  `json:"epoch,omitempty"`
	Migrating bool   `json:"migrating"`
}

func (r *Router) handleRoutes(w http.ResponseWriter, req *http.Request) {
	out := make(map[string]RouteInfo)
	r.mu.RLock()
	for id, rt := range r.routes {
		out[id] = RouteInfo{
			Node:      r.nodes[rt.node].addr,
			Follower:  r.nodeAddr(rt.follower),
			Arrivals:  rt.count.Load(),
			Epoch:     rt.epoch,
			Migrating: rt.mig != nil,
		}
	}
	r.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}
