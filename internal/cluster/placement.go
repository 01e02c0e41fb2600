package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/server"
)

// placeLeastLoad picks the node for a new tenant, its follower replica or
// a migration target: the healthy node hosting the fewest tenants (by the
// routing table, which includes in-flight reservations), lowest index on
// ties — the cluster analogue of the engine's PolicyLeastLoad shard
// pinning. Follower placements count toward load too: a replica serves
// every arrival its tenant does. The excluded nodes (the owner's, for a
// follower) are never candidates. Callers hold Router.mu (write); the
// choice is deterministic given the routing table and health state.
func (r *Router) placeLeastLoad(exclude ...int) (int, error) {
	hosted := make([]int, len(r.nodes))
	for _, rt := range r.routes {
		hosted[rt.node]++
		if rt.follower >= 0 {
			hosted[rt.follower]++
		}
	}
	best, bestLoad := -1, 0
	for _, n := range r.nodes {
		if slices.Contains(exclude, n.idx) || !n.isHealthy() {
			continue
		}
		if best == -1 || hosted[n.idx] < bestLoad {
			best, bestLoad = n.idx, hosted[n.idx]
		}
	}
	if best == -1 {
		return 0, fmt.Errorf("cluster: no healthy node to place on")
	}
	return best, nil
}

// createTenant places a tenant and creates it on the chosen node — and,
// with replication on, as a passive copy on a follower node as well: both
// copies admit the same arrival stream, the follower recording it without
// serving it until a snapshot reads it or its tail reaches the seal bound,
// with snapshots byte-identical to the owner's. The route is reserved
// under the write lock before the node calls so two concurrent creates
// cannot land the tenant on two nodes; a failed owner create rolls the
// reservation back, while a failed follower create only degrades the
// tenant to unreplicated. The placement is journaled to the route log. As
// on a single node, clients must not race arrivals against their own
// create.
func (r *Router) createTenant(id string, universe int, distances [][]float64, costBySize []float64) error {
	r.mu.Lock()
	if _, ok := r.routes[id]; ok {
		r.mu.Unlock()
		return fmt.Errorf("cluster: tenant %q: %w", id, engine.ErrDuplicateTenant)
	}
	idx, err := r.placeLeastLoad()
	if err != nil {
		r.mu.Unlock()
		return err
	}
	fidx := -1
	if r.cfg.Replicate {
		if f, ferr := r.placeLeastLoad(idx); ferr != nil {
			r.logger.Warn("no follower placement, tenant unreplicated", "tenant", id, "err", ferr)
		} else {
			fidx = f
		}
	}
	rt := &route{node: idx, follower: fidx, synced: true}
	r.routes[id] = rt
	r.mu.Unlock()

	body := map[string]interface{}{
		"universe":     universe,
		"distances":    distances,
		"cost_by_size": costBySize,
	}
	if err := r.call("POST", r.nodes[idx].base+"/v1/tenants/"+id, body, nil); err != nil {
		r.mu.Lock()
		delete(r.routes, id)
		r.mu.Unlock()
		return fmt.Errorf("cluster: creating %q on node %s: %v", id, r.nodes[idx].addr, err)
	}
	if fidx >= 0 {
		// A worker from before passive tenants ignores the field and
		// creates a live follower, which replicates all the same.
		body["passive"] = true
		if err := r.call("POST", r.nodes[fidx].base+"/v1/tenants/"+id, body, nil); err != nil {
			r.logger.Warn("follower create failed, tenant unreplicated",
				"tenant", id, "follower", r.nodes[fidx].addr, "err", err)
			r.replDegrades.Add(1)
			r.mu.Lock()
			rt.follower = -1
			r.mu.Unlock()
			fidx = -1
		}
	}
	r.rlog.append(routeEvent{Op: "place", Tenant: id, Node: r.nodes[idx].addr, Follower: r.nodeAddr(fidx)})
	r.logger.Info("tenant placed", "tenant", id, "node", r.nodes[idx].addr, "follower", r.nodeAddr(fidx))
	return nil
}

// forwardArrivalsAt routes a batch of arrivals for one tenant: buffered
// into the live migration when one is in flight, otherwise posted to the
// owner node (and, for a replicated tenant, to its follower — an arrival is
// accounted only after both admit it). The node calls run under RLock —
// that is the quiesce barrier, not an accident (see the package doc) — and
// the route ledger advances by exactly the number of arrivals the owner
// admitted. traceID (0 = untraced) is forwarded in the X-Omflp-Trace header
// so the worker records the batch's first arrival under it.
//
// clientStart is an optional client-supplied idempotency key: >= 0 names
// the stream position of batch[0] as the client counts it. The router trims
// the prefix its ledger already accounts for (the footprint of a client
// retry after a partial forward), refuses gaps, and forwards the remainder
// stamped with its own key, so both client-side and router-side retries are
// exactly-once. It returns (accounted, deduped): accounted counts every
// batch item the cluster now accounts for (admitted or recognized as
// already admitted), deduped the already-admitted prefix.
//
// Each node call runs under the unified retry policy. Retries are safe
// because the key rides along: a batch resent after a transport failure is
// trimmed by the worker's admitted counter. This also self-heals the
// ledger-undercount case — a transport failure that hid a partial
// admission is reconciled on the next keyed forward, where the worker
// reports the overlap as deduped instead of double-serving it.
func (r *Router) forwardArrivalsAt(id string, batch []server.Arrival, traceID uint64, clientStart int64) (int, int, error) {
	if err := r.ensureSynced(id); err != nil {
		return 0, 0, err
	}
	r.mu.RLock()
	rt := r.routes[id]
	if rt == nil {
		r.mu.RUnlock()
		return 0, 0, fmt.Errorf("cluster: tenant %q has no route: %w", id, engine.ErrUnknownTenant)
	}
	deduped := 0
	if clientStart >= 0 {
		pos := rt.count.Load()
		if m := rt.mig; m != nil {
			pos = m.position(&rt.count)
		}
		if clientStart > pos {
			r.mu.RUnlock()
			return 0, 0, fmt.Errorf("cluster: tenant %q: batch starts at position %d, cluster accounts %d: %w",
				id, clientStart, pos, engine.ErrArrivalGap)
		}
		skip := int(pos - clientStart)
		if skip >= len(batch) {
			r.mu.RUnlock()
			return len(batch), len(batch), nil
		}
		batch = batch[skip:]
		deduped = skip
	}
	if m := rt.mig; m != nil {
		m.add(batch...)
		r.mu.RUnlock()
		return deduped + len(batch), deduped, nil
	}
	start := rt.count.Load()
	accepted, err := r.sendArrivals(r.nodes[rt.node], id, batch, traceID, start)
	// Even a failed batch advances the ledger by what the owner reported
	// admitted: those arrivals happened and quiesce must account for them.
	rt.count.Add(int64(accepted))
	fidx := rt.follower
	var ferr error
	if fidx >= 0 && accepted > 0 && (err == nil || errors.As(err, new(*refusedError))) {
		_, ferr = r.sendArrivals(r.nodes[fidx], id, batch[:accepted], 0, start)
	}
	r.mu.RUnlock()
	if ferr != nil {
		// The follower missed a batch the owner admitted: its replica has
		// diverged from the arrival stream and can no longer be promoted.
		// Degrade now; the health loop reseeds a fresh follower.
		r.degradeFollower(id, fidx, ferr)
	}
	return deduped + accepted, deduped, err
}

// ensureSynced reconciles a route whose ledger was restored from the route
// log (and so may trail the owner's admitted count by up to one health
// tick) before the first keyed forward uses it. Synced routes return
// immediately; the slow path runs once per restored route.
func (r *Router) ensureSynced(id string) error {
	r.mu.RLock()
	rt := r.routes[id]
	synced := rt == nil || rt.synced
	r.mu.RUnlock()
	if synced {
		return nil
	}
	return r.resyncRoute(id)
}

// resyncRoute asks the owner for the tenant's admitted count and adopts it
// as the ledger. It runs under the write lock — the quiesce barrier
// guarantees no forward is concurrently advancing the count it overwrites.
// The owner call happens before the lock is taken so an unreachable owner
// stalls only this tenant's forwards, not the routing table.
func (r *Router) resyncRoute(id string) error {
	r.mu.RLock()
	rt := r.routes[id]
	if rt == nil || rt.synced {
		r.mu.RUnlock()
		return nil
	}
	owner := r.nodes[rt.node]
	r.mu.RUnlock()

	admitted, err := r.admitted(owner, id, 0)
	if err != nil {
		return fmt.Errorf("cluster: re-syncing restored route for %q against %s: %w", id, owner.addr, err)
	}

	r.mu.Lock()
	if rt := r.routes[id]; rt != nil && !rt.synced {
		old := rt.count.Load()
		rt.count.Store(admitted)
		rt.synced = true
		if old != admitted {
			r.logger.Info("restored ledger re-synced",
				"tenant", id, "restored", old, "admitted", admitted)
		}
	}
	r.mu.Unlock()
	return nil
}

// admitted reads node n's admitted count for tenant and returns it once it
// reaches want (want 0 reads once), or the last count read once cutWait's
// budget runs out. A read that still fails after defaultRetry's attempts
// fails at once.
func (r *Router) admitted(n *node, tenant string, want int64) (int64, error) {
	var doc struct {
		Admitted int64 `json:"admitted"`
	}
	err := cutWait.do(func() error {
		err := defaultRetry.do(func() error {
			if err := r.call("GET", n.base+"/v1/tenants/"+tenant+"/served", nil, &doc); err != nil {
				return &unavailableError{err}
			}
			return nil
		}, func(error) { r.retries.Add(1) })
		switch {
		case err != nil:
			// %v, not %w: the read has had its retries, so cutWait must
			// not take the failure for a retry-safe one.
			return fmt.Errorf("cluster: reading node %s's admitted count for %q: %v", n.addr, tenant, err)
		case doc.Admitted < want:
			return errShort
		}
		return nil
	}, nil)
	if err != nil && !errors.Is(err, errShort) {
		return 0, err
	}
	return doc.Admitted, nil
}

// sendArrivals sends batch to node n keyed at stream position start, under
// the retry policy: the one way a forward or a drain leg delivers arrivals
// to a worker. The key makes every attempt exactly-once — the node trims
// whatever an earlier attempt admitted — so a transient failure is retried
// rather than dropped. It returns the node's accounted count (admitted plus
// already-admitted) from the last attempt. When the binary wire carries a
// position key, only this function changes transport.
func (r *Router) sendArrivals(n *node, id string, batch []server.Arrival, traceID uint64, start int64) (int, error) {
	var accepted int
	err := defaultRetry.do(func() error {
		var err error
		accepted, err = r.postArrivalsIdem(n, id, batch, traceID, start)
		return err
	}, func(error) { r.retries.Add(1) })
	return accepted, err
}

// postArrivalsIdem posts one arrive batch stamped with the X-Omflp-Idem-Start
// header (the stream position of batch[0] by the router's ledger): the worker
// then trims any already-admitted prefix, so resending the same batch is
// exactly-once. Returns the node's accounted count (admitted plus deduped),
// decoded from the body even on error statuses, because a batch that fails
// at element i has irrevocably admitted the i before it and the ledger must
// say so. Only a transport failure leaves the count unknowable (reported as
// 0). A 5xx or transport failure is wrapped as retry-safe; application
// refusals (400, 404, 409) are final, and a 400 — the arrival after the
// accepted prefix refused as invalid — is marked as a refusedError.
func (r *Router) postArrivalsIdem(n *node, id string, batch []server.Arrival, traceID uint64, start int64) (int, error) {
	body, err := json.Marshal(map[string]interface{}{"arrivals": batch})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequest("POST", n.base+"/v1/tenants/"+id+"/arrive", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		req.Header.Set(server.TraceHeader, obs.TraceIDString(traceID))
	}
	req.Header.Set(server.IdemHeader, strconv.FormatInt(start, 10))
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, &unavailableError{fmt.Errorf("cluster: forwarding to node %s: %v", n.addr, err)}
	}
	defer closeBody(resp)
	var out struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&out); derr != nil && resp.StatusCode/100 == 2 {
		return 0, fmt.Errorf("cluster: decoding node %s arrive response: %v", n.addr, derr)
	}
	if resp.StatusCode/100 != 2 {
		err := fmt.Errorf("cluster: node %s: %s: %s", n.addr, resp.Status, out.Error)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			// The node does not host the tenant the routing table says it
			// does (a crash lost it, or a migration raced): surface the
			// sentinel so callers can tell a stale route from a bad request.
			err = fmt.Errorf("cluster: node %s: %s: %w", n.addr, out.Error, engine.ErrUnknownTenant)
		case resp.StatusCode == http.StatusBadRequest:
			err = &refusedError{err}
		case resp.StatusCode/100 == 5:
			// The node is up but refusing (shutting down, overloaded):
			// retry-safe under the idempotency key.
			err = &unavailableError{err}
		}
		return out.Accepted, err
	}
	return out.Accepted, nil
}
