package cluster

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// healthLoop probes every node each HealthEvery tick, re-syncing routes
// when a node (re)joins, promoting followers when an owner goes down, and
// reseeding one unreplicated route. A node is declared down only after
// Config.DownAfter consecutive probe failures; injected probe flaps
// (Config.Faults) count as failures, which is exactly what DownAfter exists
// to absorb.
func (r *Router) healthLoop() {
	defer r.loops.Done()
	tick := time.NewTicker(r.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
		}
		r.probeAll()
		r.persistLedgers()
		r.maybeReseed()
	}
}

// probeAll runs one probe round, handling down transitions (and the
// failover they trigger).
func (r *Router) probeAll() {
	for _, n := range r.nodes {
		err := r.probe(n)
		if err == nil {
			n.mu.Lock()
			n.fails = 0
			n.mu.Unlock()
			continue
		}
		n.mu.Lock()
		n.fails++
		fails := n.fails
		down := n.healthy && fails >= r.cfg.DownAfter
		if down {
			n.healthy = false
		}
		stillUp := n.healthy
		n.mu.Unlock()
		if down {
			r.logger.Warn("node down", "node", n.addr, "fails", fails, "err", err)
			r.failoverNode(n)
		} else if stillUp {
			r.logger.Warn("node probe failed, riding it out",
				"node", n.addr, "fails", fails, "down_after", r.cfg.DownAfter, "err", err)
		}
	}
}

// persistLedgers folds the current route ledgers into the route log as one
// compact counts event (only ledgers that moved are written). Restored
// ledgers therefore trail the truth by at most one health tick.
func (r *Router) persistLedgers() {
	r.mu.RLock()
	counts := make(map[string]int64, len(r.routes))
	for id, rt := range r.routes {
		counts[id] = rt.count.Load()
	}
	r.mu.RUnlock()
	r.rlog.persistCounts(counts)
}

// maybeReseed restores redundancy for one unreplicated route per tick —
// bounded work, so a mass degrade heals gradually instead of stalling the
// health loop.
func (r *Router) maybeReseed() {
	if !r.cfg.Replicate {
		return
	}
	var tenant string
	r.mu.RLock()
	for id, rt := range r.routes {
		if rt.follower < 0 && rt.mig == nil && rt.synced {
			tenant = id
			break
		}
	}
	r.mu.RUnlock()
	if tenant != "" {
		r.reseedFollower(tenant)
	}
}

// probe asks one node who it is. On the unhealthy→healthy transition the
// node's identity is checked against the cluster's and its tenants are
// re-synced into the routing table — except on the very first contact after
// a clean route-log restore, where the table is already authoritative and
// the restart path must stay O(1) (the re-sync survives as the *rejoin*
// consistency check, not a recovery step).
func (r *Router) probe(n *node) error {
	if r.cfg.Faults.ProbeFlap() {
		return fmt.Errorf("injected probe flap")
	}
	var info server.NodeInfo
	if err := r.call("GET", n.base+"/v1/node", nil, &info); err != nil {
		return err
	}
	if err := r.checkIdentity(info); err != nil {
		return fmt.Errorf("identity mismatch: %v", err)
	}
	n.mu.Lock()
	was := n.healthy
	firstContact := !n.everUp
	n.healthy = true
	n.everUp = true
	n.info = info
	n.mu.Unlock()
	if !was {
		if firstContact && r.routesRestored > 0 {
			r.logger.Info("node adopted from restored routes",
				"node", n.addr, "tenants", info.Tenants, "served", info.Served)
			return nil
		}
		if err := r.syncNode(n); err != nil {
			n.mu.Lock()
			n.healthy = false
			n.mu.Unlock()
			return fmt.Errorf("route sync: %v", err)
		}
		r.logger.Info("node joined", "node", n.addr, "tenants", info.Tenants, "served", info.Served)
	}
	return nil
}

// syncNode folds one node's hosted tenants into the routing table. Routes
// for tenants the table does not know are created; routes already pointing
// at this node have their ledger reset to the node's served count (a node
// restarted from checkpoint may have lost a tail the ledger still counts —
// the node's state is the truth). When another node also claims the tenant,
// the higher served count wins — the footprint of a migration interrupted
// between extract and the source's checkpoint — EXCEPT on a route that has
// been promoted (epoch > 0): there the claimant is the dead old owner
// rejoining with state that includes arrivals the survivor also has, and
// adopting it would fork the stream. Ghosts are logged and skipped. A
// node hosting a route's follower replica is also left alone — the replica
// is supposed to mirror the owner's counts. The counts come from
// GET /v1/served, which builds none of the node's passive followers; a
// failed read fails the probe, which is retried.
func (r *Router) syncNode(n *node) error {
	var counts []engine.TenantServed
	if err := r.call("GET", n.base+"/v1/served", nil, &counts); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range counts {
		rt, ok := r.routes[s.Tenant]
		switch {
		case !ok:
			rt = &route{node: n.idx, follower: -1, synced: true}
			rt.count.Store(int64(s.Served))
			r.routes[s.Tenant] = rt
			r.rlog.append(routeEvent{Op: "place", Tenant: s.Tenant, Node: n.addr, Count: int64(s.Served)})
		case rt.mig != nil:
			// Mid-migration state is the coordinator's to resolve.
		case rt.follower == n.idx:
			// The node hosts this tenant's replica; the owner's ledger rules.
		case rt.node == n.idx:
			if rt.count.Load() != int64(s.Served) {
				r.logger.Warn("ledger reset from node state",
					"tenant", s.Tenant, "ledger", rt.count.Load(), "served", s.Served, "node", n.addr)
			}
			rt.count.Store(int64(s.Served))
			rt.synced = true
		case rt.epoch > 0:
			r.logger.Warn("stale claimant ignored on promoted route (ghost)",
				"tenant", s.Tenant, "node", n.addr, "served", s.Served,
				"owner", r.nodes[rt.node].addr, "epoch", rt.epoch)
		case int64(s.Served) > rt.count.Load():
			r.logger.Warn("tenant rerouted to higher-served claimant",
				"tenant", s.Tenant, "node", n.addr, "served", s.Served,
				"prev_node", r.nodes[rt.node].addr, "ledger", rt.count.Load())
			rt.node = n.idx
			rt.count.Store(int64(s.Served))
			rt.synced = true
			r.rlog.append(routeEvent{Op: "flip", Tenant: s.Tenant, Node: n.addr,
				Follower: r.nodeAddr(rt.follower), Count: int64(s.Served), Epoch: rt.epoch})
		}
	}
	return nil
}
