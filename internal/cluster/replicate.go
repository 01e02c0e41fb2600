package cluster

import (
	"fmt"
)

// Tenant replication. A replicated tenant has a passive copy on a follower
// node fed the identical arrival stream (see forwardArrivalsAt): the copy
// admits, counts and records each arrival in its tail without serving it,
// and builds its algorithm instance from its base and tail when a snapshot
// reads it or its tail reaches the seal bound (engine.InjectPassive). Built,
// it stays live and serves every later arrival as the owner does, so the
// saving lasts only while the copy has recorded fewer than SealEvery
// arrivals since it was created or reseeded. Because tenant state is a pure
// function of (algorithm, seed, arrivals), the built copy's snapshots are
// byte-identical to the owner's at every settled point. There is no
// follower read path — the replica exists only to be promoted, which needs
// no call to the worker: a promoted copy goes live at its first snapshot
// read or when its tail reaches the seal bound.
//
// Invariants:
//
//   - An arrival is accounted (acked to the client, counted in the ledger's
//     settled view) only after both copies admitted it. Promotion
//     therefore loses at most the in-flight, unacked window — the same
//     window a single-node crash loses.
//   - A follower that misses a batch the owner admitted has diverged and is
//     degraded immediately (rt.follower = -1, journaled); it is never
//     promoted. The health loop reseeds a fresh follower from the owner
//     with the move a migration makes — quiesce, capture, install, drain,
//     settle (migrate.go) — with export in place of extract.
//   - A follower-leg failure never costs the owner an arrival: the drain
//     keeps replaying to the owner and only drops the follower.
//   - Idempotency keys stay exact through a move: a batch the drain is
//     replaying stays buffered until the owner's admitted count is in the
//     ledger, so a keyed retry landing mid-drain is trimmed.
//   - Promotion bumps the route's epoch. A promoted route never re-adopts
//     another claimant during re-sync: the old owner rejoining
//     with stale state is a ghost, not a candidate (health.go).

// degradeFollower drops a tenant's follower after a replication failure:
// the replica missed part of the stream and can no longer be promoted.
// No-op if the follower changed since the caller observed fidx.
func (r *Router) degradeFollower(tenant string, fidx int, cause error) {
	r.mu.Lock()
	rt := r.routes[tenant]
	if rt == nil || rt.follower != fidx {
		r.mu.Unlock()
		return
	}
	rt.follower = -1
	r.mu.Unlock()
	r.replDegrades.Add(1)
	r.rlog.append(routeEvent{Op: "follower", Tenant: tenant, Follower: ""})
	r.logger.Warn("follower degraded",
		"tenant", tenant, "follower", r.nodeAddr(fidx), "err", cause)
}

// failoverNode promotes every route owned by a node just declared down to
// its follower, in one pass under the write lock (the quiesce barrier: no
// forward is mid-flight while routes flip). Routes without a healthy
// follower are left pointing at the dead node — they fail fast until it
// rejoins, the unreplicated contract. Called from the health loop.
func (r *Router) failoverNode(n *node) {
	type promo struct {
		tenant string
		fidx   int
		count  int64
		epoch  int64
	}
	var promos []promo
	r.mu.Lock()
	for id, rt := range r.routes {
		if rt.node != n.idx || rt.mig != nil {
			continue
		}
		if rt.follower < 0 || !r.nodes[rt.follower].isHealthy() {
			continue
		}
		rt.node = rt.follower
		rt.follower = -1
		rt.epoch++
		// The persisted/accounted ledger may lead the follower's admitted
		// count by the in-flight window; reconcile before trusting it.
		rt.synced = false
		promos = append(promos, promo{id, rt.node, rt.count.Load(), rt.epoch})
	}
	r.mu.Unlock()
	if len(promos) == 0 {
		return
	}
	r.failovers.Add(1)
	for _, p := range promos {
		r.promotions.Add(1)
		r.rlog.append(routeEvent{Op: "promote", Tenant: p.tenant,
			Node: r.nodeAddr(p.fidx), Follower: "", Count: p.count, Epoch: p.epoch})
		r.logger.Warn("route promoted to follower",
			"tenant", p.tenant, "dead", n.addr, "owner", r.nodeAddr(p.fidx), "epoch", p.epoch)
	}
	// Adopt each survivor's admitted count as the ledger, then restore
	// redundancy. Both are best-effort: an unsynced route re-syncs lazily
	// on its next forward, an unreplicated one reseeds on a later tick.
	for _, p := range promos {
		if err := r.resyncRoute(p.tenant); err != nil {
			r.logger.Warn("post-promotion ledger re-sync failed", "tenant", p.tenant, "err", err)
		}
		r.reseedFollower(p.tenant)
	}
}

// reseedFollower brings an unreplicated tenant back to owner+follower with
// the move a migration makes, export in place of extract: quiesce the
// route, capture the owner's state at the cut quiesce settled, install it
// as a passive copy on a freshly placed follower node (inject?passive=1)
// and make it the route's follower,
// drain the buffered tail to both, and settle by journaling the follower. The
// quiesce is what makes the replica's stream gapless — an export taken
// while forwards kept flowing would miss everything between the cut and
// the follower's first dual-write. When the capture or install fails the
// drain goes to the owner alone, and a failed follower leg drops the
// follower; either way the owner admits every buffered arrival and the
// tenant stays unreplicated for a later attempt.
func (r *Router) reseedFollower(tenant string) {
	if !r.cfg.Replicate {
		return
	}
	r.migMu.Lock()
	defer r.migMu.Unlock()

	var owner, fnode *node
	rt, mig, cut, err := r.quiesce(tenant, func(rt *route) error {
		if rt.follower >= 0 || !rt.synced {
			return fmt.Errorf("cluster: tenant %q needs no reseed", tenant)
		}
		fidx, err := r.placeLeastLoad(rt.node)
		if err != nil {
			return err // no second healthy node; stay unreplicated
		}
		owner, fnode = r.nodes[rt.node], r.nodes[fidx]
		return nil
	})
	if err != nil {
		return
	}
	var transfer []byte
	err = r.checkMigFault("export")
	if err == nil {
		err = r.call("GET", owner.base+"/v1/tenants/"+tenant+"/export", nil, &transfer)
	}
	if err == nil {
		// A stale replica from an earlier degrade may still live on the
		// chosen node; extract-and-discard clears it so the inject starts
		// clean.
		var discard []byte
		r.call("POST", fnode.base+"/v1/tenants/"+tenant+"/extract", nil, &discard) //nolint:errcheck // 404 = nothing stale
		if err = r.checkMigFault("inject"); err == nil {
			err = r.call("POST", fnode.base+"/v1/tenants/"+tenant+"/inject?passive=1", transfer, nil)
		}
	}
	if err == nil {
		// Forwards buffer while the route moves, so the new follower sees
		// nothing but the drain until settle.
		r.mu.Lock()
		rt.follower = fnode.idx
		r.mu.Unlock()
	} else {
		r.logger.Warn("follower reseed failed", "tenant", tenant, "follower", fnode.addr, "err", err)
	}
	replicated := false
	replayed, err := r.drain(rt, mig, tenant, owner, func() {
		if replicated = rt.follower >= 0; replicated {
			r.rlog.append(routeEvent{Op: "follower", Tenant: tenant, Follower: fnode.addr})
		}
	})
	if err != nil {
		r.logger.Error("follower reseed lost buffered arrivals", "tenant", tenant, "err", err)
	}
	if replicated {
		r.logger.Info("follower reseeded",
			"tenant", tenant, "owner", owner.addr, "follower", fnode.addr,
			"cut", cut, "replayed", replayed)
	}
}
