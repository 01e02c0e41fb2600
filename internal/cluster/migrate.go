package cluster

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// migration buffers arrivals for a tenant whose route is moving — a
// migration, its abort, or a follower reseed. Sessions append under
// Router.mu.RLock + mu. drain replays the buffer's head in place and cuts
// it only in the step that adds the owner's admitted count to the ledger,
// so a batch in flight keeps its stream positions (see position). The
// route settles once the buffer is observed empty under the write lock (at
// which point no appender can be in flight).
type migration struct {
	mu  sync.Mutex
	buf []server.Arrival
}

func (m *migration) add(batch ...server.Arrival) {
	m.mu.Lock()
	m.buf = append(m.buf, batch...)
	m.mu.Unlock()
}

// peek returns the buffered arrivals without removing them. Appends land
// past the returned slice, so the caller may read it without the lock.
func (m *migration) peek() []server.Arrival {
	m.mu.Lock()
	b := m.buf
	m.mu.Unlock()
	return b
}

// admit cuts the first n buffered arrivals — the ones the owner leg just
// admitted — and adds them to the ledger, in one step as seen by position.
func (m *migration) admit(count *atomic.Int64, n int) {
	m.mu.Lock()
	count.Add(int64(n))
	m.buf = m.buf[n:]
	m.mu.Unlock()
}

// position is the stream position the next arrival for the moving route
// takes: the ledger plus every buffered arrival, a batch in flight
// included. Both are read under mu because admit moves arrivals from one
// to the other under the same read lock a forward holds.
func (m *migration) position(count *atomic.Int64) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return count.Load() + int64(len(m.buf))
}

// checkMigFault consults the fault-injection hook for a move phase
// ("extract" or "export", "inject", "reinject", "replay", "flip"). Always
// nil outside fault-injection tests.
func (r *Router) checkMigFault(phase string) error {
	if r.migFault == nil {
		return nil
	}
	return r.migFault(phase)
}

// MigrateResult describes one completed migration.
type MigrateResult struct {
	Tenant string `json:"tenant"`
	From   string `json:"from"`
	To     string `json:"to"`
	// Served is the arrival ledger at quiesce — the state the transfer
	// captured; Replayed counts arrivals buffered during the move and
	// replayed on the target before the route flipped.
	Served   int64 `json:"served"`
	Replayed int   `json:"replayed"`
}

// Migrate moves one tenant to the node at target's address live. One
// migration runs at a time; arrivals for the tenant keep being accepted
// throughout (they buffer in the router between quiesce and flip, so a
// client sees added latency, never an error). Ordering and state identity
// are preserved end to end: everything forwarded before quiesce is in the
// extracted state, everything accepted during the move replays on the
// target in admission order before the route flips.
func (r *Router) Migrate(tenant, target string) (*MigrateResult, error) {
	r.migMu.Lock()
	defer r.migMu.Unlock()

	var tgt *node
	for _, n := range r.nodes {
		if n.addr == target || n.base == target {
			tgt = n
			break
		}
	}
	if tgt == nil {
		return nil, fmt.Errorf("cluster: %q is not a cluster node", target)
	}
	if !tgt.isHealthy() {
		return nil, fmt.Errorf("cluster: target node %s is unhealthy", tgt.addr)
	}

	// A route restored from the route log carries a ledger that may trail
	// the owner; reconcile it before quiescing on it, or extract?served=N
	// would wait for a count the node passed long ago.
	if err := r.ensureSynced(tenant); err != nil {
		return nil, err
	}

	var src *node
	rt, mig, served, err := r.quiesce(tenant, func(rt *route) error {
		src = r.nodes[rt.node]
		if src == tgt {
			return fmt.Errorf("cluster: tenant %q already lives on %s", tenant, tgt.addr)
		}
		if rt.follower == tgt.idx {
			return fmt.Errorf("cluster: tenant %q's follower lives on %s; migrating onto it would collide with the replica", tenant, tgt.addr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.logger.Info("migration quiesced",
		"tenant", tenant, "from", src.addr, "to", tgt.addr, "served", served)

	res, err := r.runMigration(rt, mig, tenant, src, tgt, served)
	if err != nil {
		r.logger.Error("migration failed",
			"tenant", tenant, "from", src.addr, "to", tgt.addr, "err", err)
		return nil, err
	}
	r.migrations.Add(1)
	r.logger.Info("migration complete",
		"tenant", tenant, "from", src.addr, "to", tgt.addr,
		"served", res.Served, "replayed", res.Replayed)
	return res, nil
}

// runMigration captures the quiesced tenant on src, installs it on tgt and
// drains the buffered arrivals to tgt, whose settle flips the route. A
// capture or install failure aborts instead: the buffered arrivals drain
// back to src, whose state never left (or was put back), and the route
// stays there.
func (r *Router) runMigration(rt *route, mig *migration, tenant string, src, tgt *node, served int64) (*MigrateResult, error) {
	abort := func(cause error) (*MigrateResult, error) {
		if _, err := r.drain(rt, mig, tenant, src, func() {}); err != nil {
			r.logger.Error("migration abort lost buffered arrivals", "tenant", tenant, "err", err)
		}
		return nil, cause
	}
	// The source waits until the tenant has served exactly `served`
	// arrivals before capturing.
	var transfer []byte
	err := r.checkMigFault("extract")
	if err == nil {
		err = r.postRaw(src.base+"/v1/tenants/"+tenant+"/extract?served="+fmt.Sprint(served), nil, &transfer)
	}
	if err != nil {
		return abort(fmt.Errorf("cluster: extracting %q from %s: %v", tenant, src.addr, err))
	}
	r.logger.Info("migration extracted", "tenant", tenant, "from", src.addr, "bytes", len(transfer))

	// Persist the source without the tenant so a restart there cannot
	// resurrect it. Best-effort: a node without checkpointing 404s.
	if err := r.postJSON(src.base+"/v1/checkpoint", nil, nil); err != nil {
		r.logger.Warn("post-extract checkpoint failed", "node", src.addr, "err", err)
	}

	err = r.checkMigFault("inject")
	if err == nil {
		err = r.postJSON(tgt.base+"/v1/tenants/"+tenant+"/inject", transfer, nil)
	}
	if err != nil {
		// The tenant exists only in the transfer bytes now. Put it back on
		// the source before failing; if even that fails the state is gone
		// from the cluster and the operator restores from the source's
		// checkpoint (taken just above, pre-extract state minus nothing —
		// the extract quiesced first).
		rerr := r.checkMigFault("reinject")
		if rerr == nil {
			rerr = r.postJSON(src.base+"/v1/tenants/"+tenant+"/inject", transfer, nil)
		}
		if rerr != nil {
			r.dropRoute(rt, tenant)
			return nil, fmt.Errorf("cluster: inject of %q failed on target %s (%v) AND source %s (%v); tenant needs manual restore from checkpoint",
				tenant, tgt.addr, err, src.addr, rerr)
		}
		return abort(fmt.Errorf("cluster: injecting %q into %s: %v", tenant, tgt.addr, err))
	}
	r.logger.Info("migration injected", "tenant", tenant, "to", tgt.addr)
	if err := r.postJSON(tgt.base+"/v1/checkpoint", nil, nil); err != nil {
		r.logger.Warn("post-inject checkpoint failed", "node", tgt.addr, "err", err)
	}

	// The flip lands even when the drain fails: the tenant's state lives on
	// tgt now, and leaving the route moving would buffer arrivals with no
	// one left to replay them. It journals the route's follower as it is
	// now: one degraded mid-move must not come back from the log.
	replayed, err := r.drain(rt, mig, tenant, tgt, func() {
		rt.node = tgt.idx
		r.rlog.append(routeEvent{Op: "flip", Tenant: tenant, Node: tgt.addr,
			Follower: r.nodeAddr(rt.follower), Count: rt.count.Load(), Epoch: rt.epoch})
	})
	if err != nil {
		return nil, err
	}
	return &MigrateResult{Tenant: tenant, From: src.addr, To: tgt.addr, Served: served, Replayed: replayed}, nil
}

// quiesce starts a move: under the write lock it marks the tenant's route
// moving — from here its arrivals buffer in the returned migration — and
// reads the ledger, which is exact there because no forward is in flight.
// check runs under the same lock and may refuse the move. Frames the
// ledger counts may still sit in session write buffers, so every
// connection to the owner is flushed before quiesce returns: the owner can
// then reach the cut.
func (r *Router) quiesce(tenant string, check func(rt *route) error) (*route, *migration, int64, error) {
	r.mu.Lock()
	rt := r.routes[tenant]
	var err error
	switch {
	case rt == nil:
		err = fmt.Errorf("cluster: tenant %q has no route", tenant)
	case rt.mig != nil:
		err = fmt.Errorf("cluster: tenant %q is already moving", tenant)
	default:
		err = check(rt)
	}
	if err != nil {
		r.mu.Unlock()
		return nil, nil, 0, err
	}
	mig := &migration{}
	rt.mig = mig
	cut, owner := rt.count.Load(), rt.node
	r.mu.Unlock()
	r.flushNodeUpstreams(owner)
	return rt, mig, cut, nil
}

// drain is the one loop that replays a moving route's buffered arrivals.
// Each batch goes to the owner leg, whose admitted count advances the
// ledger, then to the route's follower, if it has one; a follower-leg
// failure only drops the follower. The follower is read per batch, so one
// a forward degrades mid-drain gets no further batches. Once the buffer is
// observed empty under the write lock, where no appender can be in flight,
// the route stops moving and settle runs under that lock.
//
// An owner-leg failure, or a "flip" fault, ends the drain there: settle
// still runs, and the arrivals not replayed are dropped — the same window
// a node crash loses — and counted in the error. After an owner-leg
// failure the follower is dropped too, since the owner's admitted count,
// and so the follower's match, is no longer known.
func (r *Router) drain(rt *route, mig *migration, tenant string, owner *node, settle func()) (int, error) {
	replayed := 0
	for {
		var err error
		if batch := mig.peek(); len(batch) == 0 {
			err = r.checkMigFault("flip")
		} else {
			n := 0
			if err = r.checkMigFault("replay"); err == nil {
				n, err = r.replayArrivals(owner, tenant, batch)
			}
			r.mu.RLock()
			mig.admit(&rt.count, n)
			follower := rt.follower
			r.mu.RUnlock()
			replayed += n
			ferr := err
			if ferr == nil && follower >= 0 {
				_, ferr = r.replayArrivals(r.nodes[follower], tenant, batch)
			}
			if ferr != nil && follower >= 0 {
				r.degradeFollower(tenant, follower, ferr)
			}
			if err == nil {
				continue
			}
		}
		r.mu.Lock()
		lost := len(mig.peek())
		if err == nil && lost > 0 {
			r.mu.Unlock()
			continue
		}
		rt.mig = nil
		settle()
		r.mu.Unlock()
		if err != nil {
			return replayed, fmt.Errorf("cluster: draining %q to %s: %v (%d buffered arrivals dropped)",
				tenant, owner.addr, err, lost)
		}
		return replayed, nil
	}
}

// dropRoute removes a tenant whose state was lost mid-migration so later
// requests fail fast with no-route instead of hitting a node that has
// never heard of it. Arrivals still buffered go with the route.
func (r *Router) dropRoute(rt *route, tenant string) {
	r.mu.Lock()
	if cur := r.routes[tenant]; cur == rt {
		delete(r.routes, tenant)
	}
	r.mu.Unlock()
	r.rlog.append(routeEvent{Op: "drop", Tenant: tenant})
}

// replayArrivals delivers a batch to a node outside the normal forwarding
// path (migration replay, abort replay, follower catch-up). It prefers the
// binary wire — one framed BATCH stream per call, acknowledged by the
// node's result frame — and falls back to the HTTP arrive endpoint when the
// node has no TCP listener or the stream fails before anything was written.
func (r *Router) replayArrivals(n *node, tenant string, batch []server.Arrival) (int, error) {
	if addr := n.tcp(); addr != "" {
		acc, err := r.replayBinary(addr, tenant, batch)
		if err == nil || acc > 0 {
			return acc, err
		}
		r.logger.Warn("binary replay failed before admission, retrying over HTTP",
			"node", n.addr, "tenant", tenant, "err", err)
	}
	acc, _, err := r.postArrivalsIdem(n, tenant, batch, 0, -1)
	return acc, err
}

// replayBinary streams one tenant's batch to a node as BIND + BATCH frames
// on a dedicated connection and collects the node's result frame, as a
// session collects its upstreams. The result's arrival count is
// authoritative: a stream that died mid-write reports how many arrivals
// the node actually admitted. The stream sends no WINDOW, so the node
// acks nothing before its result.
func (r *Router) replayBinary(addr, tenant string, batch []server.Arrival) (int, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	u := &upstream{conn: conn, bw: bufio.NewWriterSize(conn, 1<<16)}
	buf := server.AppendWireBind(nil, 0, tenant)
	err = u.writeFrame(buf, 0)
	items := make([]server.WireItem, 0, replayChunk)
	for off := 0; off < len(batch) && err == nil; off += replayChunk {
		items = items[:0]
		for _, a := range batch[off:min(off+replayChunk, len(batch))] {
			items = append(items, server.WireItem{Point: a.Point, Demands: a.Demands})
		}
		buf = server.AppendWireBatch(buf[:0], 0, items)
		err = u.writeFrame(buf, 0)
	}
	// A failed write is latched in u and returned by collect, which also
	// closes the connection.
	res, err := u.collect()
	if err != nil {
		return 0, err
	}
	if !res.OK {
		return res.Arrivals, fmt.Errorf("node result: %s", res.Error)
	}
	return res.Arrivals, nil
}

// replayChunk bounds one BATCH frame in the binary replay stream.
const replayChunk = 512
