package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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
// admitted — and adds them to the ledger, in one step as seen by position,
// then cuts the refused (0 or 1) arrivals after them without counting them.
func (m *migration) admit(count *atomic.Int64, n, refused int) {
	m.mu.Lock()
	count.Add(int64(n))
	m.buf = m.buf[n+refused:]
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
	// Served is the cut quiesce settled with the owner — the state the
	// transfer captured; Replayed counts arrivals buffered during the move
	// and replayed on the target before the route flipped.
	Served   int64 `json:"served"`
	Replayed int   `json:"replayed"`
}

// Migrate moves one tenant to the node at target's address live. One
// migration runs at a time; arrivals for the tenant keep being accepted
// throughout (they buffer in the router between quiesce and flip, so a
// client sees added latency, never an error). Ordering and state identity
// are preserved end to end: everything the owner admitted by quiesce is in
// the extracted state, everything accepted during the move replays on the
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
	// the owner; reconcile it before quiescing on it, or quiesce would take
	// the lag for a drift and drop the follower.
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
	// Quiesce saw the source admit exactly `served` arrivals, and the
	// capture runs on the tenant's shard after every one of them.
	var transfer []byte
	err := r.checkMigFault("extract")
	if err == nil {
		err = r.call("POST", src.base+"/v1/tenants/"+tenant+"/extract", nil, &transfer)
	}
	if err != nil {
		return abort(fmt.Errorf("cluster: extracting %q from %s: %v", tenant, src.addr, err))
	}
	r.logger.Info("migration extracted", "tenant", tenant, "from", src.addr, "bytes", len(transfer))

	// Persist the source without the tenant so a restart there cannot
	// resurrect it. Best-effort: a node without checkpointing 404s.
	if err := r.call("POST", src.base+"/v1/checkpoint", nil, nil); err != nil {
		r.logger.Warn("post-extract checkpoint failed", "node", src.addr, "err", err)
	}

	err = r.checkMigFault("inject")
	if err == nil {
		err = r.call("POST", tgt.base+"/v1/tenants/"+tenant+"/inject", transfer, nil)
	}
	if err != nil {
		// The tenant exists only in the transfer bytes now. Put it back on
		// the source before failing; if even that fails the state is gone
		// from the cluster and the operator restores from the source's
		// checkpoint (taken just above, pre-extract state minus nothing —
		// the extract quiesced first).
		rerr := r.checkMigFault("reinject")
		if rerr == nil {
			rerr = r.call("POST", src.base+"/v1/tenants/"+tenant+"/inject", transfer, nil)
		}
		if rerr != nil {
			r.dropRoute(rt, tenant)
			return nil, fmt.Errorf("cluster: inject of %q failed on target %s (%v) AND source %s (%v); tenant needs manual restore from checkpoint",
				tenant, tgt.addr, err, src.addr, rerr)
		}
		return abort(fmt.Errorf("cluster: injecting %q into %s: %v", tenant, tgt.addr, err))
	}
	r.logger.Info("migration injected", "tenant", tenant, "to", tgt.addr)
	if err := r.call("POST", tgt.base+"/v1/checkpoint", nil, nil); err != nil {
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

// quiesce starts a move and settles its cut. Under the write lock it marks
// the tenant's route moving — from here its arrivals buffer in the
// returned migration — and reads the ledger, which is exact there because
// no forward is in flight. check runs under the same lock and may refuse
// the move. Frames the ledger counts may still sit in session write
// buffers, so every connection to the owner and the follower is flushed,
// and the owner is then polled until it has admitted the ledger (see
// admitted). An owner whose count differs from the ledger either way has
// drifted from it: behind, it lost frames the ledger counted (a frame it
// refused failed its TCP stream, and the frames behind it on that
// connection were never served); ahead, a client reached it directly. Its
// count becomes the ledger and the cut, and the follower, whose stream no
// longer matches, is dropped. So is a follower that does not stand at the
// cut exactly. The move captures, installs and drains at the returned cut.
// An owner that cannot be read aborts the move: its follower is dropped
// and the drain a failed capture uses runs back to it.
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
	cut, owner, follower := rt.count.Load(), r.nodes[rt.node], rt.follower
	r.mu.Unlock()
	r.flushNodeUpstreams(owner.idx, follower)

	admitted, err := r.admitted(owner, tenant, cut)
	var ferr error
	switch {
	case err != nil:
		ferr = err
	case admitted != cut:
		r.mu.Lock()
		rt.count.Store(admitted)
		r.mu.Unlock()
		r.logger.Warn("ledger re-synced to the owner's admitted count",
			"tenant", tenant, "node", owner.addr, "ledger", cut, "admitted", admitted)
		ferr = fmt.Errorf("cluster: owner %s admitted %d arrivals, the ledger counts %d", owner.addr, admitted, cut)
		cut = admitted
	case follower >= 0:
		var fa int64
		if fa, ferr = r.admitted(r.nodes[follower], tenant, cut); ferr == nil && fa != cut {
			ferr = fmt.Errorf("cluster: follower admitted %d arrivals, the cut is %d", fa, cut)
		}
	}
	if ferr != nil && follower >= 0 {
		r.degradeFollower(tenant, follower, ferr)
	}
	if err != nil {
		if _, derr := r.drain(rt, mig, tenant, owner, func() {}); derr != nil {
			r.logger.Error("aborted move lost buffered arrivals", "tenant", tenant, "err", derr)
		}
		return nil, nil, 0, err
	}
	return rt, mig, cut, nil
}

// drain is the one loop that replays a moving route's buffered arrivals.
// Each batch goes to the owner leg, whose admitted count advances the
// ledger, then to the route's follower, if it has one; a follower-leg
// failure only drops the follower. Both legs send through sendArrivals,
// keyed at the ledger — exact while the route moves, because forwards
// only buffer then, and equal to both nodes' admitted counts from quiesce
// on — so a transient failure is retried under the key and can neither
// drop nor double-serve the batch. The follower is read per
// batch, so one a forward degrades mid-drain gets no further batches. Once
// the buffer is observed empty under the write lock, where no appender can
// be in flight, the route stops moving and settle runs under that lock.
//
// An arrival the owner refuses as invalid (a 400) is cut from the buffer
// uncounted and logged; the prefix before it stands, the follower gets
// exactly that prefix, and the drain goes on. An owner leg that fails
// otherwise after its retries, or a "flip" fault, ends the drain there:
// settle still runs, and the arrivals not replayed are dropped — the same
// window a node crash loses — and counted in the error. After an owner-leg
// failure the follower is dropped too, since the owner's admitted count,
// and so the follower's match, is no longer known.
func (r *Router) drain(rt *route, mig *migration, tenant string, owner *node, settle func()) (int, error) {
	replayed := 0
	for {
		var err error
		if batch := mig.peek(); len(batch) == 0 {
			err = r.checkMigFault("flip")
		} else {
			start, n := rt.count.Load(), 0
			if err = r.checkMigFault("replay"); err == nil {
				n, err = r.sendArrivals(owner, tenant, batch, 0, start)
			}
			refused := 0
			if errors.As(err, new(*refusedError)) && n < len(batch) {
				r.logger.Warn("drain cut an arrival the owner refused",
					"tenant", tenant, "node", owner.addr, "position", start+int64(n), "err", err)
				refused, err = 1, nil
			}
			r.mu.RLock()
			mig.admit(&rt.count, n, refused)
			follower := rt.follower
			r.mu.RUnlock()
			replayed += n
			ferr := err
			if ferr == nil && follower >= 0 && n > 0 {
				_, ferr = r.sendArrivals(r.nodes[follower], tenant, batch[:n], 0, start)
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
