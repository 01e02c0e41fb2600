package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/server"
)

// Router failover. A standby router (Config.StandbyOf) is a full Router
// that starts passive: it dials the primary's framed-op listener, sends a
// {"op":"follow"} op, and receives the primary's route log — one frame
// carrying the base doc, then one frame per live journal event. The stream
// keeps the standby's routing table and its own StateDir continuously
// current, and doubles as the health probe: a primary that cannot hold the
// connection up for FailoverAfter consecutive redials is presumed dead and
// the standby promotes itself.
//
// Promotion re-probes the worker nodes and runs the snapshot re-sync as a
// consistency check (the follow stream's ledgers may trail by the
// in-flight window, exactly like a restored route log), then starts the
// health loop and goes active. The old primary is NOT fenced — the
// deployment must ensure clients move with the failover (retry lists) and
// the old primary stays down; two active routers dual-writing the same
// tenants is operator error, and the promote log line says so.

// followLoop runs the standby life cycle: follow, redial on failure,
// promote after FailoverAfter consecutive failures.
func (r *Router) followLoop() {
	defer r.loops.Done()
	fails := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		err := r.followOnce()
		if err == nil {
			// Clean end of stream (primary shut down gracefully): still a
			// failure for failover accounting, but log it differently.
			err = fmt.Errorf("primary closed the follow stream")
		}
		select {
		case <-r.stop:
			return
		default:
		}
		fails++
		r.logger.Warn("follow stream lost", "primary", r.cfg.StandbyOf, "fails", fails,
			"failover_after", r.cfg.FailoverAfter, "err", err)
		if fails >= r.cfg.FailoverAfter {
			r.promote()
			return
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.HealthEvery):
		}
	}
}

// followOnce holds one follow connection: install the base, apply events
// until the stream breaks. A successfully installed base resets nothing —
// failure counting lives in followLoop — but every applied frame keeps the
// standby current, so even a flapping primary leaves the standby at most
// one event behind.
func (r *Router) followOnce() error {
	conn, err := net.DialTimeout("tcp", r.cfg.StandbyOf, 5*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		select {
		case <-r.stop:
			conn.Close()
		case <-done:
		}
	}()
	defer close(done)

	op, _ := json.Marshal(map[string]string{"op": "follow"})
	if err := server.WriteFrame(conn, op); err != nil {
		return err
	}
	frame, err := server.ReadFrame(conn, nil)
	if err != nil {
		return fmt.Errorf("reading base: %v", err)
	}
	var base routeBase
	if err := json.Unmarshal(frame, &base); err != nil {
		return fmt.Errorf("decoding base: %v", err)
	}
	r.rlog.installBase(base)
	r.loadRoutes()
	r.logger.Info("following primary", "primary", r.cfg.StandbyOf,
		"routes", len(base.Routes), "seq", base.Seq)

	var buf []byte
	for {
		frame, err := server.ReadFrame(conn, buf)
		if err != nil {
			return err
		}
		buf = frame[:0]
		var ev routeEvent
		if err := json.Unmarshal(frame, &ev); err != nil {
			return fmt.Errorf("decoding event: %v", err)
		}
		r.rlog.applyEvent(ev)
		r.loadRoutes(ev.tenants()...)
	}
}

// promote turns the standby active: probe the nodes, run the snapshot
// re-sync as a consistency check over the followed table, mark every
// ledger unsynced (the stream may trail by the in-flight window), and
// start the health loop. From here the router journals its own events.
func (r *Router) promote() {
	r.logger.Warn("standby promoting — primary presumed dead; ensure it stays down",
		"primary", r.cfg.StandbyOf)
	r.mu.Lock()
	for _, rt := range r.routes {
		rt.synced = false
	}
	routes := len(r.routes)
	r.mu.Unlock()
	// Skip probe-time auto-sync (the followed table is authoritative);
	// run the consistency check explicitly below.
	if routes > 0 && r.routesRestored == 0 {
		r.routesRestored = routes
	}
	healthy := 0
	for _, n := range r.nodes {
		if err := r.probe(n); err != nil {
			r.logger.Warn("node unreachable at promotion", "node", n.addr, "err", err)
			continue
		}
		healthy++
	}
	for _, n := range r.nodes {
		if !n.isHealthy() {
			continue
		}
		if err := r.syncNode(n); err != nil {
			r.logger.Warn("promotion consistency sync failed", "node", n.addr, "err", err)
		}
	}
	r.standby.Store(false)
	r.loops.Add(1)
	go r.healthLoop()
	r.logger.Warn("standby promoted to active",
		"routes", routes, "healthy_nodes", healthy, "nodes", len(r.nodes))
}
