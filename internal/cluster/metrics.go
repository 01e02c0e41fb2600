package cluster

import (
	"repro/internal/server"
)

// NodeReport is one node's slice of a cluster metrics scrape.
type NodeReport struct {
	Node    string `json:"node"`
	Healthy bool   `json:"healthy"`
	// Stale marks a duplicated scrape: the node's (Seq, WallUnixNano)
	// pair is exactly the one the previous cluster scrape saw, so the
	// numbers describe a rate window already accounted for (a wedged
	// node, a proxy replaying a cached body) and its window rates are
	// excluded from the totals. A restarted node resets Seq but carries a
	// fresh wall stamp, so recovery is never mistaken for staleness.
	Stale bool `json:"stale,omitempty"`
	// Routed counts tenants the routing table places on this node — it
	// can disagree with Metrics.Tenants while a migration is in flight or
	// after a node restart lost un-checkpointed creates.
	Routed  int             `json:"routed"`
	Error   string          `json:"error,omitempty"`
	Metrics *server.Metrics `json:"metrics,omitempty"`
}

// Metrics is the cluster-wide view GET /v1/metrics serves from the router:
// per-node reports plus totals that are safe to aggregate (window rates
// from fresh reports only — see NodeReport.Stale).
type Metrics struct {
	Nodes        int `json:"nodes"`
	HealthyNodes int `json:"healthy_nodes"`
	// Tenants is the routing-table size (the cluster's view, immune to
	// double counting while a tenant moves between nodes).
	Tenants int `json:"tenants"`
	// Served sums the route ledgers — arrivals admitted through the
	// cluster per the router's own accounting. Summing the nodes' served
	// counts instead would double-count migrated tenants: a source node's
	// histograms keep the history of tenants extracted from it.
	Served int64 `json:"served"`
	// WindowArrivalsPerSec sums the fresh (non-stale) nodes' windowed
	// serving rates.
	WindowArrivalsPerSec float64 `json:"window_arrivals_per_sec"`
	// Migrations counts completed migrations since the router started.
	Migrations int64 `json:"migrations"`
	// ReplicatedTenants counts routes that currently have a follower
	// (a passive copy); Replicate-mode clusters want this equal to Tenants.
	ReplicatedTenants int `json:"replicated_tenants"`
	// Retries counts forwarding attempts repeated under the retry policy.
	Retries int64 `json:"retries"`
	// Failovers counts node-down events that triggered follower promotion;
	// Promotions counts the tenants promoted across all of them.
	Failovers  int64 `json:"failovers"`
	Promotions int64 `json:"promotions"`
	// ReplicationDegrades counts followers dropped after a dual-write or
	// reseed failure (each later healed by the health loop's reseeder).
	ReplicationDegrades int64 `json:"replication_degrades"`
	// Faults reports injected-fault counts by kind when a fault injector is
	// configured (absent otherwise).
	Faults  map[string]int64 `json:"faults,omitempty"`
	PerNode []NodeReport     `json:"per_node"`
}

// Metrics scrapes every node and merges the reports. Each node's Seq is
// compared against the previous cluster scrape: an unchanged Seq flags the
// report stale rather than double-counting its rate window.
func (r *Router) Metrics() Metrics {
	routed := make(map[int]int)
	var served int64
	replicated := 0
	r.mu.RLock()
	tenants := len(r.routes)
	for _, rt := range r.routes {
		routed[rt.node]++
		served += rt.count.Load()
		if rt.follower >= 0 {
			replicated++
		}
	}
	r.mu.RUnlock()

	cm := Metrics{
		Nodes:               len(r.nodes),
		Tenants:             tenants,
		Served:              served,
		Migrations:          r.migrations.Load(),
		ReplicatedTenants:   replicated,
		Retries:             r.retries.Load(),
		Failovers:           r.failovers.Load(),
		Promotions:          r.promotions.Load(),
		ReplicationDegrades: r.replDegrades.Load(),
		Faults:              r.cfg.Faults.Counts(),
		PerNode:             make([]NodeReport, 0, len(r.nodes)),
	}
	for _, n := range r.nodes {
		rep := NodeReport{Node: n.addr, Routed: routed[n.idx]}
		if !n.isHealthy() {
			rep.Error = "unreachable"
			cm.PerNode = append(cm.PerNode, rep)
			continue
		}
		var m server.Metrics
		if err := r.call("GET", n.base+"/v1/metrics", nil, &m); err != nil {
			rep.Error = err.Error()
			cm.PerNode = append(cm.PerNode, rep)
			continue
		}
		rep.Healthy = true
		rep.Metrics = &m
		n.mu.Lock()
		rep.Stale = n.lastSeq != 0 && m.Seq == n.lastSeq && m.WallUnixNano == n.lastWall
		n.lastSeq, n.lastWall = m.Seq, m.WallUnixNano
		n.mu.Unlock()
		cm.HealthyNodes++
		if !rep.Stale {
			cm.WindowArrivalsPerSec += m.WindowArrivalsPerSec
		}
		cm.PerNode = append(cm.PerNode, rep)
	}
	return cm
}
