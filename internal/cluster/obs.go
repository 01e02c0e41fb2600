package cluster

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/obs"
	"repro/internal/server"
)

// handleProm serves the router's GET /metrics: the whole cluster in one
// Prometheus exposition. Cluster-level series come from the router's own
// accounting; every fresh node scrape is re-emitted with a node="addr"
// label (HELP/TYPE headers dedupe inside the PromWriter, so N nodes share
// one header per family). A stale scrape (unchanged Seq + wall stamp — see
// NodeReport.Stale) keeps its marker series but is not re-emitted: its
// gauges and rate windows describe a moment already scraped, and summing
// them again would double-count.
func (r *Router) handleProm(w http.ResponseWriter, req *http.Request) {
	cm := r.Metrics()
	w.Header().Set("Content-Type", server.PromContentType)
	p := obs.NewPromWriter(w)

	p.Gauge("omflp_cluster_nodes", "Worker nodes configured.", float64(cm.Nodes))
	p.Gauge("omflp_cluster_healthy_nodes", "Worker nodes currently reachable.", float64(cm.HealthyNodes))
	p.Gauge("omflp_cluster_tenants", "Tenants in the routing table.", float64(cm.Tenants))
	p.Counter("omflp_cluster_served_total", "Arrivals admitted through the cluster (route ledgers).", float64(cm.Served))
	p.Gauge("omflp_cluster_window_arrivals_per_sec", "Summed fresh-node window rates.", cm.WindowArrivalsPerSec)
	p.Counter("omflp_cluster_migrations_total", "Migrations completed since router start.", float64(cm.Migrations))
	p.Gauge("omflp_cluster_replicated_tenants", "Routes with a follower replica.", float64(cm.ReplicatedTenants))
	p.Counter("omflp_cluster_retries_total", "Forwarding attempts repeated under the retry policy.", float64(cm.Retries))
	p.Counter("omflp_cluster_failovers_total", "Node-down events that triggered follower promotion.", float64(cm.Failovers))
	p.Counter("omflp_cluster_promotions_total", "Tenants promoted onto their follower replica.", float64(cm.Promotions))
	p.Counter("omflp_cluster_replication_degrades_total", "Followers dropped after dual-write or reseed failure.", float64(cm.ReplicationDegrades))
	for _, kind := range [...]string{"dial_fail", "conn_reset", "stall", "partial", "probe_flap"} {
		if n, ok := cm.Faults[kind]; ok {
			p.Counter("omflp_cluster_injected_faults_total", "Injected faults fired, by kind.",
				float64(n), obs.PromLabel{Name: "kind", Value: kind})
		}
	}

	for _, rep := range cm.PerNode {
		nl := obs.PromLabel{Name: "node", Value: rep.Node}
		p.Gauge("omflp_node_healthy", "1 when the node answered this scrape.", b2f(rep.Healthy), nl)
		p.Gauge("omflp_node_stale", "1 when the node's report duplicated the previous scrape (excluded from re-emission).", b2f(rep.Stale), nl)
		p.Gauge("omflp_node_routed", "Tenants the routing table places on the node.", float64(rep.Routed), nl)
		if rep.Metrics != nil && !rep.Stale {
			server.WriteMetricsProm(p, rep.Metrics, nl)
		}
	}
	p.Flush() //nolint:errcheck // client gone mid-scrape
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleFlight serves the router's GET /v1/debug/flight: every healthy
// node's flight dump merged into one timeline, each record stamped with its
// origin node. ?tenant= and ?max= apply to the merged view (and are also
// pushed down to the nodes so no node ships more than the caller can see).
// An unreachable node is skipped — a debugging dump should show what is
// still observable, not fail because one node is not.
func (r *Router) handleFlight(w http.ResponseWriter, req *http.Request) {
	max := 0
	if v := req.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("max=%q is not a count", v))
			return
		}
		max = n
	}
	tenant := req.URL.Query().Get("tenant")

	q := url.Values{}
	if tenant != "" {
		q.Set("tenant", tenant)
	}
	if max > 0 {
		q.Set("max", strconv.Itoa(max))
	}
	suffix := "/v1/debug/flight"
	if len(q) > 0 {
		suffix += "?" + q.Encode()
	}

	doc := server.FlightDumpDoc{Records: []obs.FlightRecord{}}
	for _, n := range r.nodes {
		if !n.isHealthy() {
			continue
		}
		var nd server.FlightDumpDoc
		if err := r.call("GET", n.base+suffix, nil, &nd); err != nil {
			r.logger.Warn("flight dump scrape failed", "node", n.addr, "err", err)
			continue
		}
		doc.Tracing = doc.Tracing || nd.Tracing
		for i := range nd.Records {
			nd.Records[i].Node = n.addr
		}
		doc.Records = append(doc.Records, nd.Records...)
	}
	obs.SortFlight(doc.Records)
	doc.Records = obs.FilterFlight(doc.Records, "", max)
	writeJSON(w, http.StatusOK, doc)
}
