package server

import (
	"strconv"

	"repro/internal/obs"
)

// WriteMetricsProm renders one node's health report as Prometheus series.
// labels (e.g. node="addr" from the cluster router) are appended to every
// series, so the router can emit many nodes' reports into one exposition
// without collisions; TYPE/HELP headers dedupe inside the PromWriter.
func WriteMetricsProm(p *obs.PromWriter, m *Metrics, labels ...obs.PromLabel) {
	lbl := func(extra ...obs.PromLabel) []obs.PromLabel {
		return append(append([]obs.PromLabel{}, labels...), extra...)
	}
	p.Gauge("omflp_tenants", "Tenants hosted.", float64(m.Tenants), labels...)
	p.Gauge("omflp_passive_tenants", "Tenants hosted passive: a base and a tail, no algorithm instance yet.", float64(m.PassiveTenants), labels...)
	p.Gauge("omflp_shards", "Serving goroutines.", float64(m.Shards), labels...)
	p.Counter("omflp_served_total", "Arrivals served since start.", float64(m.Served), labels...)
	p.Gauge("omflp_uptime_seconds", "Seconds since engine start.", m.UptimeSeconds, labels...)
	p.Gauge("omflp_queue_depth", "Arrivals admitted but not yet served.", float64(m.QueueDepth), labels...)
	p.Gauge("omflp_arrivals_per_sec", "Lifetime serving rate.", m.ArrivalsPerSec, labels...)
	p.Gauge("omflp_window_arrivals_per_sec", "Serving rate over the last scrape window.", m.WindowArrivalsPerSec, labels...)

	for _, sm := range m.PerShard {
		sl := lbl(obs.PromLabel{Name: "shard", Value: strconv.Itoa(sm.Shard)})
		p.Gauge("omflp_shard_tenants", "Tenants pinned to the shard.", float64(sm.Tenants), sl...)
		p.Counter("omflp_shard_served_total", "Arrivals served by the shard.", float64(sm.Served), sl...)
		p.Gauge("omflp_shard_queue_depth", "Shard mailbox backlog.", float64(sm.QueueDepth), sl...)
	}

	p.Histogram("omflp_serve_latency_seconds", "Algorithm serve latency.", m.ServeLatency, labels...)
	if m.Stages != nil {
		p.Gauge("omflp_trace_sampled_total", "Arrivals with full stage records.", float64(m.Stages.Sampled), labels...)
		m.Stages.Each(func(stage string, h obs.HistSummary) {
			p.Histogram("omflp_stage_latency_seconds",
				"Per-stage latency of traced arrivals (decode/enqueue/dequeue/serve/ack; total = decode start to publish).",
				h, lbl(obs.PromLabel{Name: "stage", Value: stage})...)
		})
	}

	if m.Checkpoint.Configured {
		p.Counter("omflp_checkpoints_total", "Checkpoints written since start.", float64(m.Checkpoint.Count), labels...)
		p.Gauge("omflp_checkpoint_last_bytes", "Size of the latest checkpoint.", float64(m.Checkpoint.LastBytes), labels...)
		p.Gauge("omflp_checkpoint_last_duration_seconds", "Wall time of the latest checkpoint write.", m.Checkpoint.LastDurationMs/1e3, labels...)
		p.Gauge("omflp_checkpoint_last_arrivals", "Arrivals the latest checkpoint represents.", float64(m.Checkpoint.LastArrivals), labels...)
		p.Gauge("omflp_checkpoint_last_tail_arrivals", "Arrivals a restore of the latest checkpoint would replay.", float64(m.Checkpoint.LastTailArrivals), labels...)
		p.Gauge("omflp_restore_duration_seconds", "Wall time of the startup restore (0 = no checkpoint found).", m.Checkpoint.RestoreDurationMs/1e3, labels...)
		p.Gauge("omflp_restore_arrivals", "Arrivals the startup restore represented.", float64(m.Checkpoint.RestoredArrivals), labels...)
	}

	m.Runtime.WriteProm(p, labels...)
}
