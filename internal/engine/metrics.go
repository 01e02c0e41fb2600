package engine

import (
	"time"

	"repro/internal/obs"
)

// The serve-latency histograms are obs.Hist: lock-free power-of-two
// histograms — bucket b counts durations whose nanosecond count has
// bit-length b, i.e. d ∈ [2^(b-1), 2^b) ns (see obs.Hist for the full
// bucket-boundary contract). One writer (the shard goroutine) and any
// number of readers (Metrics) touch each histogram concurrently.

// mergedHist sums per-shard histograms into one bucket vector plus a total.
func mergedHist(shards []*shard) (sum [obs.HistBuckets]int64, total int64) {
	for _, s := range shards {
		total += s.hist.AddTo(&sum)
	}
	return sum, total
}

// servedCounts reads each shard's served counter and their sum.
func servedCounts(shards []*shard) (perShard []int64, total int64) {
	perShard = make([]int64, len(shards))
	for i, s := range shards {
		perShard[i] = s.served.Load()
		total += perShard[i]
	}
	return perShard, total
}

// Metrics is an engine-wide health report. Rates and latencies are
// wall-clock measurements — unlike snapshots they are not part of the
// deterministic-output contract.
type Metrics struct {
	// Seq is a monotonic scrape sequence number: it increments on every
	// Metrics call, so a consumer merging reports from many engines (the
	// cluster router) can tell a fresh scrape from a stale or duplicated
	// one — two reports with the same Seq describe the same rate window,
	// and summing both would double-count. WallUnixNano timestamps the
	// scrape on the wall clock for the same purpose across restarts (Seq
	// resets with the process; the pair does not go backwards while it
	// lives).
	Seq          int64 `json:"seq"`
	WallUnixNano int64 `json:"wall_unix_nano"`
	Tenants      int   `json:"tenants"`
	// PassiveTenants counts the tenants that hold a base and a tail but no
	// algorithm instance yet (follower copies; see Engine.InjectPassive).
	PassiveTenants int   `json:"passive_tenants"`
	Shards         int   `json:"shards"`
	Served         int64 `json:"served"`
	// UptimeSeconds is the time since New.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// ArrivalsPerSec is the lifetime serving rate; WindowArrivalsPerSec
	// the rate since the previous Metrics call (the one to watch live).
	ArrivalsPerSec       float64 `json:"arrivals_per_sec"`
	WindowArrivalsPerSec float64 `json:"window_arrivals_per_sec"`
	// QueueDepth counts arrivals admitted but not yet served, summed over
	// shard mailboxes.
	QueueDepth int `json:"queue_depth"`
	// Serve latency quantiles from the merged per-shard histograms
	// (geometric bucket midpoints — within sqrt(2) of the true order
	// statistic; see obs.Hist). They time the arrivals the shards served
	// from their mailboxes; a tail taken by Restore or an inject is
	// counted in Served but not timed.
	LatencyP50Micros  float64 `json:"serve_latency_p50_us"`
	LatencyP99Micros  float64 `json:"serve_latency_p99_us"`
	LatencyP999Micros float64 `json:"serve_latency_p999_us"`
	// ServeLatency is the full merged serve-latency histogram in wire
	// form, so downstream mergers (the cluster router) re-aggregate raw
	// buckets instead of averaging quantiles.
	ServeLatency obs.HistSummary `json:"serve_latency"`
	// Stages is the per-stage latency breakdown over traced arrivals
	// (decode/enqueue/dequeue/serve/ack + total). nil when tracing is off.
	Stages *obs.StageBreakdown `json:"stages,omitempty"`
	// PerShard breaks the load down by serving goroutine: mailbox depth,
	// tenants pinned, served totals and rates per shard — the numbers that
	// reveal a hot shard the aggregates hide.
	PerShard []ShardMetrics `json:"per_shard"`
}

// ShardMetrics is one serving goroutine's share of the engine load.
type ShardMetrics struct {
	Shard   int   `json:"shard"`
	Tenants int   `json:"tenants"`
	Served  int64 `json:"served"`
	// QueueDepth is this shard's mailbox backlog (admitted, not served).
	QueueDepth int `json:"queue_depth"`
	// ArrivalsPerSec is the shard's lifetime serving rate;
	// WindowArrivalsPerSec its rate since the previous Metrics call.
	ArrivalsPerSec       float64 `json:"arrivals_per_sec"`
	WindowArrivalsPerSec float64 `json:"window_arrivals_per_sec"`
}

// ServedTotal returns the number of arrivals served so far. Unlike Metrics
// it neither closes the rate window nor advances the scrape sequence, so
// health probes and placement polls can read it at any frequency without
// distorting windowed rates for real metrics consumers.
func (e *Engine) ServedTotal() int64 {
	_, total := servedCounts(e.shards)
	return total
}

// Metrics reports current engine health. Each call also closes the rate
// window opened by the previous one.
func (e *Engine) Metrics() Metrics {
	depths := make([]int, len(e.shards))
	depth := 0
	for i, s := range e.shards {
		depths[i] = len(s.ops)
		depth += depths[i]
	}

	// The counter read happens under the mutex so concurrent Metrics
	// calls serialize: the served totals are monotone, so each caller's
	// read is ≥ the lastSrvd recorded by the previous one and the window
	// counts can never go negative.
	e.mu.Lock()
	now := time.Now()
	perShard, total := servedCounts(e.shards)
	window := now.Sub(e.lastAt).Seconds()
	windowShard := make([]int64, len(perShard))
	for i, c := range perShard {
		windowShard[i] = c - e.lastSrvd[i]
		e.lastSrvd[i] = c
	}
	e.lastAt = now
	e.scrapeSeq++
	seq := e.scrapeSeq
	tenants, passive := len(e.tenants), e.passive
	loads := append([]int(nil), e.loads...)
	e.mu.Unlock()

	sum, timed := mergedHist(e.shards)
	m := Metrics{
		Seq:               seq,
		WallUnixNano:      now.UnixNano(),
		Tenants:           tenants,
		PassiveTenants:    passive,
		Shards:            len(e.shards),
		Served:            total,
		UptimeSeconds:     now.Sub(e.start).Seconds(),
		QueueDepth:        depth,
		LatencyP50Micros:  obs.Quantile(sum, timed, 0.50) / 1e3,
		LatencyP99Micros:  obs.Quantile(sum, timed, 0.99) / 1e3,
		LatencyP999Micros: obs.Quantile(sum, timed, 0.999) / 1e3,
		ServeLatency:      obs.Summarize(sum),
		Stages:            e.stageBreakdown(),
		PerShard:          make([]ShardMetrics, len(e.shards)),
	}
	var windowServed int64
	for i := range m.PerShard {
		sm := ShardMetrics{
			Shard:      i,
			Tenants:    loads[i],
			Served:     perShard[i],
			QueueDepth: depths[i],
		}
		if up := m.UptimeSeconds; up > 0 {
			sm.ArrivalsPerSec = float64(perShard[i]) / up
		}
		if window > 0 {
			sm.WindowArrivalsPerSec = float64(windowShard[i]) / window
		}
		windowServed += windowShard[i]
		m.PerShard[i] = sm
	}
	if up := m.UptimeSeconds; up > 0 {
		m.ArrivalsPerSec = float64(total) / up
	}
	if window > 0 {
		m.WindowArrivalsPerSec = float64(windowServed) / window
	}
	return m
}

// stageBreakdown merges the per-shard stage histograms; nil when tracing is
// off.
func (e *Engine) stageBreakdown() *obs.StageBreakdown {
	if e.tracer == nil {
		return nil
	}
	var sums [obs.NumStages + 1][obs.HistBuckets]int64
	var sampled int64
	for _, s := range e.shards {
		sampled += s.rec.AddTo(&sums)
	}
	return obs.NewStageBreakdown(&sums, sampled)
}

// FlightDump returns the engine's flight-recorder contents: the newest
// records from every shard ring plus the admission-error ring, merged
// oldest-first. tenant filters ("" = all); max caps to the newest records
// (<= 0 = everything still in the rings). Empty (not nil) when tracing is
// off.
func (e *Engine) FlightDump(tenant string, max int) []obs.FlightRecord {
	recs := []obs.FlightRecord{}
	if e.tracer == nil {
		return recs
	}
	for _, s := range e.shards {
		recs = append(recs, s.rec.Ring().Dump()...)
	}
	recs = append(recs, e.errRing.Dump()...)
	obs.SortFlight(recs)
	return obs.FilterFlight(recs, tenant, max)
}
