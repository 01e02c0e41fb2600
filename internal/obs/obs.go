// Package obs is the observability layer for the serving stack: op tracing
// with per-stage latency stamps, a lock-free flight recorder, Prometheus text
// exposition, Go runtime stats, and structured event logging.
//
// # Determinism contract
//
// obs is the ONE package in the deterministic set that may read the wall and
// monotonic clocks (omflp-lint's detsource analyzer allowlists it
// package-wide). The discipline that makes this safe: nothing in obs ever
// feeds back into algorithm state. Trace ids, stage stamps, histograms and
// flight records are observation-only — golden snapshots stay byte-identical
// with tracing enabled, which the engine test suite pins.
//
// # Stages
//
// A traced arrival is stamped at five boundaries, yielding five monotonic
// stage durations plus a total:
//
//	decode   parsing the wire form (TCP frame / HTTP body) into an op
//	enqueue  Serve admission: waiting for space in the shard mailbox
//	dequeue  sitting in the mailbox until the shard goroutine picks it up
//	serve    the algorithm's Serve call itself
//	ack      post-serve bookkeeping until the record is published
//	         (cost accounting, seal-triggered state marshals, ring write)
//
// total = decode-start → publish. Stage stamps use a process-local monotonic
// clock, so they are comparable within one process only; flight records add
// a wall-clock publish stamp for cross-node ordering.
//
// # Sampling
//
// Tracing is sampled 1-in-N (Tracer): a sampled-out arrival carries a nil
// *OpRecord and allocates nothing — the hot path cost when sampled out is
// one atomic increment at the decode site and nil checks downstream. A
// sampled arrival allocates one OpRecord and one FlightRecord.
package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Stage indices into an op's stage-duration vector.
const (
	StageDecode = iota
	StageEnqueue
	StageDequeue
	StageServe
	StageAck
	// NumStages is the number of real stages; stage vectors reserve one
	// extra slot (index NumStages) for the decode-start → publish total.
	NumStages
)

// StageNames names the stages, indexed by the Stage constants. Index
// NumStages names the synthetic "total" series.
var StageNames = [NumStages + 1]string{"decode", "enqueue", "dequeue", "serve", "ack", "total"}

// epoch anchors the process-local monotonic clock used for stage stamps.
var epoch = time.Now()

// Mono returns monotonic nanoseconds since process start. Stamps from
// different processes are not comparable.
func Mono() int64 { return int64(time.Since(epoch)) }

// tracerSalt distinguishes trace-id namespaces when several Tracers exist in
// one process (tests, in-process clusters).
var tracerSalt atomic.Uint64

// Tracer decides which arrivals get traced and mints their ids. A nil
// *Tracer is valid and means tracing is off — every method short-circuits.
type Tracer struct {
	every uint64
	ctr   atomic.Uint64
	base  uint64
}

// NewTracer returns a tracer sampling 1 in every `sample` arrivals, or nil
// (tracing off) when sample <= 0. sample == 1 traces everything.
func NewTracer(sample int) *Tracer {
	if sample <= 0 {
		return nil
	}
	return &Tracer{
		every: uint64(sample),
		base:  mix64(uint64(time.Now().UnixNano()) + tracerSalt.Add(1)<<32),
	}
}

// Enabled reports whether tracing is on.
func (t *Tracer) Enabled() bool { return t != nil }

// Sample returns a fresh nonzero trace id for 1 in every N calls and 0 for
// the rest. Safe for concurrent use; costs one atomic increment when
// sampled out.
func (t *Tracer) Sample() uint64 {
	if t == nil {
		return 0
	}
	n := t.ctr.Add(1)
	if (n-1)%t.every != 0 {
		return 0
	}
	id := mix64(t.base ^ n)
	if id == 0 {
		id = 1
	}
	return id
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler, good
// enough to make counter-derived trace ids look uncorrelated.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TraceIDString renders a trace id the way every surface shows it: 16 hex
// digits (the X-Omflp-Trace header form).
func TraceIDString(id uint64) string {
	const hexdig = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdig[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseTraceID parses the 16-hex-digit header form; 0 means absent/invalid.
func ParseTraceID(s string) uint64 {
	if len(s) != 16 {
		return 0
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// OpRecord carries one sampled arrival's trace context from the decode site
// through admission to the shard goroutine. Lifecycle and ownership:
//
//  1. the front end calls NewOpRecord at decode start, then MarkDecoded;
//  2. the engine's admission path calls MarkAdmitted after the mailbox
//     send returns (admitNs is atomic: the shard goroutine may already be
//     reading the record);
//  3. the shard goroutine calls MarkDequeued, MarkServed, and finally
//     Recorder.Publish — everything after step 2 runs on the shard.
//
// All non-atomic fields written before the mailbox send are safely
// published to the shard by the channel's happens-before edge.
type OpRecord struct {
	TraceID uint64
	Tenant  string

	startNs int64 // Mono at decode start
	lastNs  int64 // Mono at the most recent stamp (owned by current stage owner)
	admitNs atomic.Int64

	stages [NumStages]int64
}

// NewOpRecord starts a trace at decode time. id must be nonzero (from
// Tracer.Sample or a propagated wire id).
func NewOpRecord(id uint64, tenant string) *OpRecord {
	return NewOpRecordAt(id, tenant, Mono())
}

// NewOpRecordAt is NewOpRecord with an explicit decode-start stamp (a Mono
// value), for decode sites that only learn the sampling decision after
// parsing — HTTP batch bodies stamp once before the decode and share the
// stamp across the batch's sampled arrivals.
func NewOpRecordAt(id uint64, tenant string, startNs int64) *OpRecord {
	return &OpRecord{TraceID: id, Tenant: tenant, startNs: startNs, lastNs: startNs}
}

// MarkDecoded ends the decode stage. When the decode work covered a batch of
// n arrivals (HTTP batch bodies), pass n > 1 to attribute an even share to
// this record; n <= 1 attributes the full duration.
func (r *OpRecord) MarkDecoded(n int) {
	now := Mono()
	d := now - r.startNs
	if n > 1 {
		d /= int64(n)
	}
	r.stages[StageDecode] = d
	r.lastNs = now
}

// MarkAdmitted stamps the moment the mailbox send returned. Called by the
// sender, possibly concurrently with the shard reading the record, hence
// the atomic.
func (r *OpRecord) MarkAdmitted() { r.admitNs.Store(Mono()) }

// MarkDequeued runs on the shard goroutine when it picks the op up, closing
// the enqueue and dequeue stages. If the sender's admit stamp is not yet
// visible (the shard won the race), the whole wait is attributed to
// dequeue — a best-effort split documented in the package comment.
func (r *OpRecord) MarkDequeued() {
	now := Mono()
	admit := r.admitNs.Load()
	if admit < r.lastNs {
		admit = r.lastNs
	}
	if admit > now {
		admit = now
	}
	r.stages[StageEnqueue] = admit - r.lastNs
	r.stages[StageDequeue] = now - admit
	r.lastNs = now
}

// MarkServed ends the serve stage (the algorithm's Serve call).
func (r *OpRecord) MarkServed() {
	now := Mono()
	r.stages[StageServe] = now - r.lastNs
	r.lastNs = now
}

// finish closes the ack stage and returns the stage vector plus total.
func (r *OpRecord) finish() (stages [NumStages]int64, total int64) {
	now := Mono()
	r.stages[StageAck] = now - r.lastNs
	r.lastNs = now
	return r.stages, now - r.startNs
}

// Reject closes a record for an op that never reached a shard (admission
// failure): only decode and total carry time, Shard is -1.
func (r *OpRecord) Reject(outcome string) *FlightRecord {
	now := Mono()
	return &FlightRecord{
		TraceID:      TraceIDString(r.TraceID),
		Tenant:       r.Tenant,
		WallUnixNano: time.Now().UnixNano(),
		Shard:        -1,
		Outcome:      outcome,
		DecodeMicros: float64(r.stages[StageDecode]) / 1e3,
		TotalMicros:  float64(now-r.startNs) / 1e3,
	}
}

// Recorder aggregates published op records for one shard: per-stage
// histograms plus a flight ring. Histogram writes come from the single
// shard goroutine; readers (metrics scrapes, flight dumps) are concurrent.
type Recorder struct {
	hists   [NumStages + 1]Hist // indexed by Stage constants; last = total
	ring    *Flight
	sampled atomic.Int64
}

// NewRecorder returns a recorder whose flight ring holds the last n records.
func NewRecorder(n int) *Recorder {
	return &Recorder{ring: NewFlight(n)}
}

// Publish closes the record (ack stage), folds its stages into the
// histograms and appends it to the flight ring. shard and outcome annotate
// the flight record; outcome "" means "ok".
func (rc *Recorder) Publish(r *OpRecord, shard int, outcome string) {
	stages, total := r.finish()
	for i, d := range stages {
		rc.hists[i].RecordNs(d)
	}
	rc.hists[NumStages].RecordNs(total)
	rc.sampled.Add(1)
	if outcome == "" {
		outcome = "ok"
	}
	rc.ring.Put(&FlightRecord{
		TraceID:       TraceIDString(r.TraceID),
		Tenant:        r.Tenant,
		WallUnixNano:  time.Now().UnixNano(),
		Shard:         shard,
		Outcome:       outcome,
		DecodeMicros:  float64(stages[StageDecode]) / 1e3,
		EnqueueMicros: float64(stages[StageEnqueue]) / 1e3,
		DequeueMicros: float64(stages[StageDequeue]) / 1e3,
		ServeMicros:   float64(stages[StageServe]) / 1e3,
		AckMicros:     float64(stages[StageAck]) / 1e3,
		TotalMicros:   float64(total) / 1e3,
	})
}

// Sampled returns how many records this recorder has published.
func (rc *Recorder) Sampled() int64 { return rc.sampled.Load() }

// Ring exposes the recorder's flight ring for dumps.
func (rc *Recorder) Ring() *Flight { return rc.ring }

// AddTo accumulates this recorder's stage histograms into sums (one bucket
// vector per stage plus the total series) and returns the published count.
func (rc *Recorder) AddTo(sums *[NumStages + 1][HistBuckets]int64) int64 {
	for i := range rc.hists {
		rc.hists[i].AddTo(&sums[i])
	}
	return rc.sampled.Load()
}

// StageBreakdown is the JSON form of merged per-stage histograms, exposed
// under /v1/metrics as "stages" when tracing is on. Quantiles describe
// sampled arrivals only.
type StageBreakdown struct {
	// Sampled counts the traced arrivals the breakdown describes.
	Sampled int64       `json:"sampled"`
	Decode  HistSummary `json:"decode"`
	Enqueue HistSummary `json:"enqueue"`
	Dequeue HistSummary `json:"dequeue"`
	Serve   HistSummary `json:"serve"`
	Ack     HistSummary `json:"ack"`
	// Total is decode-start → record publish: the server-side figure to
	// reconcile against client-observed latency tails.
	Total HistSummary `json:"total"`
}

// NewStageBreakdown summarizes merged stage bucket vectors.
func NewStageBreakdown(sums *[NumStages + 1][HistBuckets]int64, sampled int64) *StageBreakdown {
	return &StageBreakdown{
		Sampled: sampled,
		Decode:  Summarize(sums[StageDecode]),
		Enqueue: Summarize(sums[StageEnqueue]),
		Dequeue: Summarize(sums[StageDequeue]),
		Serve:   Summarize(sums[StageServe]),
		Ack:     Summarize(sums[StageAck]),
		Total:   Summarize(sums[NumStages]),
	}
}

// Each visits the stage summaries in wire order (decode, enqueue, dequeue,
// serve, ack, total) — the iteration spine for Prometheus rendering.
func (b *StageBreakdown) Each(fn func(stage string, h HistSummary)) {
	fn(StageNames[StageDecode], b.Decode)
	fn(StageNames[StageEnqueue], b.Enqueue)
	fn(StageNames[StageDequeue], b.Dequeue)
	fn(StageNames[StageServe], b.Serve)
	fn(StageNames[StageAck], b.Ack)
	fn(StageNames[NumStages], b.Total)
}
