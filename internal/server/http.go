package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// TraceHeader carries a trace id (16 hex digits) across the router → worker
// HTTP hop: the router samples, the worker records under the same id.
const TraceHeader = "X-Omflp-Trace"

// IdemHeader is the idempotency key of a batched arrive: the stream
// position (arrivals admitted before this batch) its first item claims.
// The engine trims the already-admitted prefix of a replayed batch
// (engine.ServeBatchAt), so a retried POST can never double-serve — the
// foundation of the cluster's retry discipline. Positions assume the
// per-tenant single-writer the determinism contract already requires.
const IdemHeader = "X-Omflp-Idem-Start"

// Arrival is the HTTP arrival document: one request for a tenant.
type Arrival struct {
	Point   int   `json:"point"`
	Demands []int `json:"demands"`
}

// arriveBody accepts both shapes of POST .../arrive: a single arrival
// ({"point":..,"demands":[..]}) or a batch ({"arrivals":[...]}).
type arriveBody struct {
	Arrival
	Arrivals []Arrival `json:"arrivals"`
}

// createBody is the POST /v1/tenants/{id} document — the substrate fields of
// the op protocol's create, and its passive flag (a follower copy).
type createBody struct {
	Universe   int         `json:"universe"`
	Distances  [][]float64 `json:"distances"`
	CostBySize []float64   `json:"cost_by_size"`
	Passive    bool        `json:"passive,omitempty"`
}

// NewHTTPServer returns an http.Server for h whose Shutdown does not wait
// on connections that were dialed but never sent a request. net/http
// counts such a connection (StateNew) as busy until it is 5 s old, so one
// idle dial would stall a drain that long. The server tracks them through
// ConnState and, once Shutdown starts, closes them and any accepted later.
// Both daemons, the worker and the cluster router, serve HTTP through it.
func NewHTTPServer(h http.Handler) *http.Server {
	var mu sync.Mutex
	fresh := make(map[net.Conn]struct{})
	draining := false
	srv := &http.Server{Handler: h}
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(fresh, c)
		case draining:
			c.Close()
		default:
			fresh[c] = struct{}{}
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		draining = true
		for c := range fresh {
			c.Close()
		}
	})
	return srv
}

// trackRequests counts in-flight handlers so Shutdown can wait for them
// even after its context expires, and turns away requests arriving once
// draining has begun.
func (s *Server) trackRequests(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.reqMu.Lock()
		if s.draining {
			s.reqMu.Unlock()
			writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
			return
		}
		s.httpReqs.Add(1)
		s.reqMu.Unlock()
		defer s.httpReqs.Done()
		h.ServeHTTP(w, r)
	})
}

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants/{id}", s.handleCreate)
	mux.HandleFunc("POST /v1/tenants/{id}/arrive", s.handleArrive)
	mux.HandleFunc("GET /v1/tenants/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/snapshots", s.handleSnapshots)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handleProm)
	mux.HandleFunc("GET /v1/debug/flight", s.handleFlight)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/node", s.handleNode)
	mux.HandleFunc("POST /v1/tenants/{id}/extract", s.handleCapture(s.eng.ExtractTenant))
	mux.HandleFunc("POST /v1/tenants/{id}/inject", s.handleInject)
	mux.HandleFunc("GET /v1/tenants/{id}/served", s.handleServed)
	mux.HandleFunc("GET /v1/served", s.handleServedAll)
	mux.HandleFunc("GET /v1/tenants/{id}/export", s.handleCapture(s.eng.ExportTenant))
	if s.cfg.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// httpStatus maps engine errors onto protocol statuses.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, engine.ErrDuplicateTenant):
		return http.StatusConflict
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, engine.ErrArrivalGap):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

func writeErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var body createBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding create body: %v", err))
		return
	}
	err := s.eng.Apply(engine.Op{
		Op:         "create",
		Tenant:     r.PathValue("id"),
		Universe:   body.Universe,
		Distances:  body.Distances,
		CostBySize: body.CostBySize,
		Passive:    body.Passive,
	})
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"tenant": r.PathValue("id"), "status": "created"})
}

// arriveScratch pools per-request decode state for the arrive hot path: the
// raw body bytes and the batch-item scratch handed to ServeBatch. Pooling
// keeps large batch bodies from re-growing buffers on every request.
type arriveScratch struct {
	buf   []byte
	items []engine.BatchItem
}

var arrivePool = sync.Pool{
	New: func() any { return &arriveScratch{buf: make([]byte, 0, 1<<16)} },
}

// readAllInto is io.ReadAll appending into a reusable buffer.
func readAllInto(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Server) handleArrive(w http.ResponseWriter, r *http.Request) {
	tracer := s.eng.Tracer()
	wireID := obs.ParseTraceID(r.Header.Get(TraceHeader))
	var decodeStart int64
	if tracer.Enabled() || wireID != 0 {
		decodeStart = obs.Mono()
	}
	// The scratch's items slice is handed to ServeBatch, which serves it
	// asynchronously on the shard goroutine — so the pool return rides the
	// batch's onDone callback on the success path, and only the paths that
	// never enqueue recycle the scratch here.
	sc := arrivePool.Get().(*arriveScratch)
	buf, err := readAllInto(r.Body, sc.buf[:0])
	sc.buf = buf
	if err != nil {
		arrivePool.Put(sc)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading arrive body: %v", err))
		return
	}
	var body arriveBody
	if err := json.Unmarshal(buf, &body); err != nil {
		arrivePool.Put(sc)
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding arrive body: %v", err))
		return
	}
	batch := body.Arrivals
	if batch == nil {
		batch = []Arrival{body.Arrival}
	}
	id := r.PathValue("id")
	items := sc.items[:0]
	// An arrival NewRequest refuses ends the batch there, as one validate
	// refuses does: the arrivals ahead of it are still served.
	var refused error
	for _, a := range batch {
		req, err := s.eng.NewRequest(id, a.Point, a.Demands, nil)
		if err != nil {
			refused = err
			break
		}
		items = append(items, engine.BatchItem{Req: req})
	}
	sc.items = items
	// Sampling: a wire trace id (from the router) forces a record for the
	// batch's first arrival; the rest sample locally. The one body decode
	// is attributed evenly across the batch's sampled records.
	if tracer.Enabled() || wireID != 0 {
		for i := range items {
			tid := tracer.Sample()
			if i == 0 && wireID != 0 {
				tid = wireID
			}
			if tid != 0 {
				rec := obs.NewOpRecordAt(tid, id, decodeStart)
				rec.MarkDecoded(len(items))
				items[i].Rec = rec
			}
		}
	}
	// The idempotency header keys the batch to a stream position: replays
	// of an already-admitted prefix are trimmed instead of re-served.
	start := int64(-1)
	if v := r.Header.Get(IdemHeader); v != "" {
		n, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil || n < 0 {
			arrivePool.Put(sc)
			writeErr(w, http.StatusBadRequest, fmt.Errorf("%s=%q is not a position", IdemHeader, v))
			return
		}
		start = n
	}
	// One tenant resolution and one mailbox op for the whole batch.
	// Arrivals before the first invalid item are already admitted and
	// irrevocable — ServeBatch's accepted prefix reports how far it got.
	// The shard goroutine owns items from the enqueue until onDone fires,
	// so the scratch returns to the pool there; an enqueue of zero new
	// items never calls onDone and the scratch recycles here instead.
	acc, deduped, err := s.eng.ServeBatchAt(id, start, items, false, func(int, []int64) { arrivePool.Put(sc) })
	if acc-deduped == 0 {
		arrivePool.Put(sc)
	}
	if err == nil {
		err = refused
	}
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(httpStatus(err))
		json.NewEncoder(w).Encode(map[string]interface{}{
			"error": err.Error(), "accepted": acc, "deduped": deduped,
		})
		return
	}
	if deduped > 0 {
		writeJSON(w, http.StatusOK, map[string]int{"accepted": acc, "deduped": deduped})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"accepted": acc})
}

// boolParam parses a boolean query value such as ?compact= or ?passive=:
// absent/empty means false, anything strconv.ParseBool accepts ("1",
// "true", "0", ...) means itself, garbage is a client error.
func boolParam(r *http.Request, name string) (bool, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("%s=%q is not a boolean", name, v)
	}
	return b, nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	compact, perr := boolParam(r, "compact")
	if perr != nil {
		writeErr(w, http.StatusBadRequest, perr)
		return
	}
	var snap *engine.TenantSnapshot
	var err error
	if compact {
		snap, err = s.eng.SnapshotCompact(r.PathValue("id"))
	} else {
		snap, err = s.eng.Snapshot(r.PathValue("id"))
	}
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleSnapshots emits exactly the serve CLI's snapshot artifact — all
// tenants sorted by name, indented JSON, trailing newline — so goldens from
// the stdin path diff cleanly against the network path.
func (s *Server) handleSnapshots(w http.ResponseWriter, r *http.Request) {
	compact, perr := boolParam(r, "compact")
	if perr != nil {
		writeErr(w, http.StatusBadRequest, perr)
		return
	}
	var snaps []*engine.TenantSnapshot
	var err error
	if compact {
		snaps, err = s.eng.SnapshotAllCompact()
	} else {
		snaps, err = s.eng.SnapshotAll()
	}
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// PromContentType is the Prometheus text exposition content type served on
// GET /metrics.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// handleProm serves GET /metrics: the same health report as /v1/metrics in
// Prometheus text exposition format.
func (s *Server) handleProm(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	w.Header().Set("Content-Type", PromContentType)
	pw := obs.NewPromWriter(w)
	WriteMetricsProm(pw, &m)
	pw.Flush() //nolint:errcheck // client gone mid-scrape
}

// FlightDumpDoc is the GET /v1/debug/flight response body (and the unit the
// cluster router merges across nodes).
type FlightDumpDoc struct {
	// Tracing is false when the node runs without -trace-sample; the dump
	// is then always empty.
	Tracing bool `json:"tracing"`
	// Records is oldest-first; on a router merge each record carries its
	// origin node.
	Records []obs.FlightRecord `json:"records"`
}

// handleFlight serves GET /v1/debug/flight: the flight recorder's current
// contents. ?tenant= filters, ?max=N keeps the newest N records.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	max := 0
	if v := r.URL.Query().Get("max"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("max=%q is not a count", v))
			return
		}
		max = n
	}
	writeJSON(w, http.StatusOK, FlightDumpDoc{
		Tracing: s.eng.Tracer().Enabled(),
		Records: s.eng.FlightDump(r.URL.Query().Get("tenant"), max),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"uptime_seconds": m.UptimeSeconds,
		"tenants":        m.Tenants,
		"served":         m.Served,
	})
}

// handleNode reports this node's identity for cluster admission: a router
// only places tenants on nodes whose algorithm and seed match its own view,
// because migration identity depends on them. Reads are window-neutral
// (TenantCount/ServedTotal, not Metrics) so routers can poll at any
// frequency without distorting windowed rates.
func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.NodeInfo())
}

// handleCapture serves extract (capture = Engine.ExtractTenant, which
// removes the tenant) and export (Engine.ExportTenant, the
// replication-seeding read that leaves it serving): the reply is the
// tenant's one-tenant transfer document, engine.EncodeTransfer's bytes.
// The capture runs on the tenant's shard after every arrival admitted
// before the request, so a caller that has stopped sending and seen the
// admitted count it expects (GET .../served) captures exactly that
// prefix; the cluster router waits for that count at quiesce. A served=
// parameter, with which earlier builds waited here, is a 400, so a caller
// that relies on that wait cannot capture without it.
func (s *Server) handleCapture(capture func(id string) (*engine.TenantTransfer, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("served") {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("served= is not supported: wait for the admitted count (GET .../served) before capturing"))
			return
		}
		tr, err := capture(r.PathValue("id"))
		if err != nil {
			writeErr(w, httpStatus(err), err)
			return
		}
		// The capture checked that the document can hold the record.
		data, err := engine.EncodeTransfer(tr)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data) //nolint:errcheck // client gone mid-reply
	}
}

// handleInject restores an extracted or exported tenant on this node. The
// body is the transfer document extract and export reply with, read by the
// decoder behind engine.ReadCheckpointFile; the path id must name its one
// tenant so a mis-addressed inject fails loudly instead of restoring state
// under the wrong route. ?passive=1 injects a follower copy
// (engine.InjectPassive), which keeps the tail instead of serving it.
func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	passive, err := boolParam(r, "passive")
	var data []byte
	if err == nil {
		data, err = io.ReadAll(r.Body)
	}
	var tr *engine.TenantTransfer
	if err == nil {
		tr, err = engine.DecodeTransfer(data)
	}
	id := r.PathValue("id")
	if err == nil && len(tr.Tenants) == 1 && tr.Tenants[0].Tenant != id {
		err = fmt.Errorf("inject path names tenant %q, transfer carries %q", id, tr.Tenants[0].Tenant)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inject := s.eng.InjectTenant
	if passive {
		inject = s.eng.InjectPassive
	}
	if err := inject(tr); err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"tenant": id, "status": "injected", "arrivals": len(tr.Tenants[0].Arrivals),
	})
}

// handleServed reports a tenant's authoritative stream position: served is
// the settled count (arrivals fully applied, read on the shard goroutine),
// admitted includes anything still queued in the mailbox. Clients resuming
// after a failover poll until served == admitted and stable, then resend
// from that index — resumption keyed to the worker's truth, not to acks
// that may have been lost with the previous router.
func (s *Server) handleServed(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	served, err := s.eng.ServedCount(id)
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	admitted, err := s.eng.AdmittedCount(id)
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"served": int64(served), "admitted": admitted})
}

// handleServedAll reports every tenant's stream position at once, sorted
// by tenant name: the served and admitted counts GET .../served reports,
// read with one control op per shard (engine.ServedAll). Unlike
// GET /v1/snapshots it builds no passive tenant, so a router re-syncing a
// rejoining node reads it.
func (s *Server) handleServedAll(w http.ResponseWriter, r *http.Request) {
	counts, err := s.eng.ServedAll()
	if err != nil {
		writeErr(w, httpStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, counts)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CheckpointDir == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("checkpointing not configured"))
		return
	}
	if err := s.Checkpoint(); err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "checkpointed"})
}
