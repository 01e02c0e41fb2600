package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
)

// MaxFrame bounds one frame's payload (64 MiB — matches the op scanner's
// line limit; create ops carry whole distance matrices).
const MaxFrame = 1 << 26

// frameTraceFlag marks a traced frame in the length header's top bit: the
// header is then followed by an 8-byte big-endian trace id before the
// payload. MaxFrame is 2^26, so flagging bit 31 can never collide with a
// legal length — readers that know the flag decode both forms, and untraced
// frames are byte-identical to the pre-trace protocol.
const frameTraceFlag = uint32(1) << 31

// WriteFrame writes one length-prefixed frame: 4-byte big-endian payload
// length, then the payload. Callers stream ops by framing each marshaled
// engine.Op; buffering (bufio.Writer) is the caller's business.
func WriteFrame(w io.Writer, payload []byte) error {
	return WriteFrameTrace(w, payload, 0)
}

// WriteFrameTrace writes one frame carrying a trace id (0 = untraced,
// identical to WriteFrame): the length header with frameTraceFlag set, the
// 8-byte big-endian id, then the payload. This is the frame-level trace
// context the cluster router uses to propagate its sampling decision to the
// worker that serves the op.
func WriteFrameTrace(w io.Writer, payload []byte, traceID uint64) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("server: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [12]byte
	n := 4
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	if traceID != 0 {
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload))|frameTraceFlag)
		binary.BigEndian.PutUint64(hdr[4:12], traceID)
		n = 12
	}
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame written by WriteFrame or WriteFrameTrace,
// discarding any trace id, reusing buf when large enough. io.EOF (clean
// close between frames) passes through unchanged so callers can distinguish
// end-of-stream from a truncated frame.
func ReadFrame(r io.Reader, buf []byte) ([]byte, error) {
	payload, _, err := ReadFrameTrace(r, buf)
	return payload, err
}

// ReadFrameTrace is ReadFrame keeping the trace id (0 when the frame is
// untraced).
func ReadFrameTrace(r io.Reader, buf []byte) ([]byte, uint64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("server: reading frame header: %v", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	var traceID uint64
	if n&frameTraceFlag != 0 {
		n &^= frameTraceFlag
		var idb [8]byte
		if _, err := io.ReadFull(r, idb[:]); err != nil {
			return nil, 0, fmt.Errorf("server: reading frame trace id: %v", err)
		}
		traceID = binary.BigEndian.Uint64(idb[:])
	}
	if n > MaxFrame {
		return nil, 0, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	if uint32(cap(buf)) >= n {
		buf = buf[:n]
	} else {
		// Grow toward n as the payload arrives, doubling from a few KiB, so
		// a header alone cannot make the reader allocate what it declares.
		buf = make([]byte, min(int(n), 4<<10))
	}
	for off := 0; ; {
		if _, err := io.ReadFull(r, buf[off:]); err != nil {
			if err == io.EOF && off > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, fmt.Errorf("server: reading %d-byte frame: %v", n, err)
		}
		if off = len(buf); off == int(n) {
			return buf, traceID, nil
		}
		buf = append(buf, make([]byte, min(off, int(n)-off))...)
	}
}

// TCPResult is the single result frame the server sends when an ingestion
// stream ends (client half-close) or fails.
type TCPResult struct {
	OK       bool   `json:"ok"`
	Arrivals int    `json:"arrivals"`
	Error    string `json:"error,omitempty"`
	// Code classifies a failure the way httpStatus classifies engine errors
	// for the HTTP API (unknown tenant ↔ 404/421, duplicate ↔ 409, engine
	// closed ↔ 503): a router in front of many nodes needs to distinguish
	// "this node does not host that tenant" — retry elsewhere, re-place the
	// tenant — from a genuine client error, which no amount of re-routing
	// fixes. Empty on success and for unclassified (client) errors.
	Code string `json:"code,omitempty"`
}

// TCPResult failure codes.
const (
	// CodeUnknownTenant: the op addressed a tenant this node does not host —
	// the tenant may live on another node or have been migrated away. The
	// HTTP equivalent is 404 (and 421 Misdirected Request at a router).
	CodeUnknownTenant = "unknown_tenant"
	// CodeDuplicateTenant: a create for a tenant that already exists (409).
	CodeDuplicateTenant = "duplicate_tenant"
	// CodeUnavailable: the engine is shutting down (503); retry elsewhere.
	CodeUnavailable = "unavailable"
)

// ErrorCode maps an engine error onto the TCPResult code vocabulary (""
// for unclassified errors) — the frame-protocol analogue of httpStatus.
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, engine.ErrUnknownTenant):
		return CodeUnknownTenant
	case errors.Is(err, engine.ErrDuplicateTenant):
		return CodeDuplicateTenant
	case errors.Is(err, engine.ErrClosed):
		return CodeUnavailable
	default:
		return ""
	}
}

// arrivePrefix is the byte shape json.Marshal gives an arrive op's head;
// FastArrive only accepts frames in exactly this canonical form.
var (
	arrivePrefix  = []byte(`{"op":"arrive","tenant":"`)
	pointSep      = []byte(`","point":`)
	demandsSep    = []byte(`,"demands":[`)
	arriveClosing = []byte(`]}`)
)

// FastArrive parses the canonical arrive frame
// {"op":"arrive","tenant":"...","point":N,"demands":[..]} without
// encoding/json — the per-op hot path of TCP ingestion, exported so the
// cluster router can pick a frame's tenant without a decode. ok is false for
// anything unexpected (field order, escapes, other ops); callers then fall
// back to the general decoder, so this is a pure fast path, never a
// behavior change. demands is appended to ids (pass a reusable scratch;
// Engine.NewRequest copies values into a bitset).
func FastArrive(b []byte, ids []int) (tenant string, point int, demands []int, ok bool) {
	if !bytes.HasPrefix(b, arrivePrefix) {
		return "", 0, nil, false
	}
	b = b[len(arrivePrefix):]
	end := bytes.IndexByte(b, '"')
	if end < 0 || bytes.IndexByte(b[:end], '\\') >= 0 {
		return "", 0, nil, false
	}
	tenant = string(b[:end])
	b = b[end:]
	if !bytes.HasPrefix(b, pointSep) {
		return "", 0, nil, false
	}
	b = b[len(pointSep):]
	point, b, ok = parseInt(b)
	if !ok || !bytes.HasPrefix(b, demandsSep) {
		return "", 0, nil, false
	}
	b = b[len(demandsSep):]
	for {
		var id int
		id, b, ok = parseInt(b)
		if !ok {
			return "", 0, nil, false
		}
		ids = append(ids, id)
		if len(b) == 0 {
			return "", 0, nil, false
		}
		if b[0] == ',' {
			b = b[1:]
			continue
		}
		break
	}
	if !bytes.Equal(b, arriveClosing) {
		return "", 0, nil, false
	}
	return tenant, point, ids, true
}

// parseInt consumes a non-negative decimal integer prefix (engine points and
// commodity ids are never negative; anything else falls back to the general
// decoder).
func parseInt(b []byte) (int, []byte, bool) {
	n, i := 0, 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if n > (1<<62)/10 {
			return 0, b, false
		}
		n = n*10 + int(b[i]-'0')
	}
	if i == 0 {
		return 0, b, false
	}
	return n, b[i:], true
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.loops.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.tcpConns.Add(1)
		go func() {
			defer s.tcpConns.Done()
			s.serveConn(conn)
			s.connMu.Lock()
			delete(s.conns, conn)
			s.connMu.Unlock()
		}()
	}
}

// tcpBatch caps the arrivals coalesced into one engine batch op on the TCP
// path.
const tcpBatch = 64

// ackSpan is one completed engine batch, or one refused arrival, awaiting
// ack emission with its result code.
type ackSpan struct {
	count   int
	code    byte
	serveNs []int64
}

// tcpAcker turns batch completions into coalesced ACK frames. Completions
// arrive out of order across shards; the acker holds them keyed by first
// sequence number and emits one ACK per contiguous run from the frontier.
// The span map stays small regardless of the client's window: in-flight
// batches are bounded by the engine mailboxes.
type tcpAcker struct {
	bw     *bufio.Writer
	wantNs bool

	mu       sync.Mutex
	spans    map[uint64]ackSpan
	frontier uint64

	notify chan struct{}
	quit   chan struct{}
	done   chan struct{}
	wg     sync.WaitGroup // batches handed to the engine, not yet completed

	err error // first ack write error (acker goroutine only)
}

func newTCPAcker(bw *bufio.Writer, wantNs bool) *tcpAcker {
	a := &tcpAcker{
		bw:     bw,
		wantNs: wantNs,
		spans:  make(map[uint64]ackSpan),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go a.run()
	return a
}

// complete is the engine's onDone target. It runs on a shard goroutine and
// must not block on the network, so it only files the span and nudges the
// acker goroutine.
func (a *tcpAcker) complete(first uint64, served int, serveNs []int64) {
	a.file(first, ackSpan{count: served, serveNs: serveNs})
	a.wg.Done()
}

// refuse files the ack for a refused arrival at seq — refused at ingress
// or by the engine — coded by its error. The stream fails with that error.
func (a *tcpAcker) refuse(seq uint64, err error) {
	a.file(seq, ackSpan{count: 1, code: WireAckCodeOf(err), serveNs: []int64{0}})
}

// file queues one span for emission and nudges the acker goroutine.
func (a *tcpAcker) file(first uint64, sp ackSpan) {
	a.mu.Lock()
	a.spans[first] = sp
	a.mu.Unlock()
	select {
	case a.notify <- struct{}{}:
	default:
	}
}

// close waits for every outstanding batch to complete, flushes the final
// acks, and stops the acker goroutine. After close returns the connection
// writer is free for the result frame.
func (a *tcpAcker) close() error {
	a.wg.Wait()
	close(a.quit)
	<-a.done
	return a.err
}

func (a *tcpAcker) run() {
	defer close(a.done)
	var payload, codes []byte
	for {
		select {
		case <-a.notify:
			a.emit(&payload, &codes)
		case <-a.quit:
			a.emit(&payload, &codes)
			return
		}
	}
}

// emit drains contiguous completed spans from the frontier into ACK frames,
// flushing the socket once no further span can be coalesced. A failed batch
// leaves a permanent gap at the frontier (its tail seqs were never served);
// later spans then stay unacked, which is fine — the stream is already
// dying and the result frame carries the error.
func (a *tcpAcker) emit(payload, codes *[]byte) {
	wrote := false
	for {
		a.mu.Lock()
		first := a.frontier
		c := (*codes)[:0]
		var ns []int64
		for {
			sp, ok := a.spans[a.frontier]
			if !ok {
				break
			}
			delete(a.spans, a.frontier)
			a.frontier += uint64(sp.count)
			for i := 0; i < sp.count; i++ {
				c = append(c, sp.code)
			}
			if a.wantNs {
				ns = append(ns, sp.serveNs...)
			}
		}
		a.mu.Unlock()
		*codes = c
		if len(c) == 0 {
			break
		}
		*payload = AppendWireAck((*payload)[:0], first, c, ns)
		if a.err == nil {
			a.err = WriteFrame(a.bw, *payload)
		}
		wrote = true
	}
	if wrote && a.err == nil {
		a.err = a.bw.Flush()
	}
}

// tcpConn is one connection's state. Its reader goroutine decodes frames,
// coalesces same-tenant arrivals and admits them itself; once the client
// sends WINDOW, the acker goroutine is the only other one.
type tcpConn struct {
	s     *Server
	br    *bufio.Reader
	bw    *bufio.Writer
	acker *tcpAcker // nil until a WINDOW frame arrives

	refs map[uint64]string // binary tenant refs, declared by BIND frames
	seq  uint64            // next arrival sequence number (all wire formats)

	// pending is the open run of same-tenant arrivals not yet admitted,
	// the ones numbered seq-len(pending) to seq-1. Flushed when the tenant
	// changes, the run hits tcpBatch, a create needs ordering, or the read
	// buffer drains (no more pipelined frames to coalesce with).
	pending       []engine.BatchItem
	pendingTenant string

	arrivals int   // arrivals admitted
	scratch  []int // demand-id decode scratch
}

// flush admits the pending arrival run as one engine batch and files its
// acks. The engine keeps the slice until the batch is served, so the next
// run starts a fresh one. A refusal inside the run is acked and returned:
// it ends the stream.
func (c *tcpConn) flush() error {
	if len(c.pending) == 0 {
		return nil
	}
	batch, first := c.pending, c.seq-uint64(len(c.pending))
	c.pending = nil
	var onDone func(int, []int64)
	wantNs := false
	if a := c.acker; a != nil {
		a.wg.Add(1)
		onDone = func(served int, ns []int64) { a.complete(first, served, ns) }
		wantNs = a.wantNs
	}
	acc, err := c.s.eng.ServeBatch(c.pendingTenant, batch, wantNs, onDone)
	c.arrivals += acc
	if c.acker != nil {
		if acc == 0 {
			c.acker.wg.Done() // nothing enqueued: onDone will never fire
		}
		if err != nil {
			c.acker.refuse(first+uint64(acc), err)
		}
	}
	return err
}

// addArrival coalesces one decoded arrival into the pending run. An
// arrival NewRequest refuses fails the stream after the arrivals ahead of
// it, as one the engine refuses does, and is acked the same way.
func (c *tcpConn) addArrival(tenant string, point int, demands []int, rec *obs.OpRecord) error {
	req, err := c.s.eng.NewRequest(tenant, point, demands, rec)
	if err != nil {
		if c.acker != nil {
			c.acker.refuse(c.seq, err)
		}
		return err
	}
	if len(c.pending) > 0 && (c.pendingTenant != tenant || len(c.pending) >= tcpBatch) {
		if err := c.flush(); err != nil {
			return err
		}
	}
	if len(c.pending) == 0 {
		c.pending = make([]engine.BatchItem, 0, tcpBatch)
		c.pendingTenant = tenant
	}
	c.pending = append(c.pending, engine.BatchItem{Req: req, Rec: rec})
	c.seq++
	return nil
}

// handleBinary dispatches one binary wire frame.
func (c *tcpConn) handleBinary(frame []byte, rec *obs.OpRecord) error {
	op, body, err := WireFrameKind(frame)
	if err != nil {
		return err
	}
	switch op {
	case WireBind:
		ref, tenant, err := DecodeWireBind(body)
		if err != nil {
			return err
		}
		if c.refs == nil {
			c.refs = make(map[uint64]string)
		}
		c.refs[ref] = tenant
		return nil
	case WireArrive:
		ref, point, demands, err := DecodeWireArrive(body, c.scratch[:0])
		if err != nil {
			return err
		}
		c.scratch = demands[:0]
		tenant, ok := c.refs[ref]
		if !ok {
			return fmt.Errorf("server: arrive ref %d: %w", ref, ErrWireRef)
		}
		if rec != nil {
			rec.Tenant = tenant
			rec.MarkDecoded(1)
		}
		return c.addArrival(tenant, point, demands, rec)
	case WireBatch:
		ref, count, items, err := DecodeWireBatchHeader(body)
		if err != nil {
			return err
		}
		tenant, ok := c.refs[ref]
		if !ok {
			return fmt.Errorf("server: batch ref %d: %w", ref, ErrWireRef)
		}
		if rec != nil {
			rec.Tenant = tenant
			rec.MarkDecoded(count) // one decode covered the whole frame
		}
		for i := 0; i < count; i++ {
			var point int
			var demands []int
			point, demands, items, err = DecodeWireBatchItem(items, c.scratch[:0])
			if err != nil {
				return err
			}
			c.scratch = demands[:0]
			r := rec
			if i > 0 {
				r = nil // trace context rides on the frame's first arrival
			}
			if err := c.addArrival(tenant, point, demands, r); err != nil {
				return err
			}
		}
		if len(items) != 0 {
			return fmt.Errorf("server: %d trailing bytes after batch: %w", len(items), ErrWireTruncated)
		}
		return nil
	case WireWindow:
		_, wantNs, err := DecodeWireWindow(body)
		if err != nil {
			return err
		}
		if c.seq != 0 || c.acker != nil {
			return fmt.Errorf("server: window after first arrival: %w", ErrWireWindow)
		}
		c.acker = newTCPAcker(c.bw, wantNs)
		return nil
	case WireAck:
		return fmt.Errorf("server: ack frame from client: %w", ErrWireOp)
	}
	return nil // unreachable: WireFrameKind rejects unknown ops
}

// handleJSON dispatches one JSON frame: the canonical arrive fast path, the
// general-decoder arrive, or a generic op applied in stream order.
func (c *tcpConn) handleJSON(frame []byte, rec *obs.OpRecord) error {
	// Hot path: canonical arrive frames (the exact byte shape json.Marshal
	// gives an arrive op) skip encoding/json entirely.
	if tenant, point, demands, ok := FastArrive(frame, c.scratch[:0]); ok {
		c.scratch = demands[:0]
		if rec != nil {
			rec.Tenant = tenant
			rec.MarkDecoded(1)
		}
		return c.addArrival(tenant, point, demands, rec)
	}
	var op engine.Op
	if err := json.Unmarshal(frame, &op); err != nil {
		return fmt.Errorf("server: decoding op: %v", err)
	}
	if rec != nil {
		rec.Tenant = op.Tenant
		rec.MarkDecoded(1)
	}
	// Every arrive joins the batch path, so a windowed stream acks it, or
	// its refusal, like any other arrival.
	if op.Op == "arrive" {
		return c.addArrival(op.Tenant, op.Point, op.Demands, rec)
	}
	// A generic op (a create) follows the arrivals ahead of it.
	if err := c.flush(); err != nil {
		return err
	}
	return c.s.eng.ApplyTraced(op, rec)
}

// serveConn drains one framed op stream into the engine. This goroutine
// is the connection's reader: it decodes frames, coalesces consecutive
// same-tenant arrivals and admits each run itself, so it blocks while a
// shard mailbox is full. When the client negotiated windowed acks, the
// acker goroutine streams coalesced ACK frames back; it is the only other
// goroutine. Per-tenant arrival order is preserved within a connection;
// clients that split one tenant across connections order their own
// arrivals.
//
// Tracing: a frame carrying a wire trace id (a router upstream) is always
// traced under that id; otherwise the engine's tracer samples locally. The
// sampled-out path allocates nothing — one atomic increment, then nil
// checks.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	c := &tcpConn{
		s:       s,
		br:      bufio.NewReaderSize(conn, 1<<16),
		bw:      bufio.NewWriterSize(conn, 1<<16),
		scratch: make([]int, 0, 64),
	}
	buf := make([]byte, 0, 4096)
	tracer := s.eng.Tracer()
	var failure error
	for failure == nil {
		frame, wireID, err := ReadFrameTrace(c.br, buf)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				failure = err
			}
			break
		}
		if len(frame) != 0 {
			id := wireID
			if id == 0 {
				id = tracer.Sample()
			}
			var rec *obs.OpRecord
			if id != 0 {
				rec = obs.NewOpRecord(id, "") // decode starts now; tenant known after parse
			}
			if IsBinaryFrame(frame) {
				failure = c.handleBinary(frame, rec)
			} else {
				failure = c.handleJSON(frame, rec)
			}
			buf = frame[:0]
		}
		// Read buffer drained: no more frames to coalesce with, so admit
		// the run before the next read blocks.
		if failure == nil && c.br.Buffered() == 0 {
			failure = c.flush()
		}
	}
	// The run ahead of a malformed or refused frame is still admitted; a
	// refusal inside it comes first in stream order.
	if err := c.flush(); err != nil {
		failure = err
	}

	var ackErr error
	if c.acker != nil {
		ackErr = c.acker.close() // drains: the result frame implies all acked
	}

	res := TCPResult{OK: failure == nil, Arrivals: c.arrivals}
	if failure != nil {
		res.Error = failure.Error()
		res.Code = ErrorCode(failure)
		// Error-sentinel auto-dump: the stream died on a classified
		// condition — log the event with the freshest flight records so
		// the trace context that led here is preserved even if the rings
		// roll over before anyone curls /v1/debug/flight.
		if res.Code != "" {
			s.logger.Error("tcp stream failed",
				"code", res.Code, "err", res.Error, "arrivals", c.arrivals,
				"remote", conn.RemoteAddr().String(),
				"flight", s.eng.FlightDump("", 8))
		}
	}
	if ackErr != nil {
		return // client already gone; the result frame is undeliverable
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if WriteFrame(c.bw, payload) == nil {
		c.bw.Flush() //nolint:errcheck // client may already be gone
	}
}
