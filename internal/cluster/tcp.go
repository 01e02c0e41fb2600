package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/server"
)

// upstream is one session's framed connection to one worker node. Writes
// take mu; the migration coordinator also takes mu to flush frames the
// owning session has buffered but not yet pushed to the wire.
type upstream struct {
	node int
	conn net.Conn
	bw   *bufio.Writer
	mu   sync.Mutex
	err  error // first write error; poisons further writes

	// refs maps tenant name → the binary wire ref this session has bound
	// on this upstream (BIND emitted on first use). Only the owning
	// session goroutine touches it, so it needs no lock.
	refs map[string]uint64
}

// writeFrame forwards one frame, re-framed with traceID when non-zero so
// the worker records the op under the router's (or the client's) trace id.
func (u *upstream) writeFrame(frame []byte, traceID uint64) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return u.err
	}
	u.err = server.WriteFrameTrace(u.bw, frame, traceID)
	return u.err
}

func (u *upstream) flush() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return u.err
	}
	u.err = u.bw.Flush()
	return u.err
}

func (r *Router) registerUpstream(u *upstream) {
	r.upMu.Lock()
	r.upstreams[u] = struct{}{}
	r.upMu.Unlock()
}

func (r *Router) unregisterUpstream(u *upstream) {
	r.upMu.Lock()
	delete(r.upstreams, u)
	r.upMu.Unlock()
}

// flushNodeUpstreams pushes every session's buffered frames for a moving
// route's owner and follower nodes to the wire — the migration
// coordinator's half of the quiesce: the ledger counts frames at
// write-to-buffer time, so before the owner is waited on to reach the
// ledger, or either replica is sent a drain batch keyed at it, everything
// buffered must actually go. follower is -1 for an unreplicated route.
func (r *Router) flushNodeUpstreams(owner, follower int) {
	r.upMu.Lock()
	ups := make([]*upstream, 0, len(r.upstreams))
	for u := range r.upstreams {
		if u.node == owner || u.node == follower {
			ups = append(ups, u)
		}
	}
	r.upMu.Unlock()
	for _, u := range ups {
		u.flush() //nolint:errcheck // a dead conn fails its own session; quiesce then waits out cutWait and adopts the owner's count
	}
}

// session is one downstream TCP client's state: lazily-dialed upstream
// connections per node plus the count of arrivals absorbed into migration
// buffers (accepted, but not represented in any upstream's result frame).
//
// Binary wire state: refs holds the client's BIND declarations (consumed
// here, never forwarded — each upstream gets its own ref table), and the
// ack fields implement router-side windowed acks. The router acks at
// forward/buffer time with result code 0 and no latencies — its acks mean
// "accepted and routed", not "served"; the stream's final result frame is
// still the served/failed truth (see the wire spec in internal/server).
type session struct {
	r        *Router
	ups      map[int]*upstream
	buffered int
	// replicated counts arrivals this session dual-wrote to follower
	// upstreams; the followers' result frames count them too, so finish
	// subtracts them to keep the client's aggregate exactly-once.
	replicated int

	dw   *bufio.Writer // downstream writer: acks + the final result frame
	refs map[uint64]string

	window  int    // 0 until the client negotiates windowed acks
	seq     uint64 // arrivals accepted so far (any wire format)
	ackNext uint64 // first sequence number of the next ack frame

	scratch   []int  // demand-id decode scratch
	wbuf      []byte // re-framed upstream payload / ack payload scratch
	abuf      []byte // a JSON arrive re-encoded as a binary ARRIVE frame
	pendCodes []byte // per-arrival result codes awaiting the next ack frame
}

// maxRouterAckRun bounds the arrivals one router ack frame covers, so the
// codes buffer stays small even for enormous windows.
const maxRouterAckRun = 1 << 14

// emitAcks flushes the pending router-side ack run downstream.
func (s *session) emitAcks() error {
	if s.window == 0 || len(s.pendCodes) == 0 {
		return nil
	}
	s.wbuf = server.AppendWireAck(s.wbuf[:0], s.ackNext, s.pendCodes, nil)
	if err := server.WriteFrame(s.dw, s.wbuf); err != nil {
		return err
	}
	s.ackNext += uint64(len(s.pendCodes))
	s.pendCodes = s.pendCodes[:0]
	return s.dw.Flush()
}

// ack records n routed arrivals for seq/ack bookkeeping, all with the
// routing outcome err. Windowed sessions carry per-op failures here
// (unknown tenant, owner unavailable) instead of killing the stream: the
// client learns exactly which window slots failed and the session keeps
// serving the tenants that still route. Without a window, err fails the
// stream.
func (s *session) ack(n int, err error) error {
	if err != nil && s.window == 0 {
		return err
	}
	s.seq += uint64(n)
	if s.window == 0 {
		return nil
	}
	code := ackCodeFor(err)
	for i := 0; i < n; i++ {
		s.pendCodes = append(s.pendCodes, code)
	}
	if len(s.pendCodes) >= maxRouterAckRun {
		return s.emitAcks()
	}
	return nil
}

// ackCodeFor maps a routing failure onto the wire ack-code vocabulary.
func ackCodeFor(err error) byte {
	switch {
	case err == nil:
		return server.WireAckOK
	case errors.Is(err, engine.ErrUnknownTenant):
		return server.WireAckUnknownTenant
	default:
		// Transport failures, dead upstreams, injected faults: the owner
		// is unavailable from this session's point of view.
		return server.WireAckUnavailable
	}
}

func (s *session) upstream(idx int) (*upstream, error) {
	if u, ok := s.ups[idx]; ok {
		if u.err != nil {
			return nil, u.err
		}
		return u, nil
	}
	n := s.r.nodes[idx]
	addr := n.tcp()
	if addr == "" {
		return nil, fmt.Errorf("cluster: node %s exposes no TCP listener", n.addr)
	}
	if s.r.cfg.Faults.DialFail() {
		return nil, &unavailableError{fmt.Errorf("cluster: dialing node %s: injected dial failure", n.addr)}
	}
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing node %s: %v", n.addr, err)
	}
	conn = s.r.cfg.Faults.WrapConn(conn)
	u := &upstream{node: idx, conn: conn, bw: bufio.NewWriterSize(conn, 1<<16), refs: make(map[string]uint64)}
	s.ups[idx] = u
	s.r.registerUpstream(u)
	return u, nil
}

func (s *session) flushAll() {
	for _, u := range s.ups {
		u.flush() //nolint:errcheck // surfaced by the next write to the same upstream
	}
}

// bindRef returns the upstream's ref for tenant, emitting a BIND frame the
// first time this session addresses the tenant on this upstream.
func (s *session) bindRef(u *upstream, tenant string) (uint64, error) {
	if ref, ok := u.refs[tenant]; ok {
		return ref, nil
	}
	ref := uint64(len(u.refs))
	s.wbuf = server.AppendWireBind(s.wbuf[:0], ref, tenant)
	if err := u.writeFrame(s.wbuf, 0); err != nil {
		return 0, err
	}
	u.refs[tenant] = ref
	return ref, nil
}

// routeBinary forwards one binary arrive/batch frame carrying count arrivals
// for tenant — the one way an arrival travels from a session to a worker.
// It is buffered under migration (buffer re-decodes the frame's items with
// copied demand slices), else re-framed with the owner upstream's ref —
// everything after the ref is copied verbatim, never re-encoded — and the
// ledger advances by count at buffer-write time. A replicated tenant's
// frame is dual-written to the follower under the same read lock. traceID
// (0 = untraced) rides the owner's frame header.
func (s *session) routeBinary(tenant string, frame []byte, count int, traceID uint64, buffer func(add func(...server.Arrival))) error {
	r := s.r
	r.mu.RLock()
	rt := r.routes[tenant]
	if rt == nil {
		r.mu.RUnlock()
		return fmt.Errorf("cluster: tenant %q has no route: %w", tenant, engine.ErrUnknownTenant)
	}
	if m := rt.mig; m != nil {
		buffer(m.add)
		r.mu.RUnlock()
		s.buffered += count
		return nil
	}
	u, err := s.upstream(rt.node)
	if err == nil {
		var ref uint64
		if ref, err = s.bindRef(u, tenant); err == nil {
			if s.wbuf, err = server.RewireTenantRef(s.wbuf[:0], frame, ref); err == nil {
				if err = u.writeFrame(s.wbuf, traceID); err == nil {
					rt.count.Add(int64(count))
				}
			}
		}
	}
	fidx := rt.follower
	var ferr error
	if err == nil && fidx >= 0 {
		// Dual-write, re-framed with the follower upstream's own ref.
		if fu, fe := s.upstream(fidx); fe != nil {
			ferr = fe
		} else {
			var fref uint64
			if fref, ferr = s.bindRef(fu, tenant); ferr == nil {
				if s.wbuf, ferr = server.RewireTenantRef(s.wbuf[:0], frame, fref); ferr == nil {
					if ferr = fu.writeFrame(s.wbuf, 0); ferr == nil {
						s.replicated += count
					}
				}
			}
		}
	}
	r.mu.RUnlock()
	if ferr != nil {
		r.degradeFollower(tenant, fidx, ferr)
	}
	return err
}

// routeArrive routes and acks one arrival whose binary ARRIVE frame is
// frame: the client's own, or a JSON arrive re-encoded.
func (s *session) routeArrive(tenant string, point int, demands []int, frame []byte, traceID uint64) error {
	return s.ack(1, s.routeBinary(tenant, frame, 1, traceID, func(add func(...server.Arrival)) {
		add(server.Arrival{Point: point, Demands: append([]int(nil), demands...)})
	}))
}

// handleJSON dispatches one JSON frame from the downstream client. An
// arrive — the canonical shape FastArrive reads, or any other the general
// decoder accepts — is re-encoded as a binary ARRIVE frame and routed like
// one, so upstream connections carry arrivals only as binary frames. A
// create places the tenant. It reports whether the frame was a "follow"
// op, which takes the connection over.
func (s *session) handleJSON(frame []byte, traceID uint64) (bool, error) {
	var op engine.Op
	if tenant, point, demands, ok := server.FastArrive(frame, s.scratch[:0]); ok {
		s.scratch = demands[:0]
		op = engine.Op{Op: "arrive", Tenant: tenant, Point: point, Demands: demands}
	} else {
		// Decoded apart from op: json.Unmarshal moves its target to the
		// heap, and the FastArrive path must not allocate for it.
		var dec engine.Op
		if err := json.Unmarshal(frame, &dec); err != nil {
			return false, fmt.Errorf("cluster: decoding op: %v", err)
		}
		op = dec
	}
	switch op.Op {
	case "create":
		return false, s.r.createTenant(op.Tenant, op.Universe, op.Distances, op.CostBySize)
	case "arrive":
		s.abuf = server.AppendWireArrive(s.abuf[:0], 0, op.Point, op.Demands)
		return false, s.routeArrive(op.Tenant, op.Point, op.Demands, s.abuf, traceID)
	case "follow":
		return true, nil
	}
	return false, fmt.Errorf("cluster: unsupported op %q", op.Op)
}

// handleBinary dispatches one binary wire frame from the downstream client.
// BIND and WINDOW are consumed locally (each upstream gets its own ref
// table, and WINDOW is never forwarded — an upstream stream must produce
// exactly one result frame, so the router acks from its own layer instead).
func (s *session) handleBinary(frame []byte, traceID uint64) error {
	op, body, err := server.WireFrameKind(frame)
	if err != nil {
		return err
	}
	switch op {
	case server.WireBind:
		ref, tenant, err := server.DecodeWireBind(body)
		if err != nil {
			return err
		}
		if s.refs == nil {
			s.refs = make(map[uint64]string)
		}
		s.refs[ref] = tenant
		return nil
	case server.WireArrive:
		ref, point, demands, err := server.DecodeWireArrive(body, s.scratch[:0])
		if err != nil {
			return err
		}
		s.scratch = demands[:0]
		tenant, ok := s.refs[ref]
		if !ok {
			return fmt.Errorf("cluster: arrive ref %d: %w", ref, server.ErrWireRef)
		}
		return s.routeArrive(tenant, point, demands, frame, traceID)
	case server.WireBatch:
		ref, count, items, err := server.DecodeWireBatchHeader(body)
		if err != nil {
			return err
		}
		tenant, ok := s.refs[ref]
		if !ok {
			return fmt.Errorf("cluster: batch ref %d: %w", ref, server.ErrWireRef)
		}
		// Validate the item bytes before forwarding: a malformed batch
		// passed through verbatim would poison the whole upstream stream,
		// failing unrelated tenants pinned to the same node.
		walk := items
		for i := 0; i < count; i++ {
			var demands []int
			if _, demands, walk, err = server.DecodeWireBatchItem(walk, s.scratch[:0]); err != nil {
				return err
			}
			s.scratch = demands[:0]
		}
		if len(walk) != 0 {
			return fmt.Errorf("cluster: %d trailing bytes after batch: %w", len(walk), server.ErrWireTruncated)
		}
		return s.ack(count, s.routeBinary(tenant, frame, count, traceID, func(add func(...server.Arrival)) {
			rest := items
			for i := 0; i < count; i++ {
				var point int
				var demands []int
				point, demands, rest, _ = server.DecodeWireBatchItem(rest, nil)
				add(server.Arrival{Point: point, Demands: demands})
			}
		}))
	case server.WireWindow:
		w, _, err := server.DecodeWireWindow(body)
		if err != nil {
			return err
		}
		if s.seq != 0 || s.window != 0 {
			return fmt.Errorf("cluster: window after first arrival: %w", server.ErrWireWindow)
		}
		s.window = w
		return nil
	case server.WireAck:
		return fmt.Errorf("cluster: ack frame from client: %w", server.ErrWireOp)
	}
	return nil // unreachable: WireFrameKind rejects unknown ops
}

func (r *Router) acceptLoop(ln net.Listener) {
	defer r.loops.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		r.connMu.Lock()
		r.conns[conn] = struct{}{}
		r.connMu.Unlock()
		r.tcpConns.Add(1)
		go func() {
			defer r.tcpConns.Done()
			r.serveConn(conn)
			r.connMu.Lock()
			delete(r.conns, conn)
			r.connMu.Unlock()
		}()
	}
}

// serveConn proxies one framed op stream: arrives, binary or JSON, forward
// to their owner nodes as binary frames, creates place the tenant and run
// over HTTP, and at half-close the session collects every node's result
// frame into one aggregate result — the same contract a single node gives,
// so loadgen and clients cannot tell a router from a server.
func (r *Router) serveConn(conn net.Conn) {
	defer conn.Close()
	sess := &session{
		r:       r,
		ups:     make(map[int]*upstream),
		dw:      bufio.NewWriterSize(conn, 1<<16),
		scratch: make([]int, 0, 64),
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	buf := make([]byte, 0, 4096)
	var failure error
	for failure == nil {
		// About to block on the downstream socket: push everything already
		// routed to the wire so nodes never wait on frames parked in our
		// write buffers while the client thinks them sent — and flush our
		// own pending acks for the same reason.
		if br.Buffered() == 0 {
			sess.flushAll()
			if err := sess.emitAcks(); err != nil {
				break // downstream gone; the result frame is undeliverable
			}
		}
		frame, wireID, err := server.ReadFrameTrace(br, buf)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				failure = err
			}
			break
		}
		if len(frame) == 0 {
			continue
		}
		if r.standby.Load() {
			// A passive standby serves exactly one op: "follow". Everything
			// else is refused with the unavailable code so clients rotate to
			// the active router.
			var op engine.Op
			if json.Unmarshal(frame, &op) == nil && op.Op == "follow" {
				r.serveFollow(sess) //nolint:errcheck // follower hangs up when done
				return
			}
			failure = fmt.Errorf("cluster: router is standby for %s: %w", r.cfg.StandbyOf, engine.ErrClosed)
			break
		}
		// Trace context: an inbound id is propagated as-is; otherwise the
		// router samples so cluster-wide tracing works even when clients
		// send plain frames.
		id := wireID
		if id == 0 {
			id = r.tracer.Sample()
		}
		if server.IsBinaryFrame(frame) {
			failure = sess.handleBinary(frame, id)
		} else {
			var follow bool
			if follow, failure = sess.handleJSON(frame, id); follow {
				// A standby (or any journal consumer) subscribing to the route
				// log: stream the base doc, then live events, until it hangs up.
				r.serveFollow(sess) //nolint:errcheck // follower hangs up when done
				return
			}
		}
		buf = frame[:0]
	}
	sess.emitAcks() //nolint:errcheck // the result frame below is the stream's truth
	res := sess.finish(failure)
	payload, err := json.Marshal(res)
	if err != nil {
		return
	}
	if server.WriteFrame(sess.dw, payload) == nil {
		sess.dw.Flush() //nolint:errcheck // client may already be gone
	}
}

// finish closes every upstream for writing, collects the nodes' result
// frames, and folds them into the single result the downstream client gets:
// arrivals summed across nodes plus the migration-buffered ones, the first
// failure's message and code carried through.
func (s *session) finish(failure error) server.TCPResult {
	res := server.TCPResult{OK: failure == nil, Arrivals: s.buffered - s.replicated}
	if failure != nil {
		res.Error = failure.Error()
		res.Code = server.ErrorCode(failure)
	}
	idxs := make([]int, 0, len(s.ups))
	for idx := range s.ups {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		u := s.ups[idx]
		s.r.unregisterUpstream(u)
		nodeAddr := s.r.nodes[idx].addr
		nr, err := u.collect()
		if err != nil {
			if res.OK {
				res.OK = false
				res.Error = fmt.Sprintf("node %s: %v", nodeAddr, err)
			}
			continue
		}
		res.Arrivals += nr.Arrivals
		if !nr.OK && res.OK {
			res.OK = false
			res.Error = fmt.Sprintf("node %s: %s", nodeAddr, nr.Error)
			res.Code = nr.Code
		}
	}
	// Follower result frames counted every dual-written arrival a second
	// time; replicated (subtracted via the initial Arrivals value above)
	// keeps the aggregate exactly-once. Clamp for the degenerate case where
	// a follower upstream died before producing its result frame.
	if res.Arrivals < 0 {
		res.Arrivals = 0
	}
	return res
}

// serveFollow streams the route log to one follower (a standby router): the
// current base doc as the first frame, then one frame per journal event,
// until the follower hangs up, the log drops it for stalling, or the router
// shuts down. Journal lines keep their trailing newline — json.Unmarshal on
// the other end tolerates it.
func (r *Router) serveFollow(sess *session) error {
	base, ch := r.rlog.subscribe()
	defer r.rlog.unsubscribe(ch)
	if err := server.WriteFrame(sess.dw, base); err != nil {
		return err
	}
	if err := sess.dw.Flush(); err != nil {
		return err
	}
	r.logger.Info("follower attached", "base_bytes", len(base))
	for {
		select {
		case <-r.stop:
			return nil
		case line, ok := <-ch:
			if !ok {
				return nil // dropped for stalling or log closed
			}
			if err := server.WriteFrame(sess.dw, line); err != nil {
				return err
			}
			if err := sess.dw.Flush(); err != nil {
				return err
			}
		}
	}
}

// collect flushes, half-closes, and reads the node's result frame.
func (u *upstream) collect() (server.TCPResult, error) {
	defer u.conn.Close()
	if err := u.flush(); err != nil {
		return server.TCPResult{}, err
	}
	if tc, ok := u.conn.(*net.TCPConn); ok {
		tc.CloseWrite() //nolint:errcheck // read below surfaces a dead conn
	}
	u.conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck
	frame, err := server.ReadFrame(u.conn, nil)
	if err != nil {
		return server.TCPResult{}, fmt.Errorf("reading result: %v", err)
	}
	var res server.TCPResult
	if err := json.Unmarshal(frame, &res); err != nil {
		return server.TCPResult{}, fmt.Errorf("decoding result: %v", err)
	}
	return res, nil
}
