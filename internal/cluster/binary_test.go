package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"testing"

	"repro/internal/engine"
	"repro/internal/server"
)

// binClient is a minimal binary-wire client for router tests: one framed
// connection, lazily-bound tenant refs, and a drain that separates router
// acks from the final result frame.
type binClient struct {
	t    *testing.T
	conn *net.TCPConn
	bw   *bufio.Writer
	refs map[string]uint64
}

func dialBinary(t *testing.T, addr string) *binClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &binClient{t: t, conn: conn.(*net.TCPConn), bw: bufio.NewWriter(conn), refs: map[string]uint64{}}
	t.Cleanup(func() { conn.Close() })
	return c
}

func (c *binClient) frame(payload []byte) {
	c.t.Helper()
	if err := server.WriteFrame(c.bw, payload); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binClient) ref(tenant string) uint64 {
	r, ok := c.refs[tenant]
	if !ok {
		r = uint64(len(c.refs))
		c.refs[tenant] = r
		c.frame(server.AppendWireBind(nil, r, tenant))
	}
	return r
}

func (c *binClient) flush() {
	c.t.Helper()
	if err := c.bw.Flush(); err != nil {
		c.t.Fatal(err)
	}
}

func (c *binClient) finish() (server.TCPResult, int) {
	c.t.Helper()
	c.flush()
	if err := c.conn.CloseWrite(); err != nil {
		c.t.Fatal(err)
	}
	br := bufio.NewReader(c.conn)
	acked := 0
	var buf []byte
	for {
		frame, err := server.ReadFrame(br, buf)
		if err != nil {
			c.t.Fatalf("reading result: %v", err)
		}
		if server.IsBinaryFrame(frame) {
			op, body, err := server.WireFrameKind(frame)
			if err != nil || op != server.WireAck {
				c.t.Fatalf("router sent op 0x%02x (err %v), want ack", op, err)
			}
			ack, err := server.DecodeWireAck(body)
			if err != nil {
				c.t.Fatal(err)
			}
			for _, code := range ack.Codes {
				if code != 0 {
					c.t.Fatalf("router ack carried failure code %d", code)
				}
			}
			acked += len(ack.Codes)
			buf = frame[:0]
			continue
		}
		var res server.TCPResult
		if err := json.Unmarshal(frame, &res); err != nil {
			c.t.Fatal(err)
		}
		return res, acked
	}
}

// TestRouterBinaryWireByteIdentity is the cluster half of the wire
// negotiation contract: a windowed binary client drives two tenants through
// the router while a legacy JSON-framed connection drives the third, each
// connection's tenant migrating live mid-stream, and the final cluster
// artifact is byte-identical to the single-node reference for the same
// workload. The JSON tenant's suffix lands while its route moves: the
// router re-encodes those arrivals as binary frames, buffers them and
// drains them to the target.
func TestRouterBinaryWireByteIdentity(t *testing.T) {
	const tenants, arrivals, cut = 3, 60, 30
	const legacy = "tenant-001"
	want := referenceArtifact(t, 17, tenants, arrivals)

	w1 := startWorker(t, 17, "")
	w2 := startWorker(t, 17, "")
	// resume releases the legacy client's suffix once the legacy tenant's
	// route is moving; the hook then waits for all of it to buffer.
	resume := make(chan struct{})
	var r *Router
	r = startFaultRouter(t, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w1.HTTPAddr(), w2.HTTPAddr()}}, func(phase string) error {
		r.mu.RLock()
		legacyMoving := r.routes[legacy].mig != nil
		r.mu.RUnlock()
		if phase == "extract" && legacyMoving {
			close(resume)
			waitFor(t, "the legacy suffix to buffer", func() bool {
				r.mu.RLock()
				defer r.mu.RUnlock()
				return len(r.routes[legacy].mig.peek()) == (arrivals-cut)/tenants
			})
		}
		return nil
	})
	base := "http://" + r.HTTPAddr()
	for i := 0; i < tenants; i++ {
		httpJSON(t, "POST", base+"/v1/tenants/"+tenantName(i), testCreate, http.StatusCreated)
	}

	// The binary client owns tenants 0 and 2; the legacy JSON client owns
	// tenant 1. Per-tenant arrival order is all that determinism requires,
	// so the two connections run concurrently.
	legacyDone := make(chan server.TCPResult, 1)
	go func() {
		conn, err := net.Dial("tcp", r.TCPAddr())
		if err != nil {
			t.Error(err)
			legacyDone <- server.TCPResult{}
			return
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		for i := 0; i < arrivals; i++ {
			if i%tenants != 1 {
				continue
			}
			if i == cut+1 {
				bw.Flush() //nolint:errcheck
				<-resume
			}
			a := testArrival(i)
			payload, err := json.Marshal(engine.Op{Op: "arrive", Tenant: legacy, Point: a.Point, Demands: a.Demands})
			if err != nil {
				t.Error(err)
				break
			}
			if err := server.WriteFrame(bw, payload); err != nil {
				t.Error(err)
				break
			}
		}
		bw.Flush()                       //nolint:errcheck
		conn.(*net.TCPConn).CloseWrite() //nolint:errcheck
		frame, err := server.ReadFrame(bufio.NewReader(conn), nil)
		if err != nil {
			t.Error(err)
			legacyDone <- server.TCPResult{}
			return
		}
		var res server.TCPResult
		json.Unmarshal(frame, &res) //nolint:errcheck
		legacyDone <- res
	}()

	c := dialBinary(t, r.TCPAddr())
	c.frame(server.AppendWireWindow(nil, 8, false))
	binSent := 0
	// Prefix as singleton ARRIVE frames, in order.
	for i := 0; i < cut; i++ {
		if i%tenants == 1 {
			continue
		}
		a := testArrival(i)
		c.frame(server.AppendWireArrive(nil, c.ref(tenantName(i%tenants)), a.Point, a.Demands))
		binSent++
	}
	c.flush()

	// Migrate tenant-000 and then the legacy tenant with both streams open:
	// wait for each prefix to reach the ledger, then move the tenant to the
	// node that doesn't own it. The binary suffix for tenant-000 follows
	// the route flip; the legacy suffix buffers during the move.
	moveToOther := func(id string) *MigrateResult {
		t.Helper()
		waitFor(t, id+"'s prefix to reach the ledger", func() bool {
			r.mu.RLock()
			defer r.mu.RUnlock()
			rt, ok := r.routes[id]
			return ok && rt.count.Load() == cut/tenants
		})
		r.mu.RLock()
		owner := r.routes[id].node
		r.mu.RUnlock()
		res, err := r.Migrate(id, []string{w1.HTTPAddr(), w2.HTTPAddr()}[1-owner])
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	moveToOther("tenant-000")
	if res := moveToOther(legacy); res.Replayed != (arrivals-cut)/tenants {
		t.Errorf("legacy tenant's move replayed %d arrivals, want its %d-arrival suffix", res.Replayed, (arrivals-cut)/tenants)
	}

	// Suffix as per-tenant BATCH frames — cross-tenant reorder is legal.
	items := map[string][]server.WireItem{}
	for i := cut; i < arrivals; i++ {
		if i%tenants == 1 {
			continue
		}
		id := tenantName(i % tenants)
		a := testArrival(i)
		items[id] = append(items[id], server.WireItem{Point: a.Point, Demands: a.Demands})
		binSent++
	}
	for _, id := range []string{tenantName(0), tenantName(2)} {
		c.frame(server.AppendWireBatch(nil, c.ref(id), items[id]))
	}
	res, acked := c.finish()
	if !res.OK || res.Arrivals != binSent {
		t.Fatalf("binary result %+v, want ok with %d arrivals", res, binSent)
	}
	if acked != binSent {
		t.Fatalf("router acked %d of %d binary-stream arrivals", acked, binSent)
	}
	legacyRes := <-legacyDone
	if !legacyRes.OK || legacyRes.Arrivals != arrivals/tenants {
		t.Fatalf("legacy result %+v, want ok with %d arrivals", legacyRes, arrivals/tenants)
	}

	got := httpJSON(t, "GET", base+"/v1/snapshots", nil, http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Error("binary-over-router snapshots differ from the single-node artifact")
	}
	if n := r.migrations.Load(); n != 2 {
		t.Errorf("migrations counter = %d, want 2", n)
	}
}
