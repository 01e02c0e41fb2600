package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/engine"
)

// badDemandIDs are demand ids every ingress must refuse before building a
// demand set: negative, the negative int a 2^63 uvarint decodes to, and the
// first id at MaxUniverse.
var badDemandIDs = []int{-1, math.MinInt64, engine.MaxUniverse}

var ingressCreate = map[string]interface{}{
	"universe":     2,
	"distances":    [][]float64{{0, 1}, {1, 0}},
	"cost_by_size": []float64{0, 1, 1.5},
}

// TestIngressRefusesBadDemandIDs sends each ingress a malformed demand id
// and then a valid arrival. The malformed one gets the invalid-arrival
// outcome — HTTP 400, or a failed TCP result frame plus ack code 3 on a
// windowed stream — and the daemon goes on serving the valid one.
func TestIngressRefusesBadDemandIDs(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0",
		Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	base := "http://" + s.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/t0", ingressCreate, http.StatusCreated)

	// refused asserts a failed stream naming the demand id.
	refused := func(t *testing.T, res TCPResult) {
		t.Helper()
		if res.OK || !strings.Contains(res.Error, "demand id") {
			t.Errorf("result %+v, want a refused demand id", res)
		}
	}
	cases := []struct {
		name   string
		admits int64 // arrivals the bad and the valid send admit together
		bad    func(t *testing.T, id int)
		valid  func(t *testing.T)
	}{
		{"http", 1, func(t *testing.T, id int) {
			body := httpJSON(t, "POST", base+"/v1/tenants/t0/arrive", Arrival{Point: 0, Demands: []int{id}}, http.StatusBadRequest)
			if !strings.Contains(string(body), "demand id") {
				t.Errorf("400 body %s, want a refused demand id", body)
			}
		}, func(t *testing.T) {
			httpJSON(t, "POST", base+"/v1/tenants/t0/arrive", Arrival{Point: 1, Demands: []int{0, 1}}, http.StatusOK)
		}},
		{"json-tcp", 1, func(t *testing.T, id int) {
			// The canonical frame takes FastArrive's path unless the id is
			// negative; the spaced frame names a tenant that does not
			// exist and always takes encoding/json's.
			c := dialBin(t, s.TCPAddr())
			c.jsonOp(engine.Op{Op: "arrive", Tenant: "t0", Point: 0, Demands: []int{id}})
			res, _ := c.finish()
			refused(t, res)
			c = dialBin(t, s.TCPAddr())
			c.frame([]byte(fmt.Sprintf(`{"op": "arrive", "tenant": "a", "point": 0, "demands": [%d]}`, id)))
			res, _ = c.finish()
			refused(t, res)
		}, func(t *testing.T) {
			c := dialBin(t, s.TCPAddr())
			c.jsonOp(engine.Op{Op: "arrive", Tenant: "t0", Point: 1, Demands: []int{0, 1}})
			if res, _ := c.finish(); !res.OK || res.Arrivals != 1 {
				t.Errorf("valid JSON arrive after a refusal: %+v", res)
			}
		}},
		{"binary-arrive", 1, func(t *testing.T, id int) {
			c := dialBin(t, s.TCPAddr())
			c.window(8, true)
			c.arrive("t0", 0, []int{id})
			res, acks := c.finish()
			refused(t, res)
			if got := ackCodes(t, acks); string(got) != string([]byte{WireAckInvalid}) {
				t.Errorf("ack codes %v, want [%d]", got, WireAckInvalid)
			}
		}, func(t *testing.T) {
			c := dialBin(t, s.TCPAddr())
			c.arrive("t0", 1, []int{0, 1})
			if res, _ := c.finish(); !res.OK || res.Arrivals != 1 {
				t.Errorf("valid ARRIVE after a refusal: %+v", res)
			}
		}},
		{"binary-batch", 2, func(t *testing.T, id int) {
			// The valid item ahead of the refused one is admitted, as
			// ahead of any invalid arrival.
			c := dialBin(t, s.TCPAddr())
			c.window(8, false)
			c.batch("t0", []WireItem{{Point: 1, Demands: []int{0}}, {Point: 0, Demands: []int{1, id}}})
			res, acks := c.finish()
			refused(t, res)
			if res.Arrivals != 1 {
				t.Errorf("batch admitted %d arrivals, want the 1 ahead of the refusal", res.Arrivals)
			}
			if got := ackCodes(t, acks); string(got) != string([]byte{WireAckOK, WireAckInvalid}) {
				t.Errorf("ack codes %v, want [%d %d]", got, WireAckOK, WireAckInvalid)
			}
		}, func(t *testing.T) {
			c := dialBin(t, s.TCPAddr())
			c.batch("t0", []WireItem{{Point: 1, Demands: []int{0, 1}}})
			if res, _ := c.finish(); !res.OK || res.Arrivals != 1 {
				t.Errorf("valid BATCH after a refusal: %+v", res)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, id := range badDemandIDs {
				before := admitted(t, s)
				tc.bad(t, id)
				tc.valid(t)
				if got := admitted(t, s) - before; got != tc.admits {
					t.Errorf("id %d: admitted %d arrivals, want %d", id, got, tc.admits)
				}
			}
		})
	}
}

// TestRefusalsShareOneOutcome: a demand id refused at ingress (negative,
// or at MaxUniverse), one only the tenant's universe refuses (in
// [U, MaxUniverse), refused by the engine) and a JSON arrive with no
// demands (refused by the engine) get one outcome. On a windowed stream
// the arrival ahead is acked OK, the refused one with code 3, and the
// result frame names the refusal; over HTTP the arrival ahead is served
// and the batch is a 400. The engine's error ring records each.
func TestRefusalsShareOneOutcome(t *testing.T) {
	s := startServer(t, Config{HTTPAddr: "127.0.0.1:0", TCPAddr: "127.0.0.1:0",
		Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1, TraceSample: 1 << 20}})
	base := "http://" + s.HTTPAddr()
	httpJSON(t, "POST", base+"/v1/tenants/t0", ingressCreate, http.StatusCreated)
	rejects := func() int {
		n := 0
		for _, rec := range s.eng.FlightDump("t0", 0) {
			if rec.Outcome == "invalid_request" {
				n++
			}
		}
		return n
	}
	cases := []struct {
		demands []int  // the refused arrival's; none is sent as a JSON arrive
		want    string // what the refusal names
	}{
		{[]int{1, 2}, "2"},
		{[]int{1, -1}, "-1"},
		{[]int{1, engine.MaxUniverse}, fmt.Sprint(engine.MaxUniverse)},
		{nil, "demands nothing"},
	}
	for _, tc := range cases {
		before := rejects()
		c := dialBin(t, s.TCPAddr())
		c.window(8, true)
		c.arrive("t0", 1, []int{0})
		if tc.demands == nil {
			c.jsonOp(engine.Op{Op: "arrive", Tenant: "t0", Point: 0})
		} else {
			c.arrive("t0", 0, tc.demands)
		}
		res, acks := c.finish()
		if res.OK || res.Arrivals != 1 || !strings.Contains(res.Error, tc.want) {
			t.Errorf("%s: result %+v, want 1 arrival and the refusal", tc.want, res)
		}
		if got := ackCodes(t, acks); string(got) != string([]byte{WireAckOK, WireAckInvalid}) {
			t.Errorf("%s: ack codes %v, want [%d %d]", tc.want, got, WireAckOK, WireAckInvalid)
		}

		body := httpJSON(t, "POST", base+"/v1/tenants/t0/arrive", map[string]interface{}{
			"arrivals": []Arrival{{Point: 1, Demands: []int{0}}, {Point: 0, Demands: tc.demands}},
		}, http.StatusBadRequest)
		var out struct {
			Accepted int    `json:"accepted"`
			Error    string `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Accepted != 1 || !strings.Contains(out.Error, tc.want) {
			t.Errorf("%s: HTTP batch answered %s, want 1 accepted and the refusal", tc.want, body)
		}
		if got := rejects() - before; got != 2 {
			t.Errorf("%s: error ring gained %d refusals, want 2", tc.want, got)
		}
	}
}

// TestTCPMalformedFrameAdmitsRunAhead: valid arrivals and a truncated ARRIVE
// written in one flush share a pending run. The malformed frame ends the
// stream, and the arrivals ahead of it are still admitted, counted in the
// result and, on a windowed stream, acked OK.
func TestTCPMalformedFrameAdmitsRunAhead(t *testing.T) {
	const k = 5
	s := startServer(t, Config{TCPAddr: "127.0.0.1:0", Engine: engine.Config{Algorithm: "pd", Shards: 1, Seed: 1}})
	if err := s.eng.Apply(engine.Op{Op: "create", Tenant: "t0", Universe: 2,
		Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5}}); err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{0, 8} {
		before := admitted(t, s)
		c := dialBin(t, s.TCPAddr())
		if window > 0 {
			c.window(window, false)
		}
		for i := 0; i < k; i++ {
			c.arrive("t0", i%2, []int{i % 2})
		}
		full := AppendWireArrive(nil, c.ref("t0"), 1, []int{0, 1})
		c.frame(full[:len(full)-1])
		res, acks := c.finish()
		if res.OK || res.Arrivals != k || !strings.Contains(res.Error, ErrWireTruncated.Error()) {
			t.Errorf("window %d: result %+v, want %d arrivals and a truncated frame", window, res, k)
		}
		if got := admitted(t, s) - before; got != k {
			t.Errorf("window %d: admitted %d arrivals, want %d", window, got, k)
		}
		want := ""
		if window > 0 {
			want = strings.Repeat(string([]byte{WireAckOK}), k)
		}
		if got := ackCodes(t, acks); string(got) != want {
			t.Errorf("window %d: ack codes %v, want %d OK", window, got, len(want))
		}
	}
}

// ackCodes flattens a stream's acks, which must start at seq 0.
func ackCodes(t *testing.T, acks []WireAckFrame) []byte {
	t.Helper()
	var out []byte
	for _, a := range acks {
		if a.FirstSeq != uint64(len(out)) {
			t.Fatalf("ack at seq %d after %d codes", a.FirstSeq, len(out))
		}
		out = append(out, a.Codes...)
	}
	return out
}

func admitted(t *testing.T, s *Server) int64 {
	t.Helper()
	n, err := s.eng.AdmittedCount("t0")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// FuzzServeFrame hands one frame to a connection's dispatch (handleBinary or
// handleJSON), after a BIND of ref 0 to the engine's one small tenant. The
// frame may fail the stream — that is an error return, never a panic — and
// the daemon must then still serve the next valid arrival.
func FuzzServeFrame(f *testing.F) {
	seeds := [][]byte{
		AppendWireArrive(nil, 0, 0, []int{math.MinInt64}),
		[]byte(`{"op":"arrive","tenant":"a","point":0,"demands":[-1]}`),
		AppendWireArrive(nil, 0, 1, []int{0, 1}),
		AppendWireBatch(nil, 0, []WireItem{{Point: 0, Demands: []int{0}}, {Point: 1, Demands: []int{1}}}),
		AppendWireWindow(nil, 8, true),
		AppendWireBind(nil, 1, "t0"),
		[]byte(`{"op":"arrive","tenant":"t0","point":1,"demands":[0,1]}`),
		[]byte(`{"op":"arrive","tenant":"t0","point":0,"demands":[65536]}`),
		[]byte(`{"op":"create","tenant":"t1","universe":1,"distances":[[0]],"cost_by_size":[0,1]}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		eng := engine.New(engine.Config{Algorithm: "pd", Shards: 1, Seed: 1})
		defer eng.Close()
		if err := eng.Apply(engine.Op{Op: "create", Tenant: "t0", Universe: 2,
			Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5}}); err != nil {
			t.Fatal(err)
		}
		s := &Server{eng: eng}

		c, finish := dispatchConn(s)
		if err := c.handleBinary(AppendWireBind(nil, 0, "t0"), nil); err != nil {
			t.Fatal(err)
		}
		if IsBinaryFrame(frame) {
			c.handleBinary(frame, nil) //nolint:errcheck // a refused frame fails only its own stream
		} else {
			c.handleJSON(frame, nil) //nolint:errcheck // a refused frame fails only its own stream
		}
		finish() //nolint:errcheck // as above

		before := admitted(t, s)
		c, finish = dispatchConn(s)
		if err := c.handleBinary(AppendWireBind(nil, 0, "t0"), nil); err != nil {
			t.Fatal(err)
		}
		if err := c.handleBinary(AppendWireArrive(nil, 0, 1, []int{0, 1}), nil); err != nil {
			t.Fatalf("valid arrival after frame %q: %v", frame, err)
		}
		if err := finish(); err != nil {
			t.Fatalf("valid arrival after frame %q: %v", frame, err)
		}
		if got := admitted(t, s) - before; got != 1 {
			t.Fatalf("valid arrival after frame %q: admitted %d", frame, got)
		}
	})
}

// dispatchConn is a connection as serveConn builds it, with no socket:
// acks go nowhere. finish admits the pending run, joins the acker, and
// returns the engine's refusal of that run, if any.
func dispatchConn(s *Server) (*tcpConn, func() error) {
	c := &tcpConn{
		s:       s,
		bw:      bufio.NewWriter(io.Discard),
		scratch: make([]int, 0, 64),
	}
	return c, func() error {
		err := c.flush()
		if c.acker != nil {
			c.acker.close() //nolint:errcheck // writes go to io.Discard
		}
		return err
	}
}
