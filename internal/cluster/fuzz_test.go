package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/http"
	"testing"

	"repro/internal/server"
)

// FuzzRouteFrame hands one frame, binary or JSON, to a router session's
// dispatch after a BIND of ref 0, on a router fronting one worker that
// hosts tenant t0. The frame may fail its own stream, but it never panics,
// and a valid arrival on a fresh session still reaches the worker. Any
// frame RewireTenantRef accepts keeps its op and every byte after the ref.
func FuzzRouteFrame(f *testing.F) {
	seeds := [][]byte{
		server.AppendWireBind(nil, 1, "t0"),
		server.AppendWireArrive(nil, 0, 1, []int{0, 1}),
		server.AppendWireArrive(nil, 0, 0, []int{math.MinInt64}),
		server.AppendWireArrive(nil, 0, -1, []int{0}),
		server.AppendWireBatch(nil, 0, []server.WireItem{{Point: 0, Demands: []int{0}}, {Point: 1, Demands: []int{1}}}),
		server.AppendWireBatch(nil, 0, []server.WireItem{{Point: 2, Demands: []int{-1}}}),
		server.AppendWireWindow(nil, 8, true),
		[]byte(`{"op":"arrive","tenant":"t0","point":1,"demands":[0,1]}`),
		[]byte(`{"tenant":"t0","op":"arrive","demands":[2],"point":3}`),
		[]byte(`{"op":"arrive","tenant":"t0","point":-1,"demands":[0]}`),
		[]byte(`{"op":"arrive","tenant":"t0","point":0,"demands":[-1]}`),
		[]byte(`{"op":"arrive","tenant":"t0","point":0,"demands":[]}`),
		[]byte(`{"op":"arrive","tenant":"t9","point":0,"demands":[0]}`),
		[]byte(`{"op":"follow"}`),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	w := startWorker(f, 29, "")
	r := startRouter(f, Config{TCPAddr: "127.0.0.1:0", Nodes: []string{w.HTTPAddr()}})
	httpJSON(f, "POST", "http://"+r.HTTPAddr()+"/v1/tenants/t0", testCreate, http.StatusCreated)
	bound := func(t *testing.T) *session {
		s := &session{r: r, ups: make(map[int]*upstream), dw: bufio.NewWriter(io.Discard), scratch: make([]int, 0, 64)}
		if err := s.handleBinary(server.AppendWireBind(nil, 0, "t0"), 0); err != nil {
			t.Fatal(err)
		}
		return s
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if out, err := server.RewireTenantRef(nil, frame, 1<<40); err == nil {
			_, n := binary.Uvarint(frame[3:])
			_, m := binary.Uvarint(out[3:])
			if !bytes.Equal(out[:3], frame[:3]) || !bytes.Equal(out[3+m:], frame[3+n:]) {
				t.Fatalf("RewireTenantRef(%x) = %x: header or tail changed", frame, out)
			}
		}

		s := bound(t)
		if server.IsBinaryFrame(frame) {
			s.handleBinary(frame, 0) //nolint:errcheck // a refused frame fails only its own stream
		} else {
			s.handleJSON(frame, 0) //nolint:errcheck // as above
		}
		s.finish(nil)

		before := admittedOn(t, w.HTTPAddr(), "t0")
		s = bound(t)
		if err := s.handleBinary(server.AppendWireArrive(nil, 0, 1, []int{0, 1}), 0); err != nil {
			t.Fatalf("valid arrival after frame %q: %v", frame, err)
		}
		if res := s.finish(nil); !res.OK || res.Arrivals != 1 {
			t.Fatalf("valid arrival after frame %q: result %+v", frame, res)
		}
		if got := admittedOn(t, w.HTTPAddr(), "t0") - before; got != 1 {
			t.Fatalf("valid arrival after frame %q: worker admitted %d", frame, got)
		}
	})
}
