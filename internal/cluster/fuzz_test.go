package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
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

// FuzzRouteLogReplay opens a route log on arbitrary base and journal bytes,
// which must never panic. It then writes a valid journal, one event per
// byte of ops, and cuts it at an arbitrary byte, as a kill -9 mid-append
// leaves it. Reopening restores some prefix of the events; an event
// appended then must survive a second kill -9, so the next reopen holds the
// first reopen's routes plus that event.
func FuzzRouteLogReplay(f *testing.F) {
	f.Add([]byte(`{"version":1,"seq":2,"routes":{"a":{"node":"n1"}}}`),
		[]byte(`{"seq":3,"op":"place","tenant":"b","node":"n2"}`+"\n"+`{"seq":4,"op":"pla`),
		[]byte{0x00, 0x15, 0x26, 0x37, 0x48, 0x59}, uint16(60))
	f.Add([]byte{}, []byte("\n\n{}\nnull"), []byte{0x07, 0x17, 0x57}, uint16(0))
	f.Add([]byte("{"), []byte{}, []byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, base, journal, ops []byte, cut uint16) {
		dir := t.TempDir()
		jpath := filepath.Join(dir, routesJournalFile)
		if err := os.WriteFile(filepath.Join(dir, routesBaseFile), base, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jpath, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if rl, err := openRouteLog(dir); err == nil {
			rl.close()
		}

		dir = t.TempDir()
		jpath = filepath.Join(dir, routesJournalFile)
		rl, err := openRouteLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ops) > 64 {
			ops = ops[:64] // below rebaseEvery: every event stays in the journal
		}
		for i, op := range ops {
			rl.append(fuzzRouteEvent(i, op))
		}
		rl.journal.Close() // a kill -9: no final rebase
		data, err := os.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jpath, data[:int(cut)%(len(data)+1)], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := openRouteLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := re.snapshot()
		re.append(routeEvent{Op: "place", Tenant: "new", Node: "n9"})
		want["new"] = routeRecord{Node: "n9"}
		re.journal.Close() // a second kill -9
		again, err := openRouteLog(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer again.close()
		if got, _ := again.snapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("journal cut at %d of %d bytes: second restart restored %+v, want %+v",
				int(cut)%(len(data)+1), len(data), got, want)
		}
	})
}

// fuzzRouteEvent maps one fuzz byte to a route event over four tenants and
// four nodes: the low two bits pick the tenant, the next two the node, the
// rest the op.
func fuzzRouteEvent(i int, b byte) routeEvent {
	ev := routeEvent{Tenant: string(rune('a' + b&3)), Node: fmt.Sprintf("n%d", b>>2&3)}
	switch b >> 4 % 6 {
	case 0:
		ev.Op = "place"
	case 1:
		ev.Op, ev.Count = "flip", int64(i)
	case 2:
		ev.Op = "drop"
	case 3:
		ev.Op, ev.Follower, ev.Epoch = "promote", "n0", int64(i)
	case 4:
		ev.Op, ev.Follower = "follower", ev.Node
	default:
		ev = routeEvent{Op: "counts", Counts: map[string]int64{ev.Tenant: int64(i)}}
	}
	return ev
}
