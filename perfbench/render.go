package main

import (
	"encoding/binary"
	"encoding/json"
	"strconv"

	"repro/internal/server"
)

// Frames and HTTP bodies are rendered before each timed phase, so a timed
// phase only writes bytes that already exist.

// frames is one connection's pre-rendered binary frames, each with its
// 4-byte length header, laid out back to back in buf.
type frames struct {
	buf   []byte
	end   []int   // frame i is buf[end[i-1]:end[i]]
	count []int32 // arrivals in frame i
	due   []int64 // open loop: ns after the phase start when frame i is due
}

func (f *frames) len() int { return len(f.end) }

func (f *frames) frame(i int) []byte {
	start := 0
	if i > 0 {
		start = f.end[i-1]
	}
	return f.buf[start:f.end[i]]
}

// push appends one payload built by build (which appends to its argument)
// behind a length header.
func (f *frames) push(count int, build func([]byte) []byte) {
	at := len(f.buf)
	f.buf = append(f.buf, 0, 0, 0, 0)
	f.buf = build(f.buf)
	binary.BigEndian.PutUint32(f.buf[at:], uint32(len(f.buf)-at-4))
	f.end = append(f.end, len(f.buf))
	f.count = append(f.count, int32(count))
}

// renderBatches renders arrivals [from, to) as per-tenant BATCH frames of at
// most batch arrivals. Tenant t rides connection t % conns under ref t.
// Tenants are independent, so coalescing a tenant's arrivals across the
// stream changes no outcome as long as each tenant's own order holds.
func renderBatches(s *stream, from, to, tenants, conns, batch int) []*frames {
	out := make([]*frames, conns)
	for i := range out {
		out[i] = &frames{}
	}
	pending := make([][]int32, tenants)
	var items []server.WireItem
	var bufs [][]int
	emit := func(t int) {
		idx := pending[t]
		items = items[:0]
		for j, a := range idx {
			if j >= len(bufs) {
				bufs = append(bufs, make([]int, 0, 8))
			}
			it := s.item(int(a), bufs[j])
			bufs[j] = it.Demands
			items = append(items, it)
		}
		out[t%conns].push(len(idx), func(b []byte) []byte {
			return server.AppendWireBatch(b, uint64(t), items)
		})
		pending[t] = pending[t][:0]
	}
	for i := from; i < to; i++ {
		t := int(s.tenant[i])
		pending[t] = append(pending[t], int32(i))
		if len(pending[t]) == batch {
			emit(t)
		}
	}
	for t := range pending {
		if len(pending[t]) > 0 {
			emit(t)
		}
	}
	return out
}

// renderArrives renders arrivals [from, to) as single ARRIVE frames due at a
// fixed absolute rate: arrival from+j is due j/rate seconds after the phase
// starts, whichever connection it rides.
func renderArrives(s *stream, from, to, conns int, rate float64) []*frames {
	out := make([]*frames, conns)
	for i := range out {
		out[i] = &frames{}
	}
	var buf []int
	for i := from; i < to; i++ {
		t := int(s.tenant[i])
		it := s.item(i, buf)
		buf = it.Demands
		f := out[t%conns]
		f.push(1, func(b []byte) []byte {
			return server.AppendWireArrive(b, uint64(t), it.Point, it.Demands)
		})
		f.due = append(f.due, int64(float64(i-from)*1e9/rate))
	}
	return out
}

// renderSetup renders a connection's warm-up: WINDOW, then BIND and one
// ARRIVE for each of its tenants. Arrival t of the stream is tenant t's
// warm-up arrival.
func renderSetup(s *stream, names []string, conn, conns, window int) *frames {
	f := &frames{}
	f.push(0, func(b []byte) []byte { return server.AppendWireWindow(b, window, false) })
	var buf []int
	for t := conn; t < len(names); t += conns {
		f.push(0, func(b []byte) []byte { return server.AppendWireBind(b, uint64(t), names[t]) })
		it := s.item(t, buf)
		buf = it.Demands
		f.push(1, func(b []byte) []byte {
			return server.AppendWireArrive(b, uint64(t), it.Point, it.Demands)
		})
	}
	return f
}

// httpBatch is one pre-rendered POST /v1/tenants/{id}/arrive body.
type httpBatch struct {
	tenant int
	count  int
	body   []byte
}

// renderHTTP renders arrivals [from, to) as per-tenant JSON batch bodies of
// at most batch arrivals; tenant t rides connection t % conns.
func renderHTTP(s *stream, from, to, tenants, conns, batch int) [][]httpBatch {
	out := make([][]httpBatch, conns)
	pending := make([][]int32, tenants)
	emit := func(t int) {
		b := []byte(`{"arrivals":[`)
		for j, a := range pending[t] {
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"point":`...)
			b = strconv.AppendInt(b, int64(s.point[a]), 10)
			b = append(b, `,"demands":[`...)
			for k, d := range s.dem[s.off[a]:s.off[a+1]] {
				if k > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(b, int64(d), 10)
			}
			b = append(b, "]}"...)
		}
		b = append(b, "]}"...)
		out[t%conns] = append(out[t%conns], httpBatch{tenant: t, count: len(pending[t]), body: b})
		pending[t] = pending[t][:0]
	}
	for i := from; i < to; i++ {
		t := int(s.tenant[i])
		pending[t] = append(pending[t], int32(i))
		if len(pending[t]) == batch {
			emit(t)
		}
	}
	for t := range pending {
		if len(pending[t]) > 0 {
			emit(t)
		}
	}
	return out
}

// createBody renders a tenant's POST /v1/tenants/{id} document.
func createBody(t tenantSpec) []byte {
	b, err := json.Marshal(struct {
		Universe   int         `json:"universe"`
		Distances  [][]float64 `json:"distances"`
		CostBySize []float64   `json:"cost_by_size"`
	}{t.Universe, t.Distances, t.CostBySize})
	if err != nil {
		panic(err) // plain floats and ints always marshal
	}
	return b
}
