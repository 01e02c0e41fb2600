package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// TestFastArriveMatchesJSON is the fast path's differential contract: on
// every canonical arrive frame it must agree with encoding/json, and on
// everything else it must decline (ok=false) rather than misparse.
func TestFastArriveMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		op := engine.Op{Op: "arrive", Tenant: randName(rng), Point: rng.Intn(1000)}
		for k := 0; k <= rng.Intn(5); k++ {
			op.Demands = append(op.Demands, rng.Intn(64))
		}
		payload, err := json.Marshal(op)
		if err != nil {
			t.Fatal(err)
		}
		tenant, point, demands, ok := FastArrive(payload, nil)
		if !ok {
			t.Fatalf("fast path declined canonical frame %s", payload)
		}
		if tenant != op.Tenant || point != op.Point || !reflect.DeepEqual(demands, op.Demands) {
			t.Fatalf("fast path parsed %s as (%q,%d,%v), want (%q,%d,%v)",
				payload, tenant, point, demands, op.Tenant, op.Point, op.Demands)
		}
	}

	// Non-canonical or non-arrive inputs must decline, never misparse.
	for _, in := range []string{
		`{"op":"create","tenant":"a","universe":2}`,
		`{"tenant":"a","op":"arrive","point":1,"demands":[0]}`, // field order
		`{"op":"arrive","tenant":"a\"b","point":1,"demands":[0]}`,
		`{"op":"arrive","tenant":"a\\\"b","point":1,"demands":[0]}`, // escape
		`{"op":"arrive","tenant":"a","point":-1,"demands":[0]}`,     // negative
		`{"op":"arrive","tenant":"a","point":1,"demands":[]}`,       // empty
		`{"op":"arrive","tenant":"a","point":1,"demands":[0],"x":1}`,
		`{"op":"arrive","tenant":"a","point":1.5,"demands":[0]}`,
		`{"op":"arrive","tenant":"a","point":99999999999999999999,"demands":[0]}`,
		``,
		`{}`,
	} {
		if tenant, point, demands, ok := FastArrive([]byte(in), nil); ok {
			// The only acceptable "ok" is when encoding/json agrees exactly.
			var op engine.Op
			if err := json.Unmarshal([]byte(in), &op); err != nil ||
				op.Op != "arrive" || op.Tenant != tenant || op.Point != point ||
				!reflect.DeepEqual(op.Demands, demands) {
				t.Errorf("fast path accepted %q as (%q,%d,%v)", in, tenant, point, demands)
			}
		}
	}
}

func randName(rng *rand.Rand) string {
	const alpha = "abcdefghijklmnopqrstuvwxyz-0123456789"
	n := 1 + rng.Intn(12)
	out := make([]byte, n)
	for i := range out {
		out[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(out)
}

// FuzzReadFrameTrace reads frames from arbitrary bytes, as a worker or a
// router reads them from any client. The reader never panics, allocates at
// most a constant factor of its input whatever a header declares, and every
// frame it returns is what WriteFrameTrace writes for that payload and id.
func FuzzReadFrameTrace(f *testing.F) {
	var frames bytes.Buffer
	WriteFrameTrace(&frames, []byte(`{"op":"arrive","tenant":"a","point":1,"demands":[0]}`), 0)
	WriteFrameTrace(&frames, AppendWireArrive(nil, 0, 1, []int{0, 1}), 0xdeadbeefcafe)
	WriteFrameTrace(&frames, nil, 7)
	f.Add(frames.Bytes())
	f.Add(frames.Bytes()[:frames.Len()-3])
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 0}) // a header declaring 64 MiB, then one byte
	f.Add([]byte{0x80, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 'h', 'i'})
	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct {
			payload    []byte
			id         uint64
			start, end int
		}
		read := make([]frame, 0, len(data)/4+1)
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for {
			start := len(data) - r.Len()
			payload, id, err := ReadFrameTrace(r, nil)
			if err != nil {
				break
			}
			read = append(read, frame{payload, id, start, len(data) - r.Len()})
		}
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("reading %d bytes allocated %d bytes", len(data), alloc)
		}
		for _, fr := range read {
			raw := data[fr.start:fr.end]
			if fr.id == 0 && raw[0]&0x80 != 0 {
				// A traced header with id 0 reads as untraced, and that is
				// how WriteFrameTrace writes id 0.
				raw = append([]byte{raw[0] &^ 0x80, raw[1], raw[2], raw[3]}, raw[12:]...)
			}
			var w bytes.Buffer
			if err := WriteFrameTrace(&w, fr.payload, fr.id); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), raw) {
				t.Fatalf("frame at byte %d: read %d-byte payload with id %#x from %x, WriteFrameTrace writes %x",
					fr.start, len(fr.payload), fr.id, raw, w.Bytes())
			}
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("hello"), {}, bytes.Repeat([]byte("x"), 100000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame round trip: got %d bytes, want %d", len(got), len(want))
		}
		scratch = got
	}
	if _, err := ReadFrame(&buf, nil); err == nil || err.Error() != "EOF" {
		if _, err2 := ReadFrame(&buf, nil); err2 == nil {
			t.Error("EOF not reported at stream end")
		}
	}

	// Oversized frames are rejected on both sides.
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write accepted")
	}
	var hdr bytes.Buffer
	hdr.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&hdr, nil); err == nil {
		t.Error("oversized header accepted")
	}
	// A truncated frame is an error, not EOF.
	var trunc bytes.Buffer
	WriteFrame(&trunc, []byte("full payload"))
	half := trunc.Bytes()[:trunc.Len()-4]
	if _, err := ReadFrame(bytes.NewReader(half), nil); err == nil {
		t.Error("truncated frame read succeeded")
	}
}
