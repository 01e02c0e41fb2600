package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The binary state layout shared by the PD-OMFLP and RAND-OMFLP codecs
// (state.go): the schema (one byte as a uvarint), then unsigned varints for
// every length, count, index and point, and float64s as their raw
// little-endian IEEE-754 bits, so every value round-trips exactly. A state
// has exactly one encoding — varints must be minimal and no bytes may
// trail — so an accepted input re-marshals byte-identically.

// stateWriter appends a binary state document. encodeState runs an encoder
// twice: a sizing pass that only counts bytes, then a writing pass into a
// buffer of exactly that size, so a marshal is one allocation.
type stateWriter struct {
	buf    []byte
	size   int
	sizing bool
}

// encodeState returns the document encode writes.
func encodeState(encode func(w *stateWriter)) []byte {
	sizer := stateWriter{sizing: true}
	encode(&sizer)
	w := stateWriter{buf: make([]byte, 0, sizer.size)}
	encode(&w)
	return w.buf
}

// uint writes a non-negative int as a uvarint.
func (w *stateWriter) uint(v int) {
	if w.sizing {
		w.size += (bits.Len64(uint64(v)|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(v))
}

func (w *stateWriter) float(f float64) {
	if w.sizing {
		w.size += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

func (w *stateWriter) floats(row []float64) {
	if w.sizing {
		w.size += 8 * len(row)
		return
	}
	for _, f := range row {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
	}
}

// stateReader decodes a binary state document. The first malformed field
// latches err; every later read returns zero, so decoders check err once
// per section instead of after every field. Lengths are bounded by the
// bytes left before anything is allocated for them.
type stateReader struct {
	alg  string
	data []byte
	err  error
}

func (r *stateReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("core: %s state: "+format, append([]interface{}{r.alg}, args...)...)
	}
}

// uint reads a uvarint that fits an int, rejecting truncated, overlong and
// non-minimal encodings.
func (r *stateReader) uint() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	switch {
	case n == 0:
		r.fail("truncated")
		return 0
	case n < 0 || v > math.MaxInt:
		r.fail("varint overflows an int")
		return 0
	case n > 1 && r.data[n-1] == 0:
		r.fail("non-minimal varint")
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

// below reads a uvarint and requires it to be < n.
func (r *stateReader) below(n int, what string) int {
	v := r.uint()
	if v >= n && r.err == nil {
		r.fail("%s %d out of range [0, %d)", what, v, n)
		return 0
	}
	return v
}

// count reads a length whose items take at least minBytes each, bounding it
// by the bytes left.
func (r *stateReader) count(minBytes int, what string) int {
	v := r.uint()
	if v > len(r.data)/minBytes && r.err == nil {
		r.fail("%d %s cannot fit in %d bytes", v, what, len(r.data))
		return 0
	}
	return v
}

// float reads a float64; every serialized quantity is finite (the internal
// "infinity" sentinel is the finite 1e308).
func (r *stateReader) float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.fail("truncated")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail("non-finite value %v", f)
		return 0
	}
	r.data = r.data[8:]
	return f
}

// floats reads len(row) float64s into row.
func (r *stateReader) floats(row []float64) {
	for i := range row {
		row[i] = r.float()
	}
}

// header checks the schema byte and the dimensions every state starts with.
// A leading '{' is a JSON document — the layout before the binary codec.
func (r *stateReader) header(universe, cands int) {
	if len(r.data) > 0 && r.data[0] == '{' {
		r.fail("JSON document of schema 1, the layout before binary schema %d; this build cannot read it", stateSchema)
		return
	}
	if s := r.uint(); s != stateSchema && r.err == nil {
		r.fail("schema %d, want %d", s, stateSchema)
		return
	}
	if u := r.uint(); u != universe && r.err == nil {
		r.fail("universe %d, want %d", u, universe)
		return
	}
	if c := r.uint(); c != cands && r.err == nil {
		r.fail("%d candidates, want %d", c, cands)
	}
}

// end reports the latched error, or trailing bytes after a complete document.
func (r *stateReader) end() error {
	if r.err == nil && len(r.data) > 0 {
		r.fail("%d trailing bytes", len(r.data))
	}
	return r.err
}
