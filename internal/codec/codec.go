// Package codec is the bounded binary layout shared by the PD-OMFLP and
// RAND-OMFLP state codecs (internal/core) and the engine's checkpoint
// document (internal/engine): unsigned varints for every length, count,
// index and point, and float64s as their raw little-endian IEEE-754 bits,
// so every value round-trips exactly. A document has exactly one encoding —
// varints must be minimal and no bytes may trail — so an accepted input
// re-encodes byte-identically.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Writer appends a binary document. Encode runs an encoder twice: a sizing
// pass that only counts bytes, then a writing pass into a buffer of exactly
// that size, so an encode is one allocation.
type Writer struct {
	buf    []byte
	size   int
	sizing bool
}

// Encode returns the document encode writes.
func Encode(encode func(w *Writer)) []byte {
	sizer := Writer{sizing: true}
	encode(&sizer)
	w := Writer{buf: make([]byte, 0, sizer.size)}
	encode(&w)
	return w.buf
}

// Uint writes a non-negative int as a uvarint.
func (w *Writer) Uint(v int) {
	if w.sizing {
		w.size += (bits.Len64(uint64(v)|1) + 6) / 7
		return
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(v))
}

// Fixed64 writes v as 8 little-endian bytes.
func (w *Writer) Fixed64(v uint64) {
	if w.sizing {
		w.size += 8
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// Float writes f as its raw IEEE-754 bits.
func (w *Writer) Float(f float64) {
	w.Fixed64(math.Float64bits(f))
}

// Floats writes every value of row as its raw bits (no length).
func (w *Writer) Floats(row []float64) {
	if w.sizing {
		w.size += 8 * len(row)
		return
	}
	for _, f := range row {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
	}
}

// Raw writes b as is (no length).
func (w *Writer) Raw(b []byte) {
	if w.sizing {
		w.size += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

// Reserve appends n bytes for the caller to fill and returns them; on the
// sizing pass it only counts them and returns nil.
func (w *Writer) Reserve(n int) []byte {
	if w.sizing {
		w.size += n
		return nil
	}
	at := len(w.buf)
	w.buf = w.buf[:at+n]
	return w.buf[at:]
}

// String writes s's length, then its bytes.
func (w *Writer) String(s string) {
	w.Uint(len(s))
	if w.sizing {
		w.size += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

// Reader decodes a binary document. The first malformed field latches the
// error; every later read returns zero, so decoders check Err once per
// section instead of after every field. Lengths are bounded by the bytes
// left before anything is allocated for them.
type Reader struct {
	what string
	data []byte
	err  error
}

// NewReader reads data; what prefixes every error ("core: PD-OMFLP state").
func NewReader(what string, data []byte) *Reader {
	return &Reader{what: what, data: data}
}

// Fail latches a decoding error unless one is latched already.
func (r *Reader) Fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("%s: %s", r.what, fmt.Sprintf(format, args...))
	}
}

// Err returns the latched error.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes left.
func (r *Reader) Len() int { return len(r.data) }

// Peek returns the bytes left without consuming them.
func (r *Reader) Peek() []byte { return r.data }

// Uint reads a uvarint that fits an int, rejecting truncated, overlong and
// non-minimal encodings.
func (r *Reader) Uint() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data)
	switch {
	case n == 0:
		r.Fail("truncated")
		return 0
	case n < 0 || v > math.MaxInt:
		r.Fail("varint overflows an int")
		return 0
	case n > 1 && r.data[n-1] == 0:
		r.Fail("non-minimal varint")
		return 0
	}
	r.data = r.data[n:]
	return int(v)
}

// Below reads a uvarint and requires it to be < n.
func (r *Reader) Below(n int, what string) int {
	v := r.Uint()
	if v >= n && r.err == nil {
		r.Fail("%s %d out of range [0, %d)", what, v, n)
		return 0
	}
	return v
}

// Count reads a length whose items take at least minBytes each, bounding it
// by the bytes left.
func (r *Reader) Count(minBytes int, what string) int {
	v := r.Uint()
	if v > len(r.data)/minBytes && r.err == nil {
		r.Fail("%d %s cannot fit in %d bytes", v, what, len(r.data))
		return 0
	}
	return v
}

// Fixed64 reads 8 little-endian bytes.
func (r *Reader) Fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.Fail("truncated")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

// Float reads a float64; every serialized quantity is finite (the core's
// internal "infinity" sentinel is the finite 1e308).
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.data) < 8 {
		r.Fail("truncated")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.Fail("non-finite value %v", f)
		return 0
	}
	r.data = r.data[8:]
	return f
}

// Floats reads len(row) float64s into row.
func (r *Reader) Floats(row []float64) {
	for i := range row {
		row[i] = r.Float()
	}
}

// Raw returns the next n bytes, aliasing the input.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.data) {
		r.Fail("truncated")
		return nil
	}
	b := r.data[:n:n]
	r.data = r.data[n:]
	return b
}

// String reads what String wrote.
func (r *Reader) String() string {
	return string(r.Raw(r.Count(1, "string bytes")))
}

// End reports the latched error, or trailing bytes after a complete
// document.
func (r *Reader) End() error {
	if r.err == nil && len(r.data) > 0 {
		r.Fail("%d trailing bytes", len(r.data))
	}
	return r.err
}
