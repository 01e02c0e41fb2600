package engine

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/par"
)

// The checkpoint document WriteFile writes and ReadCheckpointFile reads is
// binary, built on internal/codec's writer and reader (uvarints for every
// count, index and point; float64s as raw little-endian bits):
//
//	magic        8 bytes, checkpointMagic
//	version      the Checkpoint's Version: 2 (CheckpointVersion), or 3
//	             (CheckpointVersionRoles) when some record is passive
//	algorithm    length, then bytes
//	seed         8 bytes, the int64's two's-complement bits
//	tenants      count, then per tenant:
//	  name              length, then bytes
//	  role              version 3 only: 0 live, 1 passive
//	  universe          |S|
//	  points n          then n×n f64 distances, row by row
//	  cost table        entry count, then f64 each
//	  base_served       then f64 base_construction, f64 base_assignment
//	  base state        raw length; when non-zero, the compressed length
//	                    and the state's flate stream (RFC 1951)
//	  tail              arrival count, then per arrival: point, demand
//	                    count, demand ids
//
// Base states are the bulk of a sealed checkpoint. WriteFile deflates them
// at flate.DefaultCompression; EncodeTransfer, whose one-tenant document
// crosses the network once, writes stored blocks (flate.NoCompression). The
// reader takes either, and the algorithm's state bytes inside are unchanged.
// Like the state codecs the document has one encoding: minimal varints, no
// trailing bytes, and nothing after a flate stream's final block.
const checkpointMagic = "\x89OMFLPCK"

// maxInflate bounds the base-state bytes a document may inflate to, as a
// multiple of the document's length, so a small flate bomb cannot make the
// reader allocate more than that: with the at most 16 bytes a decoded tail
// arrival takes per encoded byte, a document's decode allocates less than
// 64 times its length. Default-level flate compresses PD states of
// |S| ≥ 2 about 13-31× and RAND states under 11×; a document that would
// exceed the bound — long PD histories over one commodity compress 45-84× —
// is written with its base states Huffman-coded without string matching
// (flate.HuffmanOnly: at least one bit per byte, so at most 8×, always
// inside the bound), trading disk for a reader that cannot be bombed.
const maxInflate = 40

// minTenantBytes is the smallest encoded tenant record: one byte for each
// of name length, universe, points, cost-table count, base_served, base
// raw length and tail count, plus the two f64 base costs.
const minTenantBytes = 7 + 16

// WriteFile writes the checkpoint's binary document to path atomically: it
// goes to a temporary file in the same directory, is synced, and is renamed
// over path — a crash mid-write never corrupts the previous checkpoint. It
// returns the document's size in bytes.
func (ck *Checkpoint) WriteFile(path string) (int, error) {
	data, err := ck.encode(flate.DefaultCompression)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	return len(data), os.Rename(tmp.Name(), path)
}

// ReadCheckpointFile reads a checkpoint document written by WriteFile. A
// JSON document — the format this build replaced — is refused with an error
// that names it.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint("engine: checkpoint "+path, data, nil)
}

// CheckpointInfo summarizes a checkpoint document without restoring it: the
// header, and per tenant the sizes that make the document large.
type CheckpointInfo struct {
	Version   int          `json:"version"`
	Algorithm string       `json:"algorithm"`
	Seed      int64        `json:"seed"`
	Bytes     int          `json:"bytes"`
	Tenants   []TenantInfo `json:"tenants"`
}

// TenantInfo is one tenant's line of a CheckpointInfo: arrivals folded into
// its base state, the state's raw and compressed bytes, the arrivals in its
// tail, and whether the record is passive, restoring with its tail kept
// instead of replayed.
type TenantInfo struct {
	Tenant     string `json:"tenant"`
	BaseServed int    `json:"base_served"`
	BaseBytes  int    `json:"base_bytes"`
	BaseBytesZ int    `json:"base_bytes_z"`
	Tail       int    `json:"tail"`
	Passive    bool   `json:"passive,omitempty"`
}

// InspectCheckpointFile reads and checks a checkpoint document like
// ReadCheckpointFile and summarizes it.
func InspectCheckpointFile(path string) (*CheckpointInfo, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zLen := map[int]int{}
	ck, err := decodeCheckpoint("engine: checkpoint "+path, data, func(i int, z []byte) { zLen[i] = len(z) })
	if err != nil {
		return nil, err
	}
	info := &CheckpointInfo{Version: ck.Version, Algorithm: ck.Algorithm, Seed: ck.Seed,
		Bytes: len(data), Tenants: make([]TenantInfo, len(ck.Tenants))}
	for i, tc := range ck.Tenants {
		info.Tenants[i] = TenantInfo{Tenant: tc.Tenant, BaseServed: tc.BaseServed,
			BaseBytes: len(tc.BaseState), BaseBytesZ: zLen[i], Tail: len(tc.Arrivals), Passive: tc.Passive}
	}
	return info, nil
}

// encode returns the checkpoint's document, base states deflated at level
// — or Huffman-only, when that would inflate past maxInflate.
func (ck *Checkpoint) encode(level int) ([]byte, error) {
	if err := ck.checkEncodable(); err != nil {
		return nil, err
	}
	raw := 0
	for i := range ck.Tenants {
		raw += len(ck.Tenants[i].BaseState)
	}
	var data []byte
	for _, level := range []int{level, flate.HuffmanOnly} {
		zs, err := deflateBases(ck.Tenants, level)
		if err != nil {
			return nil, err
		}
		if data = encodeCheckpoint(ck, zs); raw <= maxInflate*len(data) {
			break
		}
	}
	return data, nil
}

// checkVersion refuses a version this build does not read.
func (ck *Checkpoint) checkVersion() error {
	if v := ck.Version; v != CheckpointVersion && v != CheckpointVersionRoles {
		return fmt.Errorf("engine: checkpoint version %d, want %d or %d", v, CheckpointVersion, CheckpointVersionRoles)
	}
	return nil
}

// checkEncodable refuses what the document cannot hold or would not read
// back: an unknown version, a passive record in a version-2 document,
// negative counts, points or commodities, non-finite floats, and
// non-square distance matrices.
func (ck *Checkpoint) checkEncodable() error {
	if err := ck.checkVersion(); err != nil {
		return err
	}
	finite := func(fs ...float64) bool {
		for _, f := range fs {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
		return true
	}
	for i := range ck.Tenants {
		tc := &ck.Tenants[i]
		bad := func(format string, args ...interface{}) error {
			return fmt.Errorf("engine: checkpoint tenant %q: "+format, append([]interface{}{tc.Tenant}, args...)...)
		}
		if tc.Passive && ck.Version != CheckpointVersionRoles {
			return bad("passive record in a version-%d document", ck.Version)
		}
		if tc.Universe < 0 || tc.BaseServed < 0 {
			return bad("negative universe %d or base_served %d", tc.Universe, tc.BaseServed)
		}
		if !finite(tc.CostBySize...) || !finite(tc.BaseConstruction, tc.BaseAssignment) {
			return bad("non-finite cost")
		}
		for r, row := range tc.Distances {
			if len(row) != len(tc.Distances) {
				return bad("distance row %d has %d entries, want %d", r, len(row), len(tc.Distances))
			}
			if !finite(row...) {
				return bad("non-finite distance in row %d", r)
			}
		}
		for a, rec := range tc.Arrivals {
			if rec.Point < 0 {
				return bad("tail arrival %d at point %d", a, rec.Point)
			}
			for _, id := range rec.Demands {
				if id < 0 {
					return bad("tail arrival %d demands commodity %d", a, id)
				}
			}
		}
	}
	return nil
}

// deflateBases compresses every tenant's base state at level on a pool of
// GOMAXPROCS goroutines (internal/par), each reusing one flate writer;
// tenants without a base state get nil. Each base is its own flate stream,
// so the bytes do not depend on the pool.
func deflateBases(tenants []TenantCheckpoint, level int) ([][]byte, error) {
	workers := par.Workers(0, len(tenants))
	free := make(chan *flate.Writer, workers) // at most one writer per worker
	return par.Map(workers, len(tenants), func(i int) ([]byte, error) {
		raw := tenants[i].BaseState
		if len(raw) == 0 {
			return nil, nil
		}
		var buf bytes.Buffer
		var zw *flate.Writer
		select {
		case zw = <-free:
			zw.Reset(&buf)
		default:
			var err error
			if zw, err = flate.NewWriter(&buf, level); err != nil {
				return nil, err
			}
		}
		defer func() { free <- zw }()
		if _, err := zw.Write(raw); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// encodeCheckpoint lays out the document; zs[i] is tenant i's compressed
// base state. The checkpoint must have passed checkEncodable.
func encodeCheckpoint(ck *Checkpoint, zs [][]byte) []byte {
	return codec.Encode(func(w *codec.Writer) {
		w.Raw([]byte(checkpointMagic))
		w.Uint(ck.Version)
		w.String(ck.Algorithm)
		w.Fixed64(uint64(ck.Seed))
		w.Uint(len(ck.Tenants))
		for i := range ck.Tenants {
			tc := &ck.Tenants[i]
			w.String(tc.Tenant)
			if ck.Version == CheckpointVersionRoles {
				role := 0
				if tc.Passive {
					role = 1
				}
				w.Uint(role)
			}
			w.Uint(tc.Universe)
			w.Uint(len(tc.Distances))
			for _, row := range tc.Distances {
				w.Floats(row)
			}
			w.Uint(len(tc.CostBySize))
			w.Floats(tc.CostBySize)
			w.Uint(tc.BaseServed)
			w.Float(tc.BaseConstruction)
			w.Float(tc.BaseAssignment)
			w.Uint(len(tc.BaseState))
			if len(tc.BaseState) > 0 {
				w.Uint(len(zs[i]))
				w.Raw(zs[i])
			}
			w.Uint(len(tc.Arrivals))
			for _, a := range tc.Arrivals {
				w.Uint(a.Point)
				w.Uint(len(a.Demands))
				for _, id := range a.Demands {
					w.Uint(id)
				}
			}
		}
	})
}

// decodeCheckpoint reads a checkpoint document; what prefixes its errors.
// onBase, when set, sees each tenant's compressed base state.
func decodeCheckpoint(what string, data []byte, onBase func(tenant int, z []byte)) (*Checkpoint, error) {
	if t := bytes.TrimLeft(data, " \t\r\n"); len(t) > 0 && t[0] == '{' {
		return nil, fmt.Errorf("%s: a JSON checkpoint document, the format before the binary document; this build cannot read it", what)
	}
	if !bytes.HasPrefix(data, []byte(checkpointMagic)) {
		return nil, fmt.Errorf("%s: not a checkpoint document (bad magic)", what)
	}
	r := codec.NewReader(what, data[len(checkpointMagic):])
	ck := &Checkpoint{Version: r.Uint()}
	if v := ck.Version; v != CheckpointVersion && v != CheckpointVersionRoles && r.Err() == nil {
		r.Fail("version %d, want %d or %d", v, CheckpointVersion, CheckpointVersionRoles)
	}
	ck.Algorithm = r.String()
	ck.Seed = int64(r.Fixed64())
	n := r.Count(minTenantBytes, "tenant records")
	if err := r.Err(); err != nil {
		return nil, err
	}
	ck.Tenants = make([]TenantCheckpoint, n)
	d := &docReader{r: r, budget: maxInflate * len(data), roles: ck.Version == CheckpointVersionRoles}
	for i := range ck.Tenants {
		z := d.tenant(&ck.Tenants[i])
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%v (tenant record %d)", err, i)
		}
		if onBase != nil && z != nil {
			onBase(i, z)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return ck, nil
}

// docReader decodes a document's tenant records with one reused flate
// reader. budget is what base states may still inflate to; roles is set
// for a version-3 document, whose records carry their role.
type docReader struct {
	r      *codec.Reader
	budget int
	roles  bool
	src    bytes.Reader
	zr     io.ReadCloser
}

// tenant decodes one tenant record into tc and returns its compressed base
// state. Errors latch on the reader.
func (d *docReader) tenant(tc *TenantCheckpoint) []byte {
	r := d.r
	tc.Tenant = r.String()
	if d.roles {
		switch role := r.Uint(); role {
		case 0:
		case 1:
			tc.Passive = true
		default:
			r.Fail("role %d, want 0 (live) or 1 (passive)", role)
		}
	}
	tc.Universe = r.Uint()
	n := r.Uint()
	if r.Err() == nil && n > 0 && n > r.Len()/8/n {
		r.Fail("%d×%d distances cannot fit in %d bytes", n, n, r.Len())
	}
	if r.Err() != nil {
		return nil
	}
	flat := make([]float64, n*n)
	r.Floats(flat)
	tc.Distances = make([][]float64, n)
	for i := range tc.Distances {
		tc.Distances[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	tc.CostBySize = make([]float64, r.Count(8, "cost table entries"))
	r.Floats(tc.CostBySize)
	tc.BaseServed = r.Uint()
	tc.BaseConstruction = r.Float()
	tc.BaseAssignment = r.Float()
	var z []byte
	if raw := r.Uint(); raw > 0 {
		z = r.Raw(r.Count(1, "compressed base-state bytes"))
		if r.Err() == nil && raw > d.budget {
			r.Fail("base state of %d bytes exceeds the %d the document may inflate to", raw, d.budget)
		}
		if r.Err() != nil {
			return nil
		}
		d.budget -= raw
		tc.BaseState = d.inflate(z, raw)
	}
	d.tail(tc)
	return z
}

// inflate decompresses z, which must hold exactly raw bytes of state and
// nothing after its final block.
func (d *docReader) inflate(z []byte, raw int) []byte {
	d.src.Reset(z)
	if d.zr == nil {
		d.zr = flate.NewReader(&d.src)
	} else if err := d.zr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		d.r.Fail("base state: %v", err)
		return nil
	}
	out := make([]byte, raw)
	if _, err := io.ReadFull(d.zr, out); err != nil {
		d.r.Fail("base state does not inflate to its %d bytes: %v", raw, err)
		return nil
	}
	var probe [1]byte
	if n, err := d.zr.Read(probe[:]); n != 0 || err != io.EOF {
		d.r.Fail("base state inflates past its %d bytes", raw)
		return nil
	}
	if left := d.src.Len(); left > 0 {
		d.r.Fail("%d bytes trail the base state's flate stream", left)
		return nil
	}
	return out
}

// tail decodes the arrival tail; one backing array holds every demand id,
// counted in a first pass.
func (d *docReader) tail(tc *TenantCheckpoint) {
	r := d.r
	m := r.Count(2, "tail arrivals")
	scan, ids := *r, 0
	for i := 0; i < m && scan.Err() == nil; i++ {
		scan.Uint()
		k := scan.Count(1, "demand ids")
		for j := 0; j < k; j++ {
			scan.Uint()
		}
		ids += k
	}
	if scan.Err() != nil {
		*r = scan
		return
	}
	flat := make([]int, ids)
	tc.Arrivals = make([]ArrivalRecord, m)
	for i := range tc.Arrivals {
		a := &tc.Arrivals[i]
		a.Point = r.Uint()
		k := r.Uint()
		a.Demands, flat = flat[:k:k], flat[k:]
		for j := range a.Demands {
			a.Demands[j] = r.Uint()
		}
	}
}
