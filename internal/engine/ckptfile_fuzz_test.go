package engine

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/codec"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint document
// decoder, which reads engine.ckpt from disk on every restart and every
// /inject body from a socket. Properties: it never panics; it never
// allocates more than a constant factor of the input — every length is
// bounded by the bytes left, and base states inflate only up to the raw
// lengths the document declares, which may not add up to more than
// maxInflate times its size, so a small flate bomb cannot allocate
// gigabytes; and an accepted input re-encodes byte-identically, each base
// state through the flate stream it was read from (the document has one
// encoding around them; a stream's own bytes are flate's), so a version-3
// document re-encodes as version 3 with its roles. An accepted input is
// then restored, as a restart restores engine.ckpt, onto a fresh engine of
// its algorithm and seed: the rebuild never panics, it registers every
// record or, refused, none, and the passive records below the seal bound
// are the passive tenants. A one-tenant input is also injected live and
// passive, as /inject does whatever role the record carries, and the
// passive copy is then built by a snapshot: that succeeds exactly when the
// live inject does, and the two snapshots are equal.
//
// The corpus is seeded with the documents of the checkpoint test rigs —
// sealed and never-sealed tenants, PD and RAND, empty tails, no tenants —
// with one-tenant transfer documents in stored flate blocks, and with a
// version-3 document holding a passive and a live record and its copy
// whose first role is 2, plus truncated copies of each.
func FuzzReadCheckpoint(f *testing.F) {
	rigs := []struct {
		cfg     Config
		tenants int
		serve   bool
	}{
		{Config{Algorithm: "pd", Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 8}, 2, true},
		{Config{Algorithm: "rand", Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 8}, 2, true},
		{Config{Algorithm: "pd", Shards: 1, Seed: 9, RecordArrivals: true, SealEvery: -1}, 3, true},
		{Config{Algorithm: "rand", Shards: 1, Seed: 9, RecordArrivals: true, SealEvery: -1}, 2, true},
		{Config{Algorithm: "pd", Shards: 1, Seed: 5}, 2, true},
		{Config{Algorithm: "rand", Shards: 1, Seed: 5}, 2, true},
		{Config{Algorithm: "pd", Shards: 1, Seed: 3, RecordArrivals: true}, 2, false},
		{Config{Algorithm: "pd", Shards: 1, Seed: 3}, 0, false},
	}
	for i, rg := range rigs {
		e := New(rg.cfg)
		tr := fixedTrace(int64(40+i), 30, 4, 6)
		if rg.serve {
			if _, err := e.ReplayTrace(tr, rg.tenants); err != nil {
				f.Fatal(err)
			}
		} else {
			for j := 0; j < rg.tenants; j++ {
				if err := e.CreateTenant(tenantName(j), tr.Instance.Space, tr.Instance.Costs); err != nil {
					f.Fatal(err)
				}
			}
		}
		ck, err := e.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		doc, err := ck.encode(flate.DefaultCompression)
		if err != nil {
			f.Fatal(err)
		}
		docs := [][]byte{doc}
		if rg.tenants > 0 {
			tf, err := e.ExportTenant(tenantName(0))
			if err != nil {
				f.Fatal(err)
			}
			if doc, err = EncodeTransfer(tf); err != nil {
				f.Fatal(err)
			}
			docs = append(docs, doc)
		}
		e.Close()
		for _, doc := range docs {
			f.Add(doc)
			f.Add(doc[:len(doc)/2])
			f.Add(doc[:len(doc)-1])
		}
	}
	for _, doc := range rolesDocs(f) {
		f.Add(doc)
		f.Add(doc[:len(doc)/2])
		f.Add(doc[:len(doc)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decodeCheckpoint("fuzz", data, nil)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		zs := map[int][]byte{}
		ck, err := decodeCheckpoint("fuzz", data, func(i int, z []byte) { zs[i] = z })
		if err != nil {
			t.Fatalf("second decode of an accepted document: %v", err)
		}
		flat := make([][]byte, len(ck.Tenants))
		for i, z := range zs {
			flat[i] = z
		}
		if err := ck.checkEncodable(); err != nil {
			t.Fatalf("accepted document cannot be written back: %v", err)
		}
		if again := encodeCheckpoint(ck, flat); !bytes.Equal(again, data) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(data), len(again))
		}

		cfg := Config{Algorithm: ck.Algorithm, Shards: 1, Seed: ck.Seed, RecordArrivals: true}
		e, err := NewChecked(cfg)
		if err != nil {
			return // an algorithm no engine serves
		}
		defer e.Close()
		want, wantPassive := len(ck.Tenants), 0
		for _, tc := range ck.Tenants {
			if tc.Passive && len(tc.Arrivals) < DefaultSealEvery {
				wantPassive++
			}
		}
		if _, err := e.Restore(ck); err != nil {
			want, wantPassive = 0, 0
		}
		if got := e.TenantCount(); got != want {
			t.Fatalf("restore registered %d of %d tenants, want %d", got, len(ck.Tenants), want)
		}
		if got := e.Metrics().PassiveTenants; got != wantPassive {
			t.Fatalf("restore registered %d passive tenants, want %d", got, wantPassive)
		}
		if len(ck.Tenants) != 1 {
			return
		}
		live, passive := New(cfg), New(cfg)
		defer live.Close()
		defer passive.Close()
		lerr, perr := live.InjectTenant(ck), passive.InjectPassive(ck)
		if (lerr == nil) != (perr == nil) {
			t.Fatalf("live inject: %v; passive inject: %v", lerr, perr)
		}
		if lerr != nil {
			return
		}
		var snaps [2][]byte
		for i, e := range []*Engine{live, passive} {
			ss, err := e.SnapshotAll()
			if err != nil {
				t.Fatal(err)
			}
			if snaps[i], err = json.Marshal(ss); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snaps[0], snaps[1]) {
			t.Fatal("a passive inject, built, snapshots differently from the live inject")
		}
	})
}

// rolesDocs returns a version-3 document holding a passive record (an
// unbuilt follower with a base and a tail) and a live one, and the same
// document with the passive record's role byte set to 2.
func rolesDocs(f *testing.F) [][]byte {
	cfg := Config{Algorithm: "pd", Shards: 1, Seed: 11, RecordArrivals: true, SealEvery: 8}
	src := New(cfg)
	defer src.Close()
	tr := fixedTrace(50, 20, 4, 6)
	if _, err := src.ReplayTrace(tr, 2); err != nil {
		f.Fatal(err)
	}
	tf, err := src.ExtractTenant(tenantName(0))
	if err != nil {
		f.Fatal(err)
	}
	if err := src.InjectPassive(tf); err != nil {
		f.Fatal(err)
	}
	ck, err := src.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	if ck.Version != CheckpointVersionRoles || !ck.Tenants[0].Passive || ck.Tenants[1].Passive || ck.Tenants[0].BaseServed == 0 {
		f.Fatalf("roles rig: version %d, records %+v", ck.Version, ck.Tenants)
	}
	doc, err := ck.encode(flate.DefaultCompression)
	if err != nil {
		f.Fatal(err)
	}
	at := roleAt(ck)
	if doc[at] != 1 {
		f.Fatalf("roles rig: byte %d is %d, want the passive role 1", at, doc[at])
	}
	bad := bytes.Clone(doc)
	bad[at] = 2
	return [][]byte{doc, bad}
}

// roleAt is the offset of the first record's role byte in ck's version-3
// document: it follows the header and the record's name.
func roleAt(ck *Checkpoint) int {
	return len(codec.Encode(func(w *codec.Writer) {
		w.Raw([]byte(checkpointMagic))
		w.Uint(ck.Version)
		w.String(ck.Algorithm)
		w.Fixed64(uint64(ck.Seed))
		w.Uint(len(ck.Tenants))
		w.String(ck.Tenants[0].Tenant)
	}))
}
