package engine

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzReadCheckpoint feeds arbitrary bytes to the checkpoint document
// decoder, which reads engine.ckpt from disk on every restart. Properties:
// it never panics; it never allocates more than a constant factor of the
// input — every length is bounded by the bytes left, and base states
// inflate only up to the raw lengths the document declares, which may not
// add up to more than maxInflate times its size, so a small flate bomb
// cannot allocate gigabytes; and an accepted input re-encodes
// byte-identically, each base state through the flate stream it was read
// from (the document has one encoding around them; a stream's own bytes
// are flate's).
//
// The corpus is seeded with the documents of the checkpoint test rigs —
// sealed and never-sealed tenants, PD and RAND, empty tails, no tenants —
// plus truncated copies.
func FuzzReadCheckpoint(f *testing.F) {
	rigs := []struct {
		cfg     Config
		tenants int
		serve   bool
	}{
		{Config{Algorithm: "pd", Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 8}, 2, true},
		{Config{Algorithm: "rand", Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 8}, 2, true},
		{Config{Algorithm: "pd", Shards: 1, Seed: 9, RecordArrivals: true, SealEvery: -1}, 3, true},
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
		e.Close()
		if err != nil {
			f.Fatal(err)
		}
		doc, err := ck.encode()
		if err != nil {
			f.Fatal(err)
		}
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
	})
}
