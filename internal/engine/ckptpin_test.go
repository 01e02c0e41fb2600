package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestCheckpointDocumentHashPinned pins the bytes of the checkpoint document
// WriteFile writes, for a PD and a RAND engine, against sha256 digests
// recorded from an earlier build. Each engine holds a tenant sealed three
// times with a tail behind its base and a tenant whose whole history is a
// tail, so the digest covers the base states (the algorithms' state bytes
// deflated) as well as the tail records and the header. A change to how a
// state or the document is laid out cannot pass it.
func TestCheckpointDocumentHashPinned(t *testing.T) {
	const sealEvery = 64
	want := map[string]string{
		"pd":   "543e17096ea631e79aa499b585a763fcadc6530de0ced2d656d67d502e9c3ec6",
		"rand": "b3fa2b0228166357c2f9ae59322275f74f7bc0bbb7225d0632d557d2341eda56",
	}
	tr := fixedTrace(23, 210, 6, 15)
	reqs := tr.Instance.Requests
	for _, algo := range []string{"pd", "rand"} {
		e := mustEngine(t, Config{Algorithm: algo, Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: sealEvery})
		for _, name := range []string{"sealed", "tail"} {
			if err := e.CreateTenant(name, tr.Instance.Space, tr.Instance.Costs); err != nil {
				t.Fatal(err)
			}
		}
		// 200 arrivals seal "sealed" at 64, 128 and 192 and leave 8 in its
		// tail; the last 10 stay below SealEvery on "tail".
		for i, r := range reqs {
			name := "sealed"
			if i >= 200 {
				name = "tail"
			}
			if err := e.Serve(name, r); err != nil {
				t.Fatal(err)
			}
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range ck.Tenants {
			wantBase := map[string]int{"sealed": 192, "tail": 0}[tc.Tenant]
			if tc.BaseServed != wantBase || (wantBase > 0) != (len(tc.BaseState) > 0) {
				t.Fatalf("%s: tenant %s has %d arrivals in a %d-byte base, want %d", algo, tc.Tenant, tc.BaseServed, len(tc.BaseState), wantBase)
			}
		}
		path := filepath.Join(t.TempDir(), "engine.ckpt")
		if _, err := ck.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want[algo] {
			t.Errorf("%s: checkpoint document sha256 = %s, want %s", algo, got, want[algo])
		}
	}
}
