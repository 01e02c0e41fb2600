package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/metric"
)

// TestCrossEngineHandoff is the state-handoff contract the cluster's live
// migration rides on: marshal a tenant on one engine, restore it into a
// second engine (different shard count), serve the identical arrival suffix,
// and the combined snapshots must be byte-identical to a single engine that
// served the whole stream. The transfer round-trips through its document
// bytes exactly as it does over the wire between nodes.
func TestCrossEngineHandoff(t *testing.T) {
	const (
		tenants = 3
		moved   = 1 // tenant-001 migrates at the cut point
		cut     = 57
	)
	tr := fixedTrace(21, 120, 6, 14)
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%03d", i)
	}

	// Ground truth: one engine serves everything.
	want := runTrace(t, Config{Algorithm: "pd", Shards: 4, Seed: 9}, tr, tenants)

	for _, sh := range []struct{ src, dst int }{{1, 8}, {8, 1}} {
		t.Run(fmt.Sprintf("shards_%d_to_%d", sh.src, sh.dst), func(t *testing.T) {
			src := New(Config{Algorithm: "pd", Shards: sh.src, Seed: 9})
			defer src.Close()
			dst := New(Config{Algorithm: "pd", Shards: sh.dst, Seed: 9})
			defer dst.Close()

			in := tr.Instance
			for _, name := range names {
				if err := src.CreateTenant(name, in.Space, in.Costs); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < cut; i++ {
				if err := src.Serve(names[i%tenants], in.Requests[i]); err != nil {
					t.Fatal(err)
				}
			}

			// Marshal on the source, restore on the target — through the
			// document, exactly the bytes a cluster router would forward.
			tf, err := src.ExtractTenant(names[moved])
			if err != nil {
				t.Fatal(err)
			}
			wire, err := EncodeTransfer(tf)
			if err != nil {
				t.Fatal(err)
			}
			back, err := DecodeTransfer(wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.InjectTenant(back); err != nil {
				t.Fatal(err)
			}

			// The source no longer knows the tenant.
			if err := src.Serve(names[moved], in.Requests[cut]); !errors.Is(err, ErrUnknownTenant) {
				t.Fatalf("Serve on extracted tenant: err = %v, want ErrUnknownTenant", err)
			}

			// Identical suffix: moved tenant's arrivals go to dst, the rest
			// stay on src.
			for i := cut; i < len(in.Requests); i++ {
				e := src
				if i%tenants == moved {
					e = dst
				}
				if err := e.Serve(names[i%tenants], in.Requests[i]); err != nil {
					t.Fatal(err)
				}
			}

			srcSnaps, err := src.SnapshotAll()
			if err != nil {
				t.Fatal(err)
			}
			movedSnap, err := dst.Snapshot(names[moved])
			if err != nil {
				t.Fatal(err)
			}
			all := append(srcSnaps, movedSnap)
			sort.Slice(all, func(i, j int) bool { return all[i].Tenant < all[j].Tenant })
			if got := marshalSnaps(t, all); !bytes.Equal(got, want) {
				t.Error("handoff snapshots differ from the single-engine run")
			}
		})
	}
}

// TestTransferValidation: a transfer only injects into an engine with the
// same algorithm and seed (tenant randomness is NamedSeed(engine seed,
// name)), never over an existing tenant, and extraction of an unknown
// tenant fails cleanly.
func TestTransferValidation(t *testing.T) {
	src := New(Config{Algorithm: "pd", Shards: 2, Seed: 3})
	defer src.Close()
	space := metric.NewLine([]float64{0, 1, 2, 3})
	costs := cost.PowerLaw(3, 1, 2)
	if err := src.CreateTenant("a", space, costs); err != nil {
		t.Fatal(err)
	}

	if _, err := src.ExtractTenant("ghost"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("ExtractTenant(ghost): err = %v, want ErrUnknownTenant", err)
	}

	tf, err := src.ExtractTenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if tf.Algorithm != "pd" || tf.Seed != 3 {
		t.Fatalf("transfer stamped %q/%d, want pd/3", tf.Algorithm, tf.Seed)
	}

	wrongSeed := New(Config{Algorithm: "pd", Shards: 1, Seed: 4})
	defer wrongSeed.Close()
	if err := wrongSeed.InjectTenant(tf); err == nil {
		t.Error("inject under a different seed succeeded")
	}
	wrongAlgo := New(Config{Algorithm: "rand", Shards: 1, Seed: 3})
	defer wrongAlgo.Close()
	if err := wrongAlgo.InjectTenant(tf); err == nil {
		t.Error("inject under a different algorithm succeeded")
	}

	dst := New(Config{Algorithm: "pd", Shards: 1, Seed: 3})
	defer dst.Close()
	if err := dst.InjectTenant(tf); err != nil {
		t.Fatal(err)
	}
	if err := dst.InjectTenant(tf); err == nil {
		t.Error("double inject succeeded")
	}

	// The extract removed the tenant; a fresh create under the same name
	// must succeed on the source (clean deregistration).
	if err := src.CreateTenant("a", space, costs); err != nil {
		t.Errorf("re-create after extract failed: %v", err)
	}
}

// TestInjectRejectsInvalidMatrix: rebuildTenant, behind both checkpoint
// restore and /inject, refuses a transfer whose distance matrix is not a
// metric, before any tenant exists.
func TestInjectRejectsInvalidMatrix(t *testing.T) {
	src := New(Config{Algorithm: "pd", Shards: 1, Seed: 3})
	defer src.Close()
	if err := src.CreateTenant("a", metric.NewLine([]float64{0, 1, 2}), cost.PowerLaw(2, 1, 2)); err != nil {
		t.Fatal(err)
	}
	tf, err := src.ExtractTenant("a")
	if err != nil {
		t.Fatal(err)
	}
	d := tf.Tenants[0].Distances
	d[0][1], d[1][0] = -1, -1
	dst := New(Config{Algorithm: "pd", Shards: 1, Seed: 3})
	defer dst.Close()
	if err := dst.InjectTenant(tf); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("inject of a negative matrix: err = %v, want a rejection", err)
	}
	if _, err := dst.Snapshot("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("snapshot after rejected inject: err = %v, want ErrUnknownTenant", err)
	}
}

// TestInjectRefusesOtherDocuments: inject takes a transfer document of
// exactly one tenant. The decoder refuses a JSON TenantTransfer, as builds
// before the binary transfer send it, and a truncated document; inject
// refuses documents of zero or two tenants. None leaves a tenant behind.
func TestInjectRefusesOtherDocuments(t *testing.T) {
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 3, RecordArrivals: true}
	src := New(cfg)
	defer src.Close()
	if _, err := src.ReplayTrace(fixedTrace(5, 30, 4, 6), 2); err != nil {
		t.Fatal(err)
	}
	tf, err := src.ExportTenant(tenantName(0))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := EncodeTransfer(tf)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		Algorithm string `json:"algorithm"`
		Seed      int64  `json:"seed"`
		TenantCheckpoint
	}{tf.Algorithm, tf.Seed, tf.Tenants[0]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTransfer(legacy); err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("JSON transfer: err = %v, want the JSON document refusal", err)
	}
	if _, err := DecodeTransfer(doc[:len(doc)-1]); err == nil {
		t.Error("truncated transfer decoded")
	}

	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dst := New(cfg)
	defer dst.Close()
	for _, n := range []int{0, 2} {
		other := *ck
		other.Tenants = ck.Tenants[:n]
		if err := dst.InjectTenant(&other); err == nil || !strings.Contains(err.Error(), "one tenant") {
			t.Errorf("%d tenants: err = %v, want a refusal", n, err)
		}
	}
	if n := dst.TenantCount(); n != 0 {
		t.Errorf("%d tenants after the refusals, want 0", n)
	}
	back, err := DecodeTransfer(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.InjectTenant(back); err != nil {
		t.Fatal(err)
	}
}
