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
// served the whole stream. The transfer round-trips through JSON exactly as
// it does over the wire between nodes.
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

			// Marshal on the source, restore on the target — through JSON,
			// exactly the bytes a cluster router would forward.
			tf, err := src.ExtractTenant(names[moved])
			if err != nil {
				t.Fatal(err)
			}
			wire, err := json.Marshal(tf)
			if err != nil {
				t.Fatal(err)
			}
			var back TenantTransfer
			if err := json.Unmarshal(wire, &back); err != nil {
				t.Fatal(err)
			}
			if err := dst.InjectTenant(&back); err != nil {
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
	tf.Distances[0][1], tf.Distances[1][0] = -1, -1
	dst := New(Config{Algorithm: "pd", Shards: 1, Seed: 3})
	defer dst.Close()
	if err := dst.InjectTenant(tf); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("inject of a negative matrix: err = %v, want a rejection", err)
	}
	if _, err := dst.Snapshot("a"); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("snapshot after rejected inject: err = %v, want ErrUnknownTenant", err)
	}
}
