package engine

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/instance"
	"repro/internal/workload"
)

// servedTenants creates n tenants on one engine and serves them histories
// of different lengths: the tenant created i-th serves 3i+1 arrivals, and
// names are a permutation of creation order, so a checkpoint (sorted by
// name) lists them in another order. Under SealEvery 16 the short
// histories hold tails only and the long ones a base state plus a tail of
// some length below 16.
func servedTenants(t *testing.T, cfg Config, n int) (*Engine, *workload.Trace) {
	t.Helper()
	tr := fixedTrace(33, 200, 5, 8)
	in := tr.Instance
	e := mustEngine(t, cfg)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r-%02d", (i*7)%n)
		if err := e.CreateTenant(name, in.Space, in.Costs); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3*i+1; j++ {
			if err := e.Serve(name, in.Requests[(5*i+j)%len(in.Requests)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()
	return e, tr
}

// TestRestoreParallelRebuild: Restore returns with every tail served, so
// without a Drain the served totals count the replay, each tenant's
// admitted count is its base plus its tail, placement and per-shard served
// counts are those of creating the tenants in checkpoint order and serving
// their tails, and snapshots are byte-identical to the source engine's.
func TestRestoreParallelRebuild(t *testing.T) {
	for _, algo := range []string{"pd", "rand"} {
		cfg := Config{Algorithm: algo, Shards: 3, ShardPolicy: PolicyLeastLoad, Seed: 9, RecordArrivals: true, SealEvery: 16}
		src, tr := servedTenants(t, cfg, 30)
		want, err := src.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := src.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		bases, lengths := 0, map[int]bool{}
		for _, tc := range ck.Tenants {
			if len(tc.BaseState) > 0 {
				bases++
			}
			lengths[len(tc.Arrivals)] = true
		}
		if bases == 0 || bases == len(ck.Tenants) || len(lengths) < 8 {
			t.Fatalf("%s: %d of %d tenants sealed, %d tail lengths; want a mix", algo, bases, len(ck.Tenants), len(lengths))
		}

		dst := mustEngine(t, cfg)
		stats, err := dst.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if got := dst.ServedTotal(); got != int64(ck.TailArrivals()) || stats.Replayed != ck.TailArrivals() {
			t.Errorf("%s: served total %d, replayed %d; want %d", algo, got, stats.Replayed, ck.TailArrivals())
		}
		for _, tc := range ck.Tenants {
			if at, err := dst.AdmittedCount(tc.Tenant); err != nil || at != int64(tc.BaseServed+len(tc.Arrivals)) {
				t.Errorf("%s: %s admitted %d (err %v), want %d", algo, tc.Tenant, at, err, tc.BaseServed+len(tc.Arrivals))
			}
		}
		ref := mustEngine(t, cfg)
		for _, tc := range ck.Tenants {
			if err := ref.CreateTenant(tc.Tenant, tr.Instance.Space, tr.Instance.Costs); err != nil {
				t.Fatal(err)
			}
			for _, a := range tc.Arrivals {
				if err := ref.Serve(tc.Tenant, instance.Request{Point: a.Point, Demands: commodity.New(a.Demands...)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		ref.Drain()
		gotShards, wantShards := dst.Metrics().PerShard, ref.Metrics().PerShard
		for i := range wantShards {
			g, w := gotShards[i], wantShards[i]
			if g.Tenants != w.Tenants || g.Served != w.Served || g.QueueDepth != 0 {
				t.Errorf("%s: shard %d holds %d tenants, served %d, queued %d; want %d, %d, 0",
					algo, i, g.Tenants, g.Served, g.QueueDepth, w.Tenants, w.Served)
			}
		}
		got, err := dst.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
			t.Errorf("%s: restored snapshots differ from the source engine's", algo)
		}
	}
}

// TestRestoreRefusedRecordRegistersNothing: one refused record refuses the
// whole checkpoint. A tampered base count names its tenant; a name the
// engine already hosts, or one the checkpoint repeats, is a duplicate. In
// every case no tenant of the checkpoint is registered and no replayed
// arrival is counted served.
func TestRestoreRefusedRecordRegistersNothing(t *testing.T) {
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 9, RecordArrivals: true, SealEvery: 16}
	src, tr := servedTenants(t, cfg, 12)
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * len(ck.Tenants) / 3 // r-08: 25 arrivals, a base of 16 and a tail of 9
	if len(ck.Tenants[k].BaseState) == 0 {
		t.Fatalf("record %d (%s) holds no base state", k, ck.Tenants[k].Tenant)
	}
	tampered := *ck
	tampered.Tenants = append([]TenantCheckpoint(nil), ck.Tenants...)
	tampered.Tenants[k].BaseServed++
	repeated := *ck
	repeated.Tenants = append(append([]TenantCheckpoint(nil), ck.Tenants...), ck.Tenants[0])

	dst := mustEngine(t, cfg)
	_, err = dst.Restore(&tampered)
	if name := strconv.Quote(ck.Tenants[k].Tenant); err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("tampered record %d: err = %v, want one naming %s", k, err, name)
	}
	if _, err := dst.Restore(&repeated); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("repeated record: err = %v, want ErrDuplicateTenant", err)
	}
	if n, served := dst.TenantCount(), dst.ServedTotal(); n != 0 || served != 0 {
		t.Errorf("refused restores left %d tenants, %d served; want none", n, served)
	}
	if err := dst.CreateTenant(ck.Tenants[k].Tenant, tr.Instance.Space, tr.Instance.Costs); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Restore(ck); !errors.Is(err, ErrDuplicateTenant) {
		t.Errorf("restore over a hosted tenant: err = %v, want ErrDuplicateTenant", err)
	}
	tenants := 0
	for _, s := range dst.Metrics().PerShard {
		tenants += s.Tenants
	}
	if n, served := dst.TenantCount(), dst.ServedTotal(); n != 1 || tenants != 1 || served != 0 {
		t.Errorf("after the refused restore: %d tenants (%d placed), %d served; want 1, 1, 0", n, tenants, served)
	}
}

// TestInjectReturnsServed: InjectTenant returns with the transfer's tail
// served, counted in the served totals, and the tenant's served and
// admitted counts at base plus tail.
func TestInjectReturnsServed(t *testing.T) {
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 9, RecordArrivals: true, SealEvery: 16}
	src, _ := servedTenants(t, cfg, 12)
	name := fmt.Sprintf("r-%02d", (10*7)%12) // 31 arrivals: a base of 16 and a tail of 15
	want, err := src.Snapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := src.ExportTenant(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tf.Tenants[0]
	if len(tr.BaseState) == 0 || len(tr.Arrivals) == 0 {
		t.Fatalf("transfer holds %d base bytes and %d tail arrivals; want both", len(tr.BaseState), len(tr.Arrivals))
	}
	dst := mustEngine(t, cfg)
	if err := dst.InjectTenant(tf); err != nil {
		t.Fatal(err)
	}
	total := tr.BaseServed + len(tr.Arrivals)
	if got := dst.ServedTotal(); got != int64(len(tr.Arrivals)) {
		t.Errorf("served total %d, want the %d-arrival tail", got, len(tr.Arrivals))
	}
	if n, err := dst.ServedCount(name); err != nil || n != total {
		t.Errorf("served %d (err %v), want %d", n, err, total)
	}
	if at, err := dst.AdmittedCount(name); err != nil || at != int64(total) {
		t.Errorf("admitted %d (err %v), want %d", at, err, total)
	}
	got, err := dst.Snapshot(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, []*TenantSnapshot{want}), marshalSnaps(t, []*TenantSnapshot{got})) {
		t.Error("injected snapshot differs from the source's")
	}
}

// TestRestoredTailsCountedNotTimed: the tails Restore and both injects
// take, kept by a passive record or replayed by a live one, count in the
// served totals, per shard too, but the latency histogram times only what
// the shards serve from their mailboxes, so a restore adds no entry to it.
func TestRestoredTailsCountedNotTimed(t *testing.T) {
	tr := fixedTrace(61, 12, 5, 9)
	in := tr.Instance
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 4, RecordArrivals: true, SealEvery: 8}
	src := mustEngine(t, cfg)
	for i, id := range []string{"kept", "replayed"} {
		if err := src.CreateTenant(id, in.Space, in.Costs); err != nil {
			t.Fatal(err)
		}
		for _, r := range in.Requests[6*i : 6*i+5] {
			if err := src.Serve(id, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck.Version = CheckpointVersionRoles
	ck.Tenants[0].Passive = true
	kept, err := src.ExportTenant("kept")
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := src.ExportTenant("replayed")
	if err != nil {
		t.Fatal(err)
	}

	check := func(how string, e *Engine, served, timed int64) {
		t.Helper()
		m := e.Metrics()
		var perShard int64
		for _, sm := range m.PerShard {
			perShard += sm.Served
		}
		if m.Served != served || perShard != served || e.ServedTotal() != served {
			t.Errorf("%s: served %d, per shard %d, ServedTotal %d; want %d", how, m.Served, perShard, e.ServedTotal(), served)
		}
		if m.ServeLatency.Count != timed {
			t.Errorf("%s: %d arrivals timed, want %d", how, m.ServeLatency.Count, timed)
		}
	}
	restored := mustEngine(t, cfg)
	if _, err := restored.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if restored.Metrics().PassiveTenants != 1 {
		t.Fatal("the passive record did not restore passive")
	}
	check("restore", restored, 10, 0)
	injected := mustEngine(t, cfg)
	if err := injected.InjectPassive(kept); err != nil {
		t.Fatal(err)
	}
	if err := injected.InjectTenant(replayed); err != nil {
		t.Fatal(err)
	}
	check("inject", injected, 10, 0)
	for _, id := range []string{"kept", "replayed"} {
		if err := restored.Serve(id, in.Requests[11]); err != nil {
			t.Fatal(err)
		}
	}
	restored.Drain()
	check("restore, then serve", restored, 12, 2)
}
