package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/workload"
)

// fixedTrace is the shared deterministic workload for engine tests.
func fixedTrace(seed int64, n, u, points int) *workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	space := metric.RandomEuclidean(rng, points, 2, 100)
	return workload.Uniform(rng, space, cost.PowerLaw(u, 1, 2), n, u/2+1)
}

func marshalSnaps(t *testing.T, snaps []*TenantSnapshot) []byte {
	t.Helper()
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runTrace replays the trace through a fresh engine and returns the
// marshaled snapshots.
func runTrace(t *testing.T, cfg Config, tr *workload.Trace, tenants int) []byte {
	t.Helper()
	e := New(cfg)
	defer e.Close()
	if _, err := e.ReplayTrace(tr, tenants); err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	return marshalSnaps(t, snaps)
}

// TestSnapshotsIdenticalAcrossShardCounts is the engine determinism
// contract (and the in-process version of the CI smoke job): a fixed seed
// and a fixed trace must yield byte-identical snapshots for shard counts
// 1, 2 and 8, for both algorithms, single- and multi-tenant. Runs under
// -race in CI, which also exercises the mailbox handoffs.
func TestSnapshotsIdenticalAcrossShardCounts(t *testing.T) {
	tr := fixedTrace(7, 120, 6, 15)
	for _, algo := range []string{"pd", "rand"} {
		for _, tenants := range []int{1, 5} {
			var want []byte
			for _, shards := range []int{1, 2, 8} {
				got := runTrace(t, Config{Algorithm: algo, Shards: shards, Seed: 3}, tr, tenants)
				if want == nil {
					want = got
					continue
				}
				if !bytes.Equal(want, got) {
					t.Errorf("%s/%d tenants: snapshots differ between shard counts (1 vs %d)",
						algo, tenants, shards)
				}
			}
		}
	}
}

// TestTenantMatchesDirectRun pins engine serving to the ground truth: a
// tenant's snapshot must agree exactly with running the same algorithm on
// the same sub-sequence directly, including cost accounting recomputed from
// scratch on the final solution.
func TestTenantMatchesDirectRun(t *testing.T) {
	tr := fixedTrace(11, 90, 5, 12)
	const tenants = 3
	e := New(Config{Algorithm: "pd", Shards: 4, Seed: 5})
	defer e.Close()
	if _, err := e.ReplayTrace(tr, tenants); err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != tenants {
		t.Fatalf("got %d snapshots, want %d", len(snaps), tenants)
	}
	for ti, snap := range snaps {
		// Rebuild tenant ti's sub-instance and run it directly.
		sub := &instance.Instance{Space: tr.Instance.Space, Costs: tr.Instance.Costs}
		for i, r := range tr.Instance.Requests {
			if i%tenants == ti {
				sub.Requests = append(sub.Requests, r)
			}
		}
		name := fmt.Sprintf("tenant-%03d", ti)
		if snap.Tenant != name {
			t.Fatalf("snapshot %d is %q, want %q", ti, snap.Tenant, name)
		}
		sol, c, err := online.Run(core.PDFactory(core.Options{}), sub, workload.NamedSeed(5, name), true)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Served != len(sub.Requests) {
			t.Errorf("%s: served %d, want %d", name, snap.Served, len(sub.Requests))
		}
		if len(snap.Facilities) != len(sol.Facilities) {
			t.Errorf("%s: %d facilities, want %d", name, len(snap.Facilities), len(sol.Facilities))
		}
		if math.Abs(snap.Cost-c) > 1e-9*(1+c) {
			t.Errorf("%s: incremental cost %g, direct run %g", name, snap.Cost, c)
		}
		recon := sol.ConstructionCost(sub)
		if math.Abs(snap.ConstructionCost-recon) > 1e-9*(1+recon) {
			t.Errorf("%s: construction %g, want %g", name, snap.ConstructionCost, recon)
		}
		if snap.DualTotal <= 0 {
			t.Errorf("%s: PD tenant should report a positive dual total", name)
		}
		if snap.Cost > 3*snap.DualTotal+1e-6 {
			t.Errorf("%s: Corollary 8 violated in snapshot: %g > 3·%g", name, snap.Cost, snap.DualTotal)
		}
	}
}

// TestRandSeedsAreNameDerived: rand tenants must draw per-tenant streams, so
// two tenants serving the same arrivals may diverge, but re-running the
// engine reproduces each tenant exactly.
func TestRandSeedsAreNameDerived(t *testing.T) {
	tr := fixedTrace(2, 80, 6, 10)
	a := runTrace(t, Config{Algorithm: "rand", Shards: 3, Seed: 9}, tr, 2)
	b := runTrace(t, Config{Algorithm: "rand", Shards: 5, Seed: 9}, tr, 2)
	if !bytes.Equal(a, b) {
		t.Error("rand engine not reproducible across shard counts under a fixed seed")
	}
	c := runTrace(t, Config{Algorithm: "rand", Shards: 3, Seed: 10}, tr, 2)
	if bytes.Equal(a, c) {
		t.Error("changing the engine seed did not change rand tenant behaviour")
	}
}

func TestServeErrors(t *testing.T) {
	e := New(Config{Shards: 2})
	defer e.Close()
	space := metric.NewLine([]float64{0, 1, 2})
	costs := cost.PowerLaw(3, 1, 1)
	req := instance.Request{Point: 1, Demands: commodity.New(0)}
	if err := e.Serve("ghost", req); err == nil {
		t.Error("Serve on unknown tenant succeeded")
	}
	if err := e.CreateTenant("a", space, costs); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTenant("a", space, costs); err == nil {
		t.Error("duplicate CreateTenant succeeded")
	}
	if err := e.CreateTenant("", space, costs); err == nil {
		t.Error("empty tenant name accepted")
	}
	if err := e.Serve("a", instance.Request{Point: 99, Demands: commodity.New(0)}); err == nil {
		t.Error("out-of-space point accepted")
	}
	if err := e.Serve("a", instance.Request{Point: 0}); err == nil {
		t.Error("empty demand accepted")
	}
	if err := e.Serve("a", instance.Request{Point: 0, Demands: commodity.New(7)}); err == nil {
		t.Error("out-of-universe demand accepted — would panic the shard goroutine")
	}
	if err := e.Serve("a", req); err != nil {
		t.Errorf("valid Serve failed: %v", err)
	}
	if _, err := NewChecked(Config{Algorithm: "quantum"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestClosedEngineRejectsWork(t *testing.T) {
	e := New(Config{Shards: 1})
	e.Close()
	e.Close() // idempotent
	if err := e.CreateTenant("a", metric.SinglePoint(), cost.PowerLaw(1, 1, 1)); err == nil {
		t.Error("CreateTenant after Close succeeded")
	}
	if _, err := e.SnapshotAll(); err == nil {
		t.Error("SnapshotAll after Close succeeded")
	}
	e.Drain() // must be a no-op, not a send on a closed channel
}

// TestBackpressureTinyMailbox: a 1-slot mailbox must not deadlock or drop
// arrivals — Serve blocks until the shard catches up.
func TestBackpressureTinyMailbox(t *testing.T) {
	tr := fixedTrace(4, 200, 4, 8)
	e := New(Config{Algorithm: "pd", Shards: 2, Mailbox: 1, Seed: 1})
	defer e.Close()
	n, err := e.ReplayTrace(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range snaps {
		total += s.Served
	}
	if total != n {
		t.Errorf("served %d of %d arrivals", total, n)
	}
}

func TestMetrics(t *testing.T) {
	tr := fixedTrace(6, 150, 6, 12)
	e := New(Config{Algorithm: "pd", Shards: 4, Seed: 1})
	defer e.Close()
	if _, err := e.ReplayTrace(tr, 3); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	m := e.Metrics()
	if m.Served != 150 {
		t.Errorf("served = %d, want 150", m.Served)
	}
	if m.Tenants != 3 || m.Shards != 4 {
		t.Errorf("tenants/shards = %d/%d, want 3/4", m.Tenants, m.Shards)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue depth %d after drain", m.QueueDepth)
	}
	if m.ArrivalsPerSec <= 0 || m.UptimeSeconds <= 0 {
		t.Errorf("rates not positive: %+v", m)
	}
	if m.LatencyP50Micros <= 0 || m.LatencyP99Micros < m.LatencyP50Micros {
		t.Errorf("latency quantiles inconsistent: p50=%g p99=%g", m.LatencyP50Micros, m.LatencyP99Micros)
	}
	// The second window has no arrivals.
	m2 := e.Metrics()
	if m2.WindowArrivalsPerSec != 0 {
		t.Errorf("idle window rate = %g, want 0", m2.WindowArrivalsPerSec)
	}
}

// TestDrainOnClose: Close must serve every admitted arrival before stopping
// the shards — closing right after the last Serve returns may find hundreds
// of arrivals still queued in mailboxes, and none may be dropped.
func TestDrainOnClose(t *testing.T) {
	tr := fixedTrace(8, 300, 4, 8)
	e := New(Config{Algorithm: "pd", Shards: 4, Mailbox: 512, Seed: 1})
	n, err := e.ReplayTrace(tr, 4)
	if err != nil {
		t.Fatal(err)
	}
	e.Close() // no explicit Drain: Close itself is the barrier
	if total := e.ServedTotal(); total != int64(n) {
		t.Errorf("served %d of %d admitted arrivals after Close", total, n)
	}
	depth := 0
	for _, s := range e.shards {
		depth += len(s.ops)
	}
	if depth != 0 {
		t.Errorf("%d arrivals left in mailboxes after Close", depth)
	}
}

// TestShardPolicyLeastLoad: with more shards than tenants every tenant gets
// its own shard (hash can collide; least-load cannot), and the policy never
// changes snapshots — only placement.
func TestShardPolicyLeastLoad(t *testing.T) {
	tr := fixedTrace(13, 80, 5, 10)
	const tenants = 4
	hash := runTrace(t, Config{Algorithm: "pd", Shards: 8, Seed: 2}, tr, tenants)
	least := runTrace(t, Config{Algorithm: "pd", Shards: 8, Seed: 2, ShardPolicy: PolicyLeastLoad}, tr, tenants)
	if !bytes.Equal(hash, least) {
		t.Error("shard policy changed tenant snapshots")
	}

	e := New(Config{Algorithm: "pd", Shards: 8, Seed: 2, ShardPolicy: PolicyLeastLoad})
	defer e.Close()
	if _, err := e.ReplayTrace(tr, tenants); err != nil {
		t.Fatal(err)
	}
	used := map[*shard]int{}
	e.mu.Lock()
	for _, tn := range e.tenants {
		used[tn.shard]++
	}
	e.mu.Unlock()
	if len(used) != tenants {
		t.Errorf("least-load packed %d tenants onto %d shards, want one shard each", tenants, len(used))
	}
	for _, c := range used {
		if c != 1 {
			t.Errorf("least-load shard hosts %d tenants, want 1", c)
		}
	}

	if _, err := NewChecked(Config{ShardPolicy: "roulette"}); err == nil {
		t.Error("unknown shard policy accepted")
	}
}

// TestCompactSnapshots: compact snapshots drop only the assignment history
// and agree with full snapshots on everything else.
func TestCompactSnapshots(t *testing.T) {
	tr := fixedTrace(17, 60, 5, 9)
	e := New(Config{Algorithm: "pd", Shards: 2, Seed: 4})
	defer e.Close()
	if _, err := e.ReplayTrace(tr, 2); err != nil {
		t.Fatal(err)
	}
	full, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	compact, err := e.SnapshotAllCompact()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != len(compact) {
		t.Fatalf("%d full vs %d compact snapshots", len(full), len(compact))
	}
	for i := range full {
		f, c := full[i], compact[i]
		if c.Assignments != nil {
			t.Errorf("%s: compact snapshot carries %d assignment rows", c.Tenant, len(c.Assignments))
		}
		if len(f.Assignments) != f.Served {
			t.Errorf("%s: full snapshot has %d assignment rows for %d served", f.Tenant, len(f.Assignments), f.Served)
		}
		c.Assignments, f.Assignments = nil, nil
		a, b := marshalSnaps(t, []*TenantSnapshot{f}), marshalSnaps(t, []*TenantSnapshot{c})
		if !bytes.Equal(a, b) {
			t.Errorf("%s: compact snapshot disagrees with full beyond assignments", f.Tenant)
		}
	}
	one, err := e.SnapshotCompact(compact[0].Tenant)
	if err != nil {
		t.Fatal(err)
	}
	if one.Assignments != nil || one.Served != compact[0].Served {
		t.Errorf("SnapshotCompact = %+v, want compact form of %+v", one, compact[0])
	}
}

func TestLatencyHistQuantiles(t *testing.T) {
	s := &shard{}
	for i := 0; i < 99; i++ {
		s.hist.Record(100 * time.Nanosecond) // bucket [64,128)
	}
	s.hist.Record(time.Millisecond) // the single p100 outlier
	sum, total := mergedHist([]*shard{s})
	if total != 100 {
		t.Fatalf("total = %d, want 100", total)
	}
	p50 := obs.Quantile(sum, total, 0.50)
	if p50 < 64 || p50 > 128 {
		t.Errorf("p50 = %gns, want within [64,128)", p50)
	}
	p99 := obs.Quantile(sum, total, 0.99)
	if p99 > 128 {
		t.Errorf("p99 = %gns, should still sit in the 100ns bucket", p99)
	}
	p100 := obs.Quantile(sum, total, 1)
	if p100 < float64(512*1024) {
		t.Errorf("p100 = %gns, should reach the millisecond bucket", p100)
	}
	if q := obs.Quantile([obs.HistBuckets]int64{}, 0, 0.5); q != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", q)
	}
}
