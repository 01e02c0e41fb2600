package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/instance"
)

const opStream = `
{"op":"create","tenant":"b","universe":2,"distances":[[0,1,2],[1,0,1],[2,1,0]],"cost_by_size":[0,1,1.5]}
{"op":"create","tenant":"a","universe":2,"distances":[[0,1,2],[1,0,1],[2,1,0]],"cost_by_size":[0,1,1.5]}

{"op":"arrive","tenant":"a","point":0,"demands":[0]}
{"op":"arrive","tenant":"b","point":2,"demands":[0,1]}
{"op":"arrive","tenant":"a","point":1,"demands":[1]}
`

func TestReplayOps(t *testing.T) {
	e := New(Config{Shards: 2, Seed: 1})
	defer e.Close()
	n, err := e.ReplayOps(strings.NewReader(opStream))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("replayed %d arrivals, want 3", n)
	}
	snaps, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Tenant != "a" || snaps[1].Tenant != "b" {
		t.Fatalf("snapshots not sorted by tenant: %+v", snaps)
	}
	if snaps[0].Served != 2 || snaps[1].Served != 1 {
		t.Errorf("served a=%d b=%d, want 2 and 1", snaps[0].Served, snaps[1].Served)
	}
	for _, s := range snaps {
		if s.Cost <= 0 || len(s.Facilities) == 0 {
			t.Errorf("tenant %s: implausible snapshot %+v", s.Tenant, s)
		}
		if len(s.Assignments) != s.Served {
			t.Errorf("tenant %s: %d assignment rows for %d served", s.Tenant, len(s.Assignments), s.Served)
		}
	}
}

func TestReplayOpsErrors(t *testing.T) {
	cases := []struct{ name, line string }{
		{"unknown op", `{"op":"destroy","tenant":"a"}`},
		{"bad json", `{"op":`},
		{"arrive before create", `{"op":"arrive","tenant":"nope","point":0,"demands":[0]}`},
		{"empty demand", opStream + `{"op":"arrive","tenant":"a","point":0}`},
		{"demand outside universe", opStream + `{"op":"arrive","tenant":"a","point":0,"demands":[9]}`},
		{"short cost table", `{"op":"create","tenant":"a","universe":3,"distances":[[0]],"cost_by_size":[0,1]}`},
		{"ragged matrix", `{"op":"create","tenant":"a","universe":1,"distances":[[0,1],[1]],"cost_by_size":[0,1]}`},
		{"negative distance", `{"op":"create","tenant":"a","universe":2,"distances":[[0,-1],[-1,0]],"cost_by_size":[0,1,1.5]}`},
		{"non-zero diagonal", `{"op":"create","tenant":"a","universe":2,"distances":[[5,1],[1,0]],"cost_by_size":[0,1,1.5]}`},
		{"asymmetric matrix", `{"op":"create","tenant":"a","universe":1,"distances":[[0,1],[2,0]],"cost_by_size":[0,1]}`},
		{"no matrix", `{"op":"create","tenant":"a","universe":1,"cost_by_size":[0,1]}`},
	}
	for _, tc := range cases {
		e := New(Config{Shards: 1})
		if _, err := e.ReplayOps(strings.NewReader(tc.line)); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		e.Close()
	}
}

// TestApplyRefusesBadDemandIDs: an op-stream arrival naming a demand id
// below zero or at or above MaxUniverse is refused before any demand set is
// built, and the next valid arrival is served. A universe above
// MaxUniverse is refused by create, restore and inject alike.
func TestApplyRefusesBadDemandIDs(t *testing.T) {
	e := New(Config{Shards: 1, Seed: 1})
	defer e.Close()
	if _, err := e.ReplayOps(strings.NewReader(opStream)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{-1, math.MinInt64, MaxUniverse} {
		before, _ := e.AdmittedCount("a")
		err := e.Apply(Op{Op: "arrive", Tenant: "a", Point: 0, Demands: []int{id}})
		if err == nil || !strings.Contains(err.Error(), "demand id") {
			t.Errorf("demand id %d: err = %v, want a refusal", id, err)
		}
		if err := e.Apply(Op{Op: "arrive", Tenant: "a", Point: 1, Demands: []int{0, 1}}); err != nil {
			t.Fatalf("valid arrival after refusing demand id %d: %v", id, err)
		}
		if after, _ := e.AdmittedCount("a"); after != before+1 {
			t.Errorf("demand id %d: admitted %d arrivals, want 1", id, after-before)
		}
	}

	costs := make([]float64, MaxUniverse+2)
	for k := 1; k < len(costs); k++ {
		costs[k] = 1
	}
	origin := TenantOrigin{Universe: MaxUniverse + 1, Distances: [][]float64{{0}}, CostBySize: costs}
	err := e.Apply(Op{Op: "create", Tenant: "big", Universe: origin.Universe, Distances: origin.Distances, CostBySize: costs})
	if err == nil || !strings.Contains(err.Error(), "MaxUniverse") {
		t.Errorf("create above MaxUniverse: err = %v", err)
	}
	rec := TenantCheckpoint{Tenant: "big", TenantOrigin: origin}
	_, err = e.Restore(&Checkpoint{Version: CheckpointVersion, Algorithm: "pd", Seed: 1, Tenants: []TenantCheckpoint{rec}})
	if err == nil || !strings.Contains(err.Error(), "MaxUniverse") {
		t.Errorf("restore above MaxUniverse: err = %v", err)
	}
	err = e.InjectTenant(&TenantTransfer{Version: CheckpointVersion, Algorithm: "pd", Seed: 1, Tenants: []TenantCheckpoint{rec}})
	if err == nil || !strings.Contains(err.Error(), "MaxUniverse") {
		t.Errorf("inject above MaxUniverse: err = %v", err)
	}
	if n := e.TenantCount(); n != 2 {
		t.Errorf("%d tenants after the refusals, want 2", n)
	}
}

// TestCreateRejectsNonFiniteDistances covers the matrix entries JSON cannot
// spell: a create op built in Go with an infinite or NaN distance is
// refused before any tenant exists.
func TestCreateRejectsNonFiniteDistances(t *testing.T) {
	e := New(Config{Shards: 1})
	defer e.Close()
	for _, v := range []float64{math.Inf(1), math.NaN()} {
		err := e.Apply(Op{Op: "create", Tenant: "a", Universe: 1,
			Distances: [][]float64{{0, v}, {v, 0}}, CostBySize: []float64{0, 1}})
		if err == nil || !strings.Contains(err.Error(), "not finite") {
			t.Errorf("distance %v: err = %v, want a not-finite rejection", v, err)
		}
	}
	if err := e.Serve("a", instance.Request{Point: 0, Demands: commodity.New(0)}); !errors.Is(err, ErrUnknownTenant) {
		t.Errorf("serve after rejected creates: err = %v, want ErrUnknownTenant", err)
	}
}

// TestReplayReaderAutodetect feeds the same workload once as a gentrace-style
// file trace and once rewritten as an op stream; both paths must land on the
// identical final snapshot.
func TestReplayReaderAutodetect(t *testing.T) {
	tr := fixedTrace(3, 40, 4, 8)

	var traceDoc bytes.Buffer
	if err := tr.WriteJSON(&traceDoc); err != nil {
		t.Fatal(err)
	}

	// Rewrite the trace as an op stream for one tenant.
	var ops bytes.Buffer
	in := tr.Instance
	n := in.Space.Len()
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = in.Space.Distance(i, j)
		}
	}
	costBySize := make([]float64, in.Universe()+1)
	for k := 1; k <= in.Universe(); k++ {
		costBySize[k] = in.Costs.Cost(0, commodity.Full(k))
	}
	enc := json.NewEncoder(&ops)
	if err := enc.Encode(Op{Op: "create", Tenant: "tenant-000", Universe: in.Universe(),
		Distances: dist, CostBySize: costBySize}); err != nil {
		t.Fatal(err)
	}
	for _, r := range in.Requests {
		if err := enc.Encode(Op{Op: "arrive", Tenant: "tenant-000", Point: r.Point,
			Demands: r.Demands.IDs()}); err != nil {
			t.Fatal(err)
		}
	}

	run := func(input string) []byte {
		e := New(Config{Shards: 3, Seed: 1})
		defer e.Close()
		if _, err := e.ReplayReader(strings.NewReader(input), 1); err != nil {
			t.Fatal(err)
		}
		snaps, err := e.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		return marshalSnaps(t, snaps)
	}
	fromTrace := run(traceDoc.String())
	fromOps := run(ops.String())
	if !bytes.Equal(fromTrace, fromOps) {
		t.Error("file-trace and op-stream ingestion disagree on the final snapshot")
	}

	e := New(Config{Shards: 1})
	defer e.Close()
	if _, err := e.ReplayReader(strings.NewReader("\n  \n"), 1); err == nil {
		t.Error("blank input accepted")
	}
}

// BenchmarkApplyArrive measures the op-stream arrive path (Apply → the
// shard's mailbox → serve) on one small tenant, drain included, so
// allocs/op counts the serving goroutine's allocations as well as the
// caller's.
func BenchmarkApplyArrive(b *testing.B) {
	e := New(Config{Shards: 1})
	defer e.Close()
	if err := e.Apply(Op{Op: "create", Tenant: "a", Universe: 2,
		Distances: [][]float64{{0, 1}, {1, 0}}, CostBySize: []float64{0, 1, 1.5}}); err != nil {
		b.Fatal(err)
	}
	demands := []int{0, 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Apply(Op{Op: "arrive", Tenant: "a", Point: i & 1, Demands: demands[:1+i&1]}); err != nil {
			b.Fatal(err)
		}
	}
	e.Drain()
}
