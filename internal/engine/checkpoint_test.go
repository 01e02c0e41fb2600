package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/metric"
	"repro/internal/workload"
)

// serveHalves splits a trace's fan-out at an arbitrary point so tests can
// checkpoint mid-stream: it creates the tenants, serves requests [0, cut),
// hands control to between, then serves the rest.
func serveHalves(t *testing.T, e *Engine, tr *workload.Trace, tenants, cut int, between func()) {
	t.Helper()
	in := tr.Instance
	names := make([]string, tenants)
	for i := range names {
		names[i] = tenantName(i)
		if err := e.CreateTenant(names[i], in.Space, in.Costs); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range in.Requests {
		if i == cut && between != nil {
			between()
		}
		if err := e.Serve(names[i%tenants], r); err != nil {
			t.Fatal(err)
		}
	}
}

func tenantName(i int) string {
	return []string{"tenant-000", "tenant-001", "tenant-002", "tenant-003"}[i]
}

// TestCheckpointRestoreRoundTrip is the durability contract: a snapshot
// taken at checkpoint time must equal the snapshot of a fresh engine that
// restored the checkpoint — for both algorithms, and for API-created tenants
// whose origin is synthesized (matrix + sampled cost table).
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	tr := fixedTrace(21, 100, 6, 12)
	for _, algo := range []string{"pd", "rand"} {
		cfg := Config{Algorithm: algo, Shards: 3, Seed: 7, RecordArrivals: true}
		e := New(cfg)
		var ck *Checkpoint
		serveHalves(t, e, tr, 3, 60, func() {
			var err error
			if ck, err = e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		e.Close()

		if got := ck.Arrivals(); got != 60 {
			t.Fatalf("%s: checkpoint records %d arrivals, want 60", algo, got)
		}

		// Restore the checkpoint into a second engine (different shard
		// count on purpose) and snapshot; it must match an engine that
		// served the same prefix directly.
		restored := New(Config{Algorithm: algo, Shards: 5, Seed: 7, RecordArrivals: true})
		defer restored.Close()
		if _, err := restored.Restore(ck); err != nil {
			t.Fatal(err)
		}
		restoredSnaps, err := restored.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}

		// Only the first 60 arrivals: rebuild via a trimmed trace.
		trimmed := *tr
		in := *tr.Instance
		in.Requests = in.Requests[:60]
		trimmed.Instance = &in
		direct2 := New(cfg)
		defer direct2.Close()
		if _, err := direct2.ReplayTrace(&trimmed, 3); err != nil {
			t.Fatal(err)
		}
		directSnaps, err := direct2.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}

		if !bytes.Equal(marshalSnaps(t, restoredSnaps), marshalSnaps(t, directSnaps)) {
			t.Errorf("%s: restored snapshots differ from a direct run of the same prefix", algo)
		}
	}
}

// TestCheckpointThenContinue: serving the second half after a restore must
// land on exactly the state of an uninterrupted run — the "no cost
// divergence across a crash" guarantee.
func TestCheckpointThenContinue(t *testing.T) {
	tr := fixedTrace(33, 120, 5, 10)
	cfg := Config{Algorithm: "pd", Shards: 4, Seed: 11, RecordArrivals: true}

	// Uninterrupted run.
	e := New(cfg)
	defer e.Close()
	if _, err := e.ReplayTrace(tr, 2); err != nil {
		t.Fatal(err)
	}
	want, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: checkpoint at 70, "crash", restore, serve the rest.
	crashed := New(cfg)
	var ck *Checkpoint
	serveHalves(t, crashed, tr, 2, 70, func() {
		var err error
		if ck, err = crashed.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	})
	crashed.Close() // arrivals after the checkpoint die with the process

	resumed := New(cfg)
	defer resumed.Close()
	if _, err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	for i, r := range tr.Instance.Requests {
		if i < 70 {
			continue
		}
		if err := resumed.Serve(tenantName(i%2), r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
		t.Error("checkpoint + restore + replay diverged from the uninterrupted run")
	}
}

func TestCheckpointFileAtomicRoundTrip(t *testing.T) {
	tr := fixedTrace(5, 40, 4, 8)
	e := New(Config{Algorithm: "pd", Shards: 2, Seed: 3, RecordArrivals: true})
	defer e.Close()
	if _, err := e.ReplayTrace(tr, 2); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt", "engine.ckpt")
	if _, err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite must go through the tmp+rename path too.
	if _, err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != CheckpointVersion || got.Algorithm != "pd" || got.Seed != 3 {
		t.Errorf("checkpoint header = %+v", got)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Errorf("read back a different checkpoint: %d arrivals/%d tenants, want %d/%d",
			got.Arrivals(), len(got.Tenants), ck.Arrivals(), len(ck.Tenants))
	}
	// No stray temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries, want 1", len(entries))
	}
}

func TestCheckpointErrors(t *testing.T) {
	// Without RecordArrivals checkpointing works through the state-marshal
	// path; a closed engine must still refuse.
	e := New(Config{Shards: 1})
	if _, err := e.Checkpoint(); err != nil {
		t.Errorf("Checkpoint without RecordArrivals failed: %v", err)
	}
	e.Close()
	if _, err := e.Checkpoint(); err == nil {
		t.Error("Checkpoint on closed engine succeeded")
	}
	// Mismatched restore targets are configuration errors.
	src := New(Config{Algorithm: "pd", Seed: 1, Shards: 1, RecordArrivals: true})
	defer src.Close()
	if _, err := src.ReplayTrace(fixedTrace(1, 10, 4, 6), 1); err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustEngine(t, Config{Algorithm: "rand", Seed: 1, Shards: 1}).Restore(ck); err == nil {
		t.Error("restore under a different algorithm succeeded")
	}
	if _, err := mustEngine(t, Config{Algorithm: "pd", Seed: 2, Shards: 1}).Restore(ck); err == nil {
		t.Error("restore under a different seed succeeded")
	}
	dup := mustEngine(t, Config{Algorithm: "pd", Seed: 1, Shards: 1})
	if _, err := dup.Restore(ck); err != nil {
		t.Fatal(err)
	}
	if _, err := dup.Restore(ck); err == nil {
		t.Error("double restore of the same tenants succeeded")
	}
	bad := *ck
	bad.Version = 99
	if _, err := mustEngine(t, Config{Algorithm: "pd", Seed: 1, Shards: 1}).Restore(&bad); err == nil {
		t.Error("unknown checkpoint version accepted")
	}

	if _, err := ReadCheckpointFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing checkpoint file read succeeded")
	}
}

func mustEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	t.Cleanup(e.Close)
	return e
}

// TestCheckpointNonUniformCostRefused: a point-scaled cost model cannot be
// sampled into a by-size table; checkpointing such a tenant must error, not
// silently misprice the restore.
func TestCheckpointNonUniformCostRefused(t *testing.T) {
	e := New(Config{Shards: 1, RecordArrivals: true})
	defer e.Close()
	space := metric.NewLine([]float64{0, 1, 2})
	scaled := cost.NewPointScaled(cost.PowerLaw(3, 1, 1), []float64{1, 2, 3})
	if err := e.CreateTenant("scaled", space, scaled); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err == nil {
		t.Error("checkpoint of a point-scaled tenant succeeded")
	}
}

// TestCheckpointV2SealedRoundTrip is the format-v2 durability contract at
// several shard counts: with a small SealEvery, tenants re-base on the serve
// path, the checkpoint carries base states plus short tails, a restore
// replays at most SealEvery arrivals per tenant, and the restored snapshots
// equal both the pre-checkpoint snapshots and a direct run of the same
// prefix. Runs under -race in CI.
func TestCheckpointV2SealedRoundTrip(t *testing.T) {
	const (
		tenants   = 3
		arrivals  = 150
		sealEvery = 10
	)
	tr := fixedTrace(42, arrivals, 6, 12)
	for _, algo := range []string{"pd", "rand"} {
		for _, shards := range []int{1, 2, 8} {
			cfg := Config{Algorithm: algo, Shards: shards, Seed: 7, RecordArrivals: true, SealEvery: sealEvery}
			e := New(cfg)
			if _, err := e.ReplayTrace(tr, tenants); err != nil {
				t.Fatal(err)
			}
			want, err := e.SnapshotAll()
			if err != nil {
				t.Fatal(err)
			}
			ck, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			e.Close()

			if ck.Version != CheckpointVersion {
				t.Fatalf("%s/%d shards: checkpoint version %d, want %d", algo, shards, ck.Version, CheckpointVersion)
			}
			if got := ck.Arrivals(); got != arrivals {
				t.Fatalf("%s/%d shards: checkpoint represents %d arrivals, want %d", algo, shards, got, arrivals)
			}
			if tail := ck.TailArrivals(); tail >= tenants*sealEvery {
				t.Errorf("%s/%d shards: tail %d arrivals, want < tenants×SealEvery = %d",
					algo, shards, tail, tenants*sealEvery)
			}
			for i := range ck.Tenants {
				if len(ck.Tenants[i].BaseState) == 0 {
					t.Errorf("%s/%d shards: tenant %s has no base state", algo, shards, ck.Tenants[i].Tenant)
				}
			}

			// Restore on a different shard count on purpose.
			restored := New(Config{Algorithm: algo, Shards: shards%8 + 1, Seed: 7, RecordArrivals: true, SealEvery: sealEvery})
			stats, err := restored.Restore(ck)
			if err != nil {
				t.Fatal(err)
			}
			if stats.Arrivals != arrivals || stats.Tenants != tenants || stats.BasesLoaded != tenants {
				t.Errorf("%s/%d shards: restore stats %+v", algo, shards, stats)
			}
			if stats.Replayed != ck.TailArrivals() || stats.Replayed >= tenants*sealEvery {
				t.Errorf("%s/%d shards: restore replayed %d arrivals, want tail (%d) and < %d",
					algo, shards, stats.Replayed, ck.TailArrivals(), tenants*sealEvery)
			}
			got, err := restored.SnapshotAll()
			if err != nil {
				t.Fatal(err)
			}
			restored.Close()
			if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
				t.Errorf("%s/%d shards: restored snapshots differ from pre-checkpoint snapshots", algo, shards)
			}
		}
	}
}

// TestCheckpointV2ThenContinue: restoring a v2 checkpoint mid-stream and
// serving the rest must land on exactly the uninterrupted run's state — the
// crash-consistency guarantee through base states instead of full replay.
func TestCheckpointV2ThenContinue(t *testing.T) {
	tr := fixedTrace(33, 120, 5, 10)
	for _, algo := range []string{"pd", "rand"} {
		cfg := Config{Algorithm: algo, Shards: 4, Seed: 11, RecordArrivals: true, SealEvery: 16}

		e := New(cfg)
		if _, err := e.ReplayTrace(tr, 2); err != nil {
			t.Fatal(err)
		}
		want, err := e.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()

		crashed := New(cfg)
		var ck *Checkpoint
		serveHalves(t, crashed, tr, 2, 70, func() {
			var err error
			if ck, err = crashed.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		crashed.Close()

		resumed := New(cfg)
		stats, err := resumed.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Replayed > 2*16 {
			t.Errorf("%s: restore replayed %d arrivals, want ≤ tenants×SealEvery = 32", algo, stats.Replayed)
		}
		for i, r := range tr.Instance.Requests {
			if i < 70 {
				continue
			}
			if err := resumed.Serve(tenantName(i%2), r); err != nil {
				t.Fatal(err)
			}
		}
		got, err := resumed.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		resumed.Close()
		if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
			t.Errorf("%s: v2 checkpoint + restore + replay diverged from the uninterrupted run", algo)
		}
	}
}

// TestCheckpointWithoutRecordArrivals: without the arrival history the
// engine checkpoints by marshaling state at capture time — every tenant is
// sealed, nothing is replayed on restore, snapshots still match exactly.
func TestCheckpointWithoutRecordArrivals(t *testing.T) {
	tr := fixedTrace(8, 90, 5, 11)
	for _, algo := range []string{"pd", "rand"} {
		cfg := Config{Algorithm: algo, Shards: 3, Seed: 5}
		e := New(cfg)
		if _, err := e.ReplayTrace(tr, 3); err != nil {
			t.Fatal(err)
		}
		want, err := e.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if ck.TailArrivals() != 0 {
			t.Fatalf("%s: no-record checkpoint has a %d-arrival tail, want 0", algo, ck.TailArrivals())
		}
		if ck.Arrivals() != 90 {
			t.Fatalf("%s: no-record checkpoint represents %d arrivals, want 90", algo, ck.Arrivals())
		}
		restored := New(cfg)
		stats, err := restored.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Replayed != 0 || stats.BasesLoaded != 3 {
			t.Errorf("%s: restore stats %+v, want 0 replayed / 3 bases", algo, stats)
		}
		got, err := restored.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		restored.Close()
		if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
			t.Errorf("%s: state-only restore diverged from the source engine", algo)
		}
	}
}

// TestCheckpointUnsealedToSealedRestore: a checkpoint of a never-sealed
// engine holds every tenant's full history and no base. It restores by full
// replay onto a sealing engine, whose next Checkpoint carries bases and
// short tails, and that checkpoint restores with bounded replay onto a
// third engine — all three agreeing byte-for-byte.
func TestCheckpointUnsealedToSealedRestore(t *testing.T) {
	tr := fixedTrace(14, 100, 6, 12)
	for _, algo := range []string{"pd", "rand"} {
		unsealed := New(Config{Algorithm: algo, Shards: 2, Seed: 9, RecordArrivals: true, SealEvery: -1})
		if _, err := unsealed.ReplayTrace(tr, 2); err != nil {
			t.Fatal(err)
		}
		want, err := unsealed.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		full, err := unsealed.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		unsealed.Close()
		for _, tc := range full.Tenants {
			if tc.BaseState != nil || tc.BaseServed != 0 {
				t.Fatalf("%s: unsealed tenant %q carries a base of %d arrivals", algo, tc.Tenant, tc.BaseServed)
			}
		}
		if full.TailArrivals() != 100 {
			t.Fatalf("%s: unsealed checkpoint tails hold %d arrivals, want 100", algo, full.TailArrivals())
		}

		mid := New(Config{Algorithm: algo, Shards: 3, Seed: 9, RecordArrivals: true, SealEvery: 8})
		stats, err := mid.Restore(full)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Replayed != 100 || stats.BasesLoaded != 0 {
			t.Errorf("%s: unsealed restore stats %+v, want full replay and no bases", algo, stats)
		}
		sealed, err := mid.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		midSnaps, err := mid.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		mid.Close()
		if sealed.TailArrivals() >= 2*8 {
			t.Errorf("%s: sealed checkpoint tail %d, want < tenants×SealEvery", algo, sealed.TailArrivals())
		}

		final := New(Config{Algorithm: algo, Shards: 1, Seed: 9, RecordArrivals: true, SealEvery: 8})
		fstats, err := final.Restore(sealed)
		if err != nil {
			t.Fatal(err)
		}
		if fstats.Replayed != sealed.TailArrivals() {
			t.Errorf("%s: sealed restore replayed %d, want %d", algo, fstats.Replayed, sealed.TailArrivals())
		}
		got, err := final.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		final.Close()
		if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, midSnaps)) {
			t.Errorf("%s: unsealed restore diverged from the source engine", algo)
		}
		if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
			t.Errorf("%s: sealed restore diverged from the source engine", algo)
		}
	}
}

// TestRestoreLongTail: a long unsealed tail is replayed in order, every
// arrival is admitted, and the restore is byte-identical.
func TestRestoreLongTail(t *testing.T) {
	const n = 549
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 4, RecordArrivals: true, SealEvery: -1}
	src := New(cfg)
	if _, err := src.ReplayTrace(fixedTrace(61, n, 5, 10), 1); err != nil {
		t.Fatal(err)
	}
	want, err := src.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := src.Checkpoint()
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.Tenants) != 1 || ck.TailArrivals() != n {
		t.Fatalf("checkpoint holds %d tenants, %d tail arrivals; want 1 and %d", len(ck.Tenants), ck.TailArrivals(), n)
	}
	dst := mustEngine(t, cfg)
	stats, err := dst.Restore(ck)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replayed != n {
		t.Errorf("replayed %d, want %d", stats.Replayed, n)
	}
	if at, err := dst.AdmittedCount(ck.Tenants[0].Tenant); err != nil || at != n {
		t.Errorf("admitted %d (err %v), want %d", at, err, n)
	}
	got, err := dst.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
		t.Error("restored snapshots differ from the source engine's")
	}
}

// TestCheckpointCompression pins the document WriteFile writes: base
// states are flate-compressed, the file is smaller than the checkpoint's
// JSON marshal, WriteFile leaves the receiver alone, and the document reads
// back into the same checkpoint, which restores byte-identically.
func TestCheckpointCompression(t *testing.T) {
	tr := fixedTrace(42, 200, 6, 12)
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 10}
	e := New(cfg)
	if _, err := e.ReplayTrace(tr, 2); err != nil {
		t.Fatal(err)
	}
	want, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	e.Close()

	raw, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), raw...)
	path := filepath.Join(t.TempDir(), "engine.ckpt")
	n, err := ck.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := json.Marshal(ck); !bytes.Equal(after, before) {
		t.Fatal("WriteFile mutated the receiver")
	}
	if n >= len(raw) {
		t.Errorf("document is %d bytes, JSON marshal %d — the binary document bought nothing", n, len(raw))
	}
	info, err := InspectCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Bytes != n || info.Version != CheckpointVersion || len(info.Tenants) != 2 {
		t.Fatalf("inspect %+v, want %d bytes, version %d, 2 tenants", info, n, CheckpointVersion)
	}
	for i, ti := range info.Tenants {
		tc := &ck.Tenants[i]
		if ti.Tenant != tc.Tenant || ti.BaseServed != tc.BaseServed || ti.BaseBytes != len(tc.BaseState) || ti.Tail != len(tc.Arrivals) {
			t.Errorf("inspect tenant %+v disagrees with the checkpoint", ti)
		}
		if ti.BaseBytesZ == 0 || ti.BaseBytesZ >= ti.BaseBytes {
			t.Errorf("tenant %s: base state %d bytes stored as %d compressed", ti.Tenant, ti.BaseBytes, ti.BaseBytesZ)
		}
	}

	fromFile, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, ck) {
		t.Fatal("the document read back differs from the checkpoint written")
	}
	restored := New(Config{Algorithm: "pd", Shards: 3, Seed: 7, RecordArrivals: true, SealEvery: 10})
	defer restored.Close()
	stats, err := restored.Restore(fromFile)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BasesLoaded != 2 || stats.StateBytes == 0 {
		t.Errorf("restore stats %+v, want 2 bases loaded", stats)
	}
	got, err := restored.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, want), marshalSnaps(t, got)) {
		t.Error("restored snapshots differ from pre-checkpoint snapshots")
	}

	// A document with trailing bytes is refused, after its records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpointFile(path); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("ReadCheckpointFile of a document with a trailing byte: err = %v", err)
	}
}

// TestCheckpointBoundedInflation: a document whose base states would
// inflate past maxInflate times its length is written with the states
// Huffman-coded instead of deflated, so the reader's bound never refuses
// what WriteFile wrote.
func TestCheckpointBoundedInflation(t *testing.T) {
	ck := &Checkpoint{Version: CheckpointVersion, Algorithm: "pd", Seed: 1, Tenants: []TenantCheckpoint{{
		Tenant:       "zeros",
		TenantOrigin: TenantOrigin{Universe: 1, Distances: [][]float64{{0}}, CostBySize: []float64{0, 1}},
		BaseState:    make([]byte, 1<<20),
		BaseServed:   3,
		Arrivals:     []ArrivalRecord{{Point: 0, Demands: []int{0}}},
	}}}
	path := filepath.Join(t.TempDir(), "engine.ckpt")
	n, err := ck.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n >= 1<<20 || maxInflate*n < 1<<20 {
		t.Errorf("a 1 MiB state of zeros made a %d-byte document, want under 1 MiB and at least 1/%d of it", n, maxInflate)
	}
	got, err := ReadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ck) {
		t.Error("stored document read back differently")
	}
}

// TestCheckpointSchema1StatesRefused: checkpoints written before the binary
// state codec are JSON documents — with inline JSON base states, or with
// flate-compressed ones (both fixtures were captured by that build with
// SealEvery 8) — and so is the last JSON-era document, whose base states
// are already binary (checkpoint_json_v2.json). Each must fail with an
// error naming the JSON format, never panic or misparse.
func TestCheckpointSchema1StatesRefused(t *testing.T) {
	for _, fixture := range []string{"checkpoint_schema1_inline.json", "checkpoint_schema1_flate.json", "checkpoint_json_v2.json"} {
		_, err := ReadCheckpointFile(filepath.Join("testdata", fixture))
		if err == nil || !strings.Contains(err.Error(), "JSON checkpoint document") {
			t.Errorf("%s: err = %v, want one naming the JSON checkpoint document", fixture, err)
		}
	}
}

// TestRestoreRefusesBaseCounters: a record's serve counters must agree with
// its base state — the served count with the state's assignments, the
// construction cost bitwise with its facilities priced in opening order —
// and the assignment cost must be finite and non-negative. A contradicting
// record is refused whole: no tenant is left behind, and the untouched
// checkpoint still restores.
func TestRestoreRefusesBaseCounters(t *testing.T) {
	for _, algo := range []string{"pd", "rand"} {
		cfg := Config{Algorithm: algo, Shards: 2, Seed: 7, RecordArrivals: true, SealEvery: 8}
		e := New(cfg)
		if _, err := e.ReplayTrace(fixedTrace(12, 42, 5, 10), 1); err != nil {
			t.Fatal(err)
		}
		ck, err := e.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		e.Close()
		if tc := ck.Tenants[0]; len(tc.BaseState) == 0 || tc.BaseServed == 0 {
			t.Fatalf("%s: tenant not sealed (base %d bytes, %d served)", algo, len(tc.BaseState), tc.BaseServed)
		}
		tamper := map[string]func(tc *TenantCheckpoint){
			"served+1000":         func(tc *TenantCheckpoint) { tc.BaseServed += 1000 },
			"served-1":            func(tc *TenantCheckpoint) { tc.BaseServed-- },
			"construction=-5":     func(tc *TenantCheckpoint) { tc.BaseConstruction = -5 },
			"construction+ulp":    func(tc *TenantCheckpoint) { tc.BaseConstruction = math.Nextafter(tc.BaseConstruction, math.Inf(1)) },
			"assignment<0":        func(tc *TenantCheckpoint) { tc.BaseAssignment = -1 },
			"assignment=NaN":      func(tc *TenantCheckpoint) { tc.BaseAssignment = math.NaN() },
			"assignment=+Inf":     func(tc *TenantCheckpoint) { tc.BaseAssignment = math.Inf(1) },
			"served without base": func(tc *TenantCheckpoint) { tc.BaseState = nil },
			"demand outside universe": func(tc *TenantCheckpoint) {
				tc.Arrivals = append(tc.Arrivals, ArrivalRecord{Point: 0, Demands: []int{tc.Universe}})
			},
			"negative demand": func(tc *TenantCheckpoint) {
				tc.Arrivals = append(tc.Arrivals, ArrivalRecord{Point: 0, Demands: []int{-1}})
			},
			"no demands": func(tc *TenantCheckpoint) {
				tc.Arrivals = append(tc.Arrivals, ArrivalRecord{Point: 0})
			},
			"point outside space": func(tc *TenantCheckpoint) {
				tc.Arrivals = append(tc.Arrivals, ArrivalRecord{Point: len(tc.Distances), Demands: []int{0}})
			},
		}
		for name, edit := range tamper {
			bad := *ck
			bad.Tenants = []TenantCheckpoint{ck.Tenants[0]}
			tc := &bad.Tenants[0]
			tc.Arrivals = append([]ArrivalRecord(nil), tc.Arrivals...)
			edit(tc)
			fresh := mustEngine(t, cfg)
			if _, err := fresh.Restore(&bad); err == nil {
				t.Errorf("%s/%s: tampered record restored", algo, name)
			}
			if n := fresh.TenantCount(); n != 0 {
				t.Errorf("%s/%s: refused restore left %d tenants behind", algo, name, n)
			}
		}
		if _, err := mustEngine(t, cfg).Restore(ck); err != nil {
			t.Errorf("%s: untouched checkpoint: %v", algo, err)
		}
	}
}
