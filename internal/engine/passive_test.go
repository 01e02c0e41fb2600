package engine

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/metric"
	"repro/internal/workload"
)

// passiveTwin is one engine configuration holding tenant "t" twice over:
// live on one engine and passive on the other, fed one stream. Once the
// passive twin has written a document holding a passive record, a third
// engine restored from it joins them as restarted, fed and compared like
// the twins.
type passiveTwin struct {
	t             *testing.T
	cfg           Config
	live, passive *Engine
	restarted     *Engine
	tr            *workload.Trace
	next          int // requests of tr served so far
}

func newPassiveTwin(t *testing.T, cfg Config, tr *workload.Trace) *passiveTwin {
	t.Helper()
	w := &passiveTwin{t: t, cfg: cfg, live: New(cfg), passive: New(cfg), tr: tr}
	t.Cleanup(w.live.Close)
	t.Cleanup(w.passive.Close)
	in := tr.Instance
	if err := w.live.createTenant("t", in.Space, in.Costs, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := w.passive.createTenant("t", in.Space, in.Costs, nil, true); err != nil {
		t.Fatal(err)
	}
	return w
}

// engines is the live twin, the passive twin and, once there, the
// restarted engine.
func (w *passiveTwin) engines() []*Engine {
	es := []*Engine{w.live, w.passive}
	if w.restarted != nil {
		es = append(es, w.restarted)
	}
	return es
}

// serve sends the next n requests to every engine as one batch each, then
// checks that all report the same served and admitted counts.
func (w *passiveTwin) serve(n int) {
	w.t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		items[i].Req = w.tr.Instance.Requests[w.next+i]
	}
	w.next += n
	for _, e := range w.engines() {
		if _, err := e.ServeBatch("t", items, false, nil); err != nil {
			w.t.Fatal(err)
		}
	}
	for i, e := range w.engines() {
		served, err := e.ServedCount("t")
		if err != nil {
			w.t.Fatal(err)
		}
		admitted, err := e.AdmittedCount("t")
		if err != nil {
			w.t.Fatal(err)
		}
		if served != w.next || admitted != int64(w.next) {
			w.t.Fatalf("after %d arrivals: engine %d served %d, admitted %d", w.next, i, served, admitted)
		}
	}
}

// docs checks that every engine's checkpoint document has one sha256 once
// the role is set aside, and checks the role: a record is passive exactly
// while its tenant is unbuilt, and only a document holding a passive record
// is version 3. The first passive record the
// passive twin writes is read back and restored onto the restarted engine,
// which must register it passive without replaying its tail.
func (w *passiveTwin) docs() {
	w.t.Helper()
	var sums [][32]byte
	for i, e := range w.engines() {
		ck, err := e.Checkpoint()
		if err != nil {
			w.t.Fatal(err)
		}
		unbuilt := e.Metrics().PassiveTenants == 1
		if passive := ck.Tenants[0].Passive; passive != unbuilt {
			w.t.Fatalf("after %d arrivals: engine %d's record passive %v, tenant unbuilt %v", w.next, i, passive, unbuilt)
		}
		want := CheckpointVersion
		if unbuilt {
			want = CheckpointVersionRoles
		}
		if ck.Version != want {
			w.t.Fatalf("after %d arrivals: engine %d wrote version %d, want %d", w.next, i, ck.Version, want)
		}
		doc, err := ck.encode(flate.DefaultCompression)
		if err != nil {
			w.t.Fatal(err)
		}
		if i == 1 && unbuilt && w.restarted == nil {
			w.restart(doc)
		}
		ck.Version, ck.Tenants[0].Passive = CheckpointVersion, false
		if doc, err = ck.encode(flate.DefaultCompression); err != nil {
			w.t.Fatal(err)
		}
		sums = append(sums, sha256.Sum256(doc))
	}
	for i := range sums {
		if sums[i] != sums[0] {
			w.t.Fatalf("after %d arrivals: checkpoint documents differ (live %x, engine %d %x)", w.next, sums[0][:6], i, sums[i][:6])
		}
	}
}

// restart restores the passive twin's document onto the restarted engine.
func (w *passiveTwin) restart(doc []byte) {
	w.t.Helper()
	ck, err := decodeCheckpoint("passive twin", doc, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	w.restarted = New(w.cfg)
	w.t.Cleanup(w.restarted.Close)
	stats, err := w.restarted.Restore(ck)
	if err != nil {
		w.t.Fatal(err)
	}
	if n := w.restarted.Metrics().PassiveTenants; n != 1 || stats.Replayed != 0 {
		w.t.Fatalf("after %d arrivals: restored %d passive tenants, replayed %d, want 1 and 0", w.next, n, stats.Replayed)
	}
}

// snapshots checks that every engine's snapshot JSON is byte-identical.
func (w *passiveTwin) snapshots() {
	w.t.Helper()
	var got [][]byte
	for _, e := range w.engines() {
		snaps, err := e.SnapshotAll()
		if err != nil {
			w.t.Fatal(err)
		}
		got = append(got, marshalSnaps(w.t, snaps))
	}
	for i := range got {
		if !bytes.Equal(got[i], got[0]) {
			w.t.Fatalf("after %d arrivals: engine %d's snapshots differ from the live twin's", w.next, i)
		}
	}
}

// passiveCount is the passive engine's Metrics.PassiveTenants, which the
// restarted engine must share.
func (w *passiveTwin) passiveCount() int {
	w.t.Helper()
	n := w.passive.Metrics().PassiveTenants
	if w.restarted != nil {
		if m := w.restarted.Metrics().PassiveTenants; m != n {
			w.t.Fatalf("after %d arrivals: restarted engine has %d passive tenants, passive twin %d", w.next, m, n)
		}
	}
	return n
}

// TestPassiveTwin: a passive tenant and a live twin fed one stream in
// batches of 3 report equal served and admitted counts after every batch,
// write checkpoint documents that are byte-identical but for the role, and
// byte-identical snapshots, and still do after arrivals that follow the
// snapshot — for PD and RAND, SealEvery 8 and 50, on recording and
// non-recording engines. On a recording engine the documents are compared
// after every batch, so before and after every seal; the passive tenant
// stays passive until its tail reaches SealEvery and is live from the seal
// on. Its first document, written passive, restores passive without a
// replay, and the restarted copy matches both twins from then on. On a
// non-recording engine it goes live at the same bound without sealing, and
// a checkpoint, which seals every tenant, builds it earlier.
func TestPassiveTwin(t *testing.T) {
	tr := fixedTrace(33, 240, 6, 12)
	for _, algo := range []string{"pd", "rand"} {
		for _, seal := range []int{8, 50} {
			for _, record := range []bool{true, false} {
				cfg := Config{Algorithm: algo, Shards: 2, Seed: 5, RecordArrivals: record, SealEvery: seal}
				t.Run(fmt.Sprintf("%s/seal%d/record=%v", algo, seal, record), func(t *testing.T) {
					w := newPassiveTwin(t, cfg, tr)
					for w.next+3 <= 2*seal+6 {
						wantPassive := 0
						if w.next+3 < seal {
							wantPassive = 1
						}
						w.serve(3)
						if got := w.passiveCount(); got != wantPassive {
							t.Fatalf("after %d arrivals: %d passive tenants, want %d", w.next, got, wantPassive)
						}
						if record {
							w.docs()
						}
					}
					w.docs()
					w.snapshots()
					for i := 0; i < 4; i++ {
						w.serve(5)
						w.docs()
					}
					w.snapshots()

					if record {
						if w.restarted == nil {
							t.Fatal("the passive twin never wrote a passive record")
						}
						return
					}
					// A checkpoint seals a non-recording tenant, so it
					// builds a passive one below the bound.
					w = newPassiveTwin(t, cfg, tr)
					w.serve(seal / 2)
					if got := w.passiveCount(); got != 1 {
						t.Fatalf("after %d arrivals: %d passive tenants, want 1", w.next, got)
					}
					w.docs()
					if got := w.passiveCount(); got != 0 {
						t.Fatalf("checkpoint left %d passive tenants, want 0", got)
					}
					w.serve(seal)
					w.docs()
					w.snapshots()
				})
			}
		}
	}
}

// TestPassiveUnsealedBound: on an engine that does not seal, a passive
// tenant goes live when its tail reaches DefaultSealEvery, and still
// matches its live twin: the whole history in the checkpoint on a
// recording engine, a seal per capture on a non-recording one. On a
// recording engine its document one arrival below the bound restores
// passive, and the restored copy goes live at the bound too.
func TestPassiveUnsealedBound(t *testing.T) {
	tr := fixedTrace(35, DefaultSealEvery+40, 4, 8)
	for _, record := range []bool{true, false} {
		w := newPassiveTwin(t, Config{Algorithm: "pd", Shards: 1, Seed: 5, RecordArrivals: record, SealEvery: -1}, tr)
		w.serve(DefaultSealEvery - 1)
		if got := w.passiveCount(); got != 1 {
			t.Fatalf("record %v: %d passive tenants below the bound, want 1", record, got)
		}
		if record {
			w.docs()
		}
		w.serve(1)
		if got := w.passiveCount(); got != 0 {
			t.Fatalf("record %v: %d passive tenants at the bound, want 0", record, got)
		}
		w.serve(40)
		w.docs()
		w.snapshots()
	}
}

// TestPassiveInject: an exported tenant with a base and a tail injected
// passive registers one passive tenant that has replayed nothing, counts
// the whole transfer as served and admitted, is captured as its base and
// tail stand, and then snapshots equal to the source. A tampered base is
// refused by the passive and the live inject alike, and neither registers
// anything.
func TestPassiveInject(t *testing.T) {
	tr := fixedTrace(8, 21, 6, 12)
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 3, RecordArrivals: true, SealEvery: 8}
	src := mustEngine(t, cfg)
	if _, err := src.ReplayTrace(tr, 1); err != nil {
		t.Fatal(err)
	}
	const id = "tenant-000"
	want, err := src.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := src.ExportTenant(id)
	if err != nil {
		t.Fatal(err)
	}
	if tc := tf.Tenants[0]; tc.BaseServed != 16 || len(tc.Arrivals) != 5 {
		t.Fatalf("export holds a base of %d arrivals and a tail of %d, want 16 and 5", tc.BaseServed, len(tc.Arrivals))
	}
	srcDoc, err := EncodeTransfer(tf)
	if err != nil {
		t.Fatal(err)
	}

	dst := mustEngine(t, cfg)
	if err := dst.InjectPassive(tf); err != nil {
		t.Fatal(err)
	}
	if got := dst.Metrics().PassiveTenants; got != 1 {
		t.Fatalf("%d passive tenants after a passive inject, want 1", got)
	}
	if tn, _ := dst.tenant(id); tn.alg != nil || len(tn.history) != 5 {
		t.Fatalf("passive inject built an instance (%v) or holds a tail of %d, want none and 5", tn.alg != nil, len(tn.history))
	}
	if n, err := dst.ServedCount(id); err != nil || n != 21 {
		t.Fatalf("served %d (err %v), want 21", n, err)
	}
	if n, err := dst.AdmittedCount(id); err != nil || n != 21 {
		t.Fatalf("admitted %d (err %v), want 21", n, err)
	}
	if n := dst.ServedTotal(); n != 5 {
		t.Errorf("served total %d, want the 5 tail arrivals", n)
	}
	again, err := dst.ExportTenant(id)
	if err != nil {
		t.Fatal(err)
	}
	if doc, err := EncodeTransfer(again); err != nil || !bytes.Equal(doc, srcDoc) {
		t.Fatalf("passive tenant's export differs from the source's (err %v)", err)
	}
	if got := dst.Metrics().PassiveTenants; got != 1 {
		t.Fatalf("export built the passive tenant: %d passive tenants, want 1", got)
	}
	got, err := dst.Snapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, []*TenantSnapshot{got}), marshalSnaps(t, []*TenantSnapshot{want})) {
		t.Error("snapshot of the passive inject differs from the source's")
	}
	if n := dst.Metrics().PassiveTenants; n != 0 {
		t.Errorf("%d passive tenants after a snapshot, want 0", n)
	}

	tampers := map[string]func(tc *TenantCheckpoint){
		"truncated base": func(tc *TenantCheckpoint) { tc.BaseState = tc.BaseState[:len(tc.BaseState)-1] },
		"construction":   func(tc *TenantCheckpoint) { tc.BaseConstruction++ },
		"base served":    func(tc *TenantCheckpoint) { tc.BaseServed++ },
	}
	for name, tamper := range tampers {
		bad := *tf
		bad.Tenants = []TenantCheckpoint{tf.Tenants[0]}
		tamper(&bad.Tenants[0])
		for _, passive := range []bool{true, false} {
			e := mustEngine(t, cfg)
			if err := e.inject(&bad, passive); err == nil {
				t.Errorf("%s: inject (passive %v) accepted a tampered base", name, passive)
			}
			if n, m := e.TenantCount(), e.Metrics().PassiveTenants; n != 0 || m != 0 {
				t.Errorf("%s: refused inject (passive %v) left %d tenants, %d passive", name, passive, n, m)
			}
		}
	}
}

// TestRestoreRoles: a version-3 document restores each record in its role.
// A passive record whose tail is below the seal bound comes back passive,
// its tail kept: with a base, it builds an instance only to check the base;
// without one, it builds none. A live record, and a passive one whose tail
// has reached the bound, come back live with the tail replayed. Built, the
// passive tenants snapshot like the source. The records cleared of their
// roles restore live, no version-2 document holds a passive record, and a
// role other than 0 and 1 is refused.
func TestRestoreRoles(t *testing.T) {
	tr := fixedTrace(61, 40, 5, 9)
	in := tr.Instance
	cfg := Config{Algorithm: "pd", Shards: 2, Seed: 4, RecordArrivals: true, SealEvery: 8}
	src := mustEngine(t, cfg)
	// "based" seals at 8 and keeps a tail of 5; "fresh" and "live" hold
	// tails of 5 and no base.
	served := map[string]int{"based": 13, "fresh": 5, "live": 5}
	next := 0
	for _, id := range []string{"based", "fresh", "live"} {
		if err := src.CreateTenant(id, in.Space, in.Costs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < served[id]; i++ {
			if err := src.Serve(id, in.Requests[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	ck, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := src.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	ck.Version = CheckpointVersionRoles
	ck.Tenants[0].Passive, ck.Tenants[1].Passive = true, true
	doc, err := ck.encode(flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(doc)
	bad[roleAt(ck)] = 2
	if _, err := decodeCheckpoint("roles", bad, nil); err == nil || !strings.Contains(err.Error(), "role 2") {
		t.Errorf("a record with role 2: err = %v", err)
	}
	if ck, err = decodeCheckpoint("roles", doc, nil); err != nil {
		t.Fatal(err)
	}
	if !ck.Tenants[0].Passive || !ck.Tenants[1].Passive || ck.Tenants[2].Passive {
		t.Fatalf("roles read back as %v, %v, %v", ck.Tenants[0].Passive, ck.Tenants[1].Passive, ck.Tenants[2].Passive)
	}

	// restore counts the instances built per tenant, told apart by their
	// name-derived seeds.
	names := map[int64]string{}
	for id := range served {
		names[workload.NamedSeed(cfg.Seed, id)] = id
	}
	restore := func(cfg Config, ck *Checkpoint) (*Engine, RestoreStats, map[string]int) {
		t.Helper()
		e := mustEngine(t, cfg)
		var mu sync.Mutex
		built := map[string]int{}
		newAlg := e.factory
		e.factory = func(space metric.Space, costs cost.Model, seed int64) algorithm {
			mu.Lock()
			built[names[seed]]++
			mu.Unlock()
			return newAlg(space, costs, seed)
		}
		stats, err := e.Restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		return e, stats, built
	}
	e, stats, built := restore(cfg, ck)
	if n := e.Metrics().PassiveTenants; n != 2 || stats.Replayed != 5 {
		t.Errorf("restored %d passive tenants and replayed %d arrivals, want 2 and 5", n, stats.Replayed)
	}
	if built["based"] != 1 || built["fresh"] != 0 || built["live"] != 1 {
		t.Errorf("restore built instances %v, want based 1 (its base check), fresh 0, live 1", built)
	}
	got, err := e.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshalSnaps(t, got), marshalSnaps(t, want)) {
		t.Error("passive records, built, snapshot differently from the source")
	}

	// A seal bound of 4 puts every tail of 5 past it.
	low := cfg
	low.SealEvery = 4
	if e, stats, _ := restore(low, ck); e.Metrics().PassiveTenants != 0 || stats.Replayed != 15 {
		t.Errorf("tails past the bound: %d passive tenants, %d replayed, want 0 and 15", e.Metrics().PassiveTenants, stats.Replayed)
	}

	v2 := *ck
	v2.Version = CheckpointVersion
	if _, err := v2.encode(flate.DefaultCompression); err == nil {
		t.Error("a version-2 document was written with a passive record")
	}
	v2.Tenants = slices.Clone(ck.Tenants)
	for i := range v2.Tenants {
		v2.Tenants[i].Passive = false
	}
	if e, stats, _ := restore(cfg, &v2); e.Metrics().PassiveTenants != 0 || stats.Replayed != 15 {
		t.Errorf("roles cleared: %d passive tenants, %d replayed, want 0 and 15", e.Metrics().PassiveTenants, stats.Replayed)
	}
}

// TestPassiveExtractCounts: extracting a passive tenant takes it out of
// the passive count, a failed extract puts it back, and a tenant built
// while extracted is not counted twice.
func TestPassiveExtractCounts(t *testing.T) {
	tr := fixedTrace(12, 4, 6, 12)
	e := mustEngine(t, Config{Algorithm: "pd", Shards: 1, Seed: 2, RecordArrivals: true})
	in := tr.Instance
	for _, id := range []string{"a", "b"} {
		if err := e.createTenant(id, in.Space, in.Costs, nil, true); err != nil {
			t.Fatal(err)
		}
		if err := e.Serve(id, in.Requests[0]); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Metrics().PassiveTenants; got != 2 {
		t.Fatalf("%d passive tenants, want 2", got)
	}
	tf, err := e.ExtractTenant("a")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().PassiveTenants; got != 1 {
		t.Fatalf("%d passive tenants after extracting one, want 1", got)
	}
	if err := e.InjectPassive(tf); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPassive(tf); err == nil {
		t.Fatal("second inject of one tenant accepted")
	}
	if got := e.Metrics().PassiveTenants; got != 2 {
		t.Fatalf("%d passive tenants after reinjecting, want 2", got)
	}
	if _, err := e.SnapshotAll(); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().PassiveTenants; got != 0 {
		t.Fatalf("%d passive tenants after SnapshotAll, want 0", got)
	}
}

// TestPassiveConcurrent: passive tenants spread over four shards go live
// on their shard goroutines — at the seal bound, in snapshots, in
// checkpoints — while other tenants keep admitting and Metrics reads the
// passive count. Every tenant ends byte-identical to a live engine's, and
// the count ends at zero. Run it under -race.
func TestPassiveConcurrent(t *testing.T) {
	const tenants, perTenant = 8, 120
	tr := fixedTrace(44, tenants*perTenant, 5, 10)
	in := tr.Instance
	cfg := Config{Algorithm: "pd", Shards: 4, Seed: 6, RecordArrivals: true, SealEvery: 16}
	var snaps [2][]byte
	for k, passive := range []bool{false, true} {
		e := mustEngine(t, cfg)
		for i := 0; i < tenants; i++ {
			if err := e.createTenant(fmt.Sprintf("t%d", i), in.Space, in.Costs, nil, passive); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if m := e.Metrics(); m.PassiveTenants < 0 || m.PassiveTenants > tenants {
					t.Errorf("passive count %d outside [0, %d]", m.PassiveTenants, tenants)
				}
				if _, err := e.Checkpoint(); err != nil {
					t.Error(err)
				}
				if _, err := e.SnapshotCompact("t0"); err != nil {
					t.Error(err)
				}
			}
		}()
		var writers sync.WaitGroup
		for i := 0; i < tenants; i++ {
			writers.Add(1)
			go func(i int) {
				defer writers.Done()
				id := fmt.Sprintf("t%d", i)
				for j := i; j < len(in.Requests); j += tenants {
					if err := e.Serve(id, in.Requests[j]); err != nil {
						t.Error(err)
						return
					}
				}
			}(i)
		}
		writers.Wait()
		close(done)
		readers.Wait()
		all, err := e.SnapshotAll()
		if err != nil {
			t.Fatal(err)
		}
		snaps[k] = marshalSnaps(t, all)
		if n := e.Metrics().PassiveTenants; n != 0 {
			t.Errorf("passive count %d after SnapshotAll, want 0", n)
		}
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("passive tenants built under concurrent load differ from live ones")
	}
}

// deepStream is a `deep`-shaped PD tenant's create op and its first n
// arrivals: |S| = 32, 200 points in the unit square, f(k) = 1.5·k^0.6, 1–4
// Zipf-popular commodities per arrival.
func deepStream(n int) (Op, []Op) {
	const u, points = 32, 200
	rng := rand.New(rand.NewSource(1))
	xs, ys := make([]float64, points), make([]float64, points)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	d := make([][]float64, points)
	for i := range d {
		d[i] = make([]float64, points)
		for j := range d[i] {
			d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	bySize := make([]float64, u+1)
	for k := 1; k <= u; k++ {
		bySize[k] = 1.5 * math.Pow(float64(k), 0.6)
	}
	create := Op{Op: "create", Tenant: "deep", Universe: u, Distances: d, CostBySize: bySize}
	zipf := rand.NewZipf(rng, 1.2, 1, u-1)
	ops := make([]Op, n)
	for i := range ops {
		var ids []int
		for k := 1 + rng.Intn(4); len(ids) < k; {
			if c := int(zipf.Uint64()); !slices.Contains(ids, c) {
				ids = append(ids, c)
			}
		}
		ops[i] = Op{Op: "arrive", Tenant: "deep", Point: rng.Intn(points), Demands: ids}
	}
	return create, ops
}

// deepBenchConfig is the recording engine the passive benchmarks run on:
// one shard, SealEvery at its default of 4096.
var deepBenchConfig = Config{Algorithm: "pd", Shards: 1, Seed: 1, RecordArrivals: true}

// deepExport serves a deep-shaped tenant's first n arrivals and exports it.
func deepExport(b *testing.B, create Op, ops []Op) *TenantTransfer {
	b.Helper()
	src := New(deepBenchConfig)
	defer src.Close()
	if err := src.Apply(create); err != nil {
		b.Fatal(err)
	}
	for _, op := range ops {
		if err := src.Apply(op); err != nil {
			b.Fatal(err)
		}
	}
	tf, err := src.ExportTenant("deep")
	if err != nil {
		b.Fatal(err)
	}
	return tf
}

// BenchmarkPassivePromotion measures what a passive follower trades: a
// deepStream tenant with a 65,536-arrival base and a 4,095-arrival tail,
// the longest tail SealEvery 4096 leaves, is injected live and passive. It
// reports inject_ms and the first compact snapshot's first_snapshot_ms:
// the live inject serves the tail at once, the passive one at its first
// snapshot, which is what a promoted passive follower's first state read
// pays.
func BenchmarkPassivePromotion(b *testing.B) {
	create, ops := deepStream(16*4096 + 4095)
	tf := deepExport(b, create, ops)
	if tc := tf.Tenants[0]; tc.BaseServed != 16*4096 || len(tc.Arrivals) != 4095 {
		b.Fatalf("export holds a base of %d arrivals and a tail of %d", tc.BaseServed, len(tc.Arrivals))
	}
	for _, passive := range []bool{false, true} {
		name := "live"
		if passive {
			name = "passive"
		}
		b.Run(name, func(b *testing.B) {
			var injectNs, snapNs time.Duration
			for i := 0; i < b.N; i++ {
				e := New(deepBenchConfig)
				runtime.GC()
				start := time.Now()
				if err := e.inject(tf, passive); err != nil {
					b.Fatal(err)
				}
				injectNs += time.Since(start)
				runtime.GC()
				start = time.Now()
				if _, err := e.SnapshotCompact("deep"); err != nil {
					b.Fatal(err)
				}
				snapNs += time.Since(start)
				e.Close()
			}
			b.ReportMetric(float64(injectNs.Microseconds())/1e3/float64(b.N), "inject_ms")
			b.ReportMetric(float64(snapNs.Microseconds())/1e3/float64(b.N), "first_snapshot_ms")
		})
	}
}

// BenchmarkPassiveBound measures the stall a passive copy puts on its
// shard goroutine when its tail reaches the seal bound: a deepStream
// tenant holds a 4,095-arrival tail, and bound_arrival_ms times the
// arrival that makes it 4,096, from Serve to Drain. A live tenant serves
// that arrival and seals; a passive one goes live first, serving all 4,096
// arrivals, then seals. Every other tenant on the shard waits behind it.
// "created" starts the tenant at genesis (a new follower's first 4,096
// arrivals); "injected" starts it from a 65,536-arrival base (a reseeded
// follower), so going live also loads the base.
func BenchmarkPassiveBound(b *testing.B) {
	const base = 16 * 4096
	create, ops := deepStream(base + 4096)
	tf := deepExport(b, create, ops[:base+4095])
	for _, start := range []string{"created", "injected"} {
		for _, passive := range []bool{false, true} {
			name := start + "/live"
			if passive {
				name = start + "/passive"
			}
			tail, bound := ops[:4095], ops[4095]
			if start == "injected" {
				bound = ops[base+4095]
			}
			b.Run(name, func(b *testing.B) {
				var boundNs time.Duration
				for i := 0; i < b.N; i++ {
					e := New(deepBenchConfig)
					if start == "created" {
						c := create
						c.Passive = passive
						if err := e.Apply(c); err != nil {
							b.Fatal(err)
						}
						for _, op := range tail {
							if err := e.Apply(op); err != nil {
								b.Fatal(err)
							}
						}
					} else if err := e.inject(tf, passive); err != nil {
						b.Fatal(err)
					}
					e.Drain()
					runtime.GC()
					t0 := time.Now()
					if err := e.Apply(bound); err != nil {
						b.Fatal(err)
					}
					e.Drain()
					boundNs += time.Since(t0)
					if m := e.Metrics(); m.PassiveTenants != 0 {
						b.Fatalf("%d passive tenants after the bound arrival, want 0", m.PassiveTenants)
					}
					e.Close()
				}
				b.ReportMetric(float64(boundNs.Microseconds())/1e3/float64(b.N), "bound_arrival_ms")
			})
		}
	}
}
