package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestCkptBenchSmall drives the checkpoint benchmark end to end at small
// history lengths: the artifact must be written, the gate must pass (v2
// replays ≤ seal-every arrivals at every length while v1 replays
// everything), and the recorded replay counts must encode exactly that.
func TestCkptBenchSmall(t *testing.T) {
	dir := t.TempDir()
	// Silence the stdout JSON: the command writes the same doc to -out.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	err = run([]string{"ckpt-bench", "-histories", "150,600", "-seal-every", "40",
		"-algos", "pd,rand", "-points", "10", "-universe", "4", "-out", dir, "-quiet"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatalf("ckpt-bench failed: %v", err)
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc ckptBenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.GatePass {
		t.Fatalf("gate failed: %+v", doc.Algos)
	}
	for algo, res := range doc.Algos {
		if len(res.Histories) != 2 {
			t.Fatalf("%s: %d history rows, want 2", algo, len(res.Histories))
		}
		for _, row := range res.Histories {
			if row.V1.Replayed != row.Arrivals {
				t.Errorf("%s n=%d: v1 replayed %d, want the full history", algo, row.Arrivals, row.V1.Replayed)
			}
			if row.V2.Replayed > doc.SealEvery {
				t.Errorf("%s n=%d: v2 replayed %d > seal-every %d", algo, row.Arrivals, row.V2.Replayed, doc.SealEvery)
			}
			if row.V1.Bytes == 0 || row.V2.Bytes == 0 {
				t.Errorf("%s n=%d: zero checkpoint bytes recorded", algo, row.Arrivals)
			}
			if row.V1.RestorePasses != ckptBenchRestores || row.V2.RestorePasses != ckptBenchRestores {
				t.Errorf("%s n=%d: restore passes v1 %d, v2 %d, want %d each",
					algo, row.Arrivals, row.V1.RestorePasses, row.V2.RestorePasses, ckptBenchRestores)
			}
		}
	}
}

// TestCkptBenchBadFlags: malformed inputs must error before any engine work.
func TestCkptBenchBadFlags(t *testing.T) {
	if err := run([]string{"ckpt-bench", "-histories", "abc"}); err == nil {
		t.Error("bad -histories accepted")
	}
	if err := run([]string{"ckpt-bench", "-seal-every", "0"}); err == nil {
		t.Error("-seal-every 0 accepted")
	}
}

// TestCkptInspect: ckpt-inspect prints a checkpoint document's header and
// per-tenant sizes as JSON, agreeing with the checkpoint that was written.
// A passive record reads "passive": true, in a version-3 document, and a
// live record has no "passive" key.
func TestCkptInspect(t *testing.T) {
	e := engine.New(engine.Config{Algorithm: "pd", Shards: 2, Seed: 3, RecordArrivals: true, SealEvery: 5})
	defer e.Close()
	f, err := os.Open(smokeTrace)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ReadJSON(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ReplayTrace(tr, 3); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "engine.ckpt")
	n, err := ck.WriteFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var info engine.CheckpointInfo
	if err := json.Unmarshal(captureStdout(t, func() error { return run([]string{"ckpt-inspect", path}) }), &info); err != nil {
		t.Fatal(err)
	}
	if info.Version != engine.CheckpointVersion || info.Algorithm != "pd" || info.Seed != 3 ||
		info.Bytes != n || len(info.Tenants) != 3 {
		t.Fatalf("inspect header %+v", info)
	}
	for i, ti := range info.Tenants {
		tc := ck.Tenants[i]
		if ti.Tenant != tc.Tenant || ti.BaseServed != tc.BaseServed || ti.BaseBytes != len(tc.BaseState) ||
			ti.BaseBytesZ == 0 || ti.BaseBytesZ >= ti.BaseBytes || ti.Tail != len(tc.Arrivals) || ti.Tail >= 5 {
			t.Errorf("inspect tenant %+v, checkpoint has %s: %d served, %d state bytes, %d tail",
				ti, tc.Tenant, tc.BaseServed, len(tc.BaseState), len(tc.Arrivals))
		}
	}
	for _, ti := range info.Tenants {
		if ti.Passive {
			t.Errorf("inspect tenant %+v is passive in a document without passive records", ti)
		}
	}

	// Take tenant-001 out and put it back as a passive copy.
	tf, err := e.ExtractTenant("tenant-001")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectPassive(tf); err != nil {
		t.Fatal(err)
	}
	if ck, err = e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := ck.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return run([]string{"ckpt-inspect", path}) })
	var roles struct {
		Version int                          `json:"version"`
		Tenants []map[string]json.RawMessage `json:"tenants"`
	}
	if err := json.Unmarshal(out, &roles); err != nil {
		t.Fatal(err)
	}
	if roles.Version != engine.CheckpointVersionRoles || len(roles.Tenants) != 3 {
		t.Fatalf("inspect of a document with a passive record: version %d, %d tenants", roles.Version, len(roles.Tenants))
	}
	for _, ti := range roles.Tenants {
		passive, ok := ti["passive"]
		if name := string(ti["tenant"]); name == `"tenant-001"` {
			if string(passive) != "true" {
				t.Errorf("inspect tenant %s: passive %s, want true", name, passive)
			}
		} else if ok {
			t.Errorf("inspect tenant %s: a live record carries passive %s", name, passive)
		}
	}

	if err := run([]string{"ckpt-inspect"}); err == nil {
		t.Error("ckpt-inspect without a file succeeded")
	}
	if err := run([]string{"ckpt-inspect", filepath.Join("testdata", "serve_smoke_trace.json")}); err == nil {
		t.Error("ckpt-inspect of a JSON file succeeded")
	}
}
