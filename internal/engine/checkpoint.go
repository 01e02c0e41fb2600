package engine

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

// Checkpoint format versions. Version 1 recorded every tenant's full arrival
// history and restored by replaying all of it — O(history) work and
// unbounded growth. Version 2 (the format Checkpoint now writes) records,
// per tenant, a base snapshot of the algorithm's serialized state plus only
// the arrival-log segment served since that base, so Restore loads the state
// and replays O(segment) arrivals. Version 1 checkpoints remain readable:
// Restore treats them as an empty base with the full history as the tail.
const (
	CheckpointVersionV1 = 1
	CheckpointVersion   = 2
)

// Checkpoint is a durable, self-contained record of an engine's state: for
// every tenant, the substrate it was created on (matrix metric + size cost
// table, the same serializable shape as the op protocol and gentrace files),
// an optional base state snapshot, and the arrival segment served since the
// base. Tenant algorithm seeds derive from the engine seed and the tenant
// name — never from timing or shard layout — so re-creating each tenant,
// loading its base state and replaying its tail reproduces its state
// byte-for-byte: snapshot(before crash) == snapshot(restore + replay).
type Checkpoint struct {
	Version   int    `json:"version"`
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	// Compression flags how tenant base states are stored: "" for the raw
	// state bytes in base_state, CompressionFlate for flate-compressed
	// bytes in base_state_z (both base64 in the JSON document). WriteFile
	// compresses; ReadCheckpointFile and Restore transparently decompress,
	// so uncompressed v2 (and v1) checkpoints remain restorable.
	Compression string             `json:"compression,omitempty"`
	Tenants     []TenantCheckpoint `json:"tenants"`
}

// CompressionFlate marks base states stored flate-compressed (RFC 1951) in
// the base_state_z field. The base states are the bulk of a v2 checkpoint —
// PD's per-request duals and credit ledgers, whose indices and repeated
// values compress well even in the binary state layout — so compressing
// just them shrinks the document while the arrival tails stay greppable.
const CompressionFlate = "flate"

// TenantCheckpoint is one tenant's restorable record.
type TenantCheckpoint struct {
	Tenant string `json:"tenant"`
	TenantOrigin

	// BaseState is the tenant algorithm's serialized state at BaseServed
	// arrivals (online.StateCodec), with the cost accounting frozen at
	// that moment: opaque bytes whose layout the algorithm owns. Absent
	// (v1 checkpoints, or never-sealed v2 tenants) the tenant restores
	// from genesis.
	BaseState []byte `json:"base_state,omitempty"`
	// BaseStateZ is BaseState flate-compressed (checkpoints with the
	// Compression header set); exactly one of the two is present.
	BaseStateZ       []byte  `json:"base_state_z,omitempty"`
	BaseServed       int     `json:"base_served,omitempty"`
	BaseConstruction float64 `json:"base_construction,omitempty"`
	BaseAssignment   float64 `json:"base_assignment,omitempty"`

	// Arrivals is the append-only arrival-log segment since the base
	// (v1: the full history). Restore replays exactly these.
	Arrivals []ArrivalRecord `json:"arrivals"`
}

// TenantOrigin is the serializable description of a tenant's substrate.
type TenantOrigin struct {
	Universe   int         `json:"universe"`
	Distances  [][]float64 `json:"distances"`
	CostBySize []float64   `json:"cost_by_size"`
}

// ArrivalRecord is one served arrival.
type ArrivalRecord struct {
	Point   int   `json:"point"`
	Demands []int `json:"demands"`
}

// Arrivals returns the total arrival count the checkpoint represents:
// arrivals folded into base states plus tail segments.
func (ck *Checkpoint) Arrivals() int {
	n := 0
	for i := range ck.Tenants {
		n += ck.Tenants[i].BaseServed + len(ck.Tenants[i].Arrivals)
	}
	return n
}

// TailArrivals returns the arrival count in the tail segments only — the
// number of arrivals a restore of this checkpoint will replay.
func (ck *Checkpoint) TailArrivals() int {
	n := 0
	for i := range ck.Tenants {
		n += len(ck.Tenants[i].Arrivals)
	}
	return n
}

// checkpointOrigin returns the tenant's serializable origin, synthesizing
// (and caching) one from its space and cost model when the tenant was
// created through the API rather than the op protocol. Must run on the
// tenant's shard goroutine. Synthesis materializes the distance matrix and
// samples the cost model into a by-size table; like workload.WriteJSON it
// fails on cost models that are detectably non-uniform across points, which
// a size table cannot represent.
func (t *tenant) checkpointOrigin() (*TenantOrigin, error) {
	if t.origin != nil {
		return t.origin, nil
	}
	n := t.space.Len()
	u := t.costs.Universe()
	o := &TenantOrigin{
		Universe:   u,
		Distances:  make([][]float64, n),
		CostBySize: make([]float64, u+1),
	}
	for i := 0; i < n; i++ {
		o.Distances[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			o.Distances[i][j] = t.space.Distance(i, j)
		}
	}
	for k := 1; k <= u; k++ {
		cfg := commodity.Full(k)
		c0 := t.costs.Cost(0, cfg)
		for m := 1; m < n; m++ {
			if t.costs.Cost(m, cfg) != c0 { //omflp:floatexact — uniformity probe: any bitwise difference must reject the export
				return nil, fmt.Errorf("engine: tenant %q: cost model %q is non-uniform across points; not checkpointable",
					t.id, t.costs.Name())
			}
		}
		o.CostBySize[k] = c0
	}
	t.origin = o
	return o, nil
}

// checkpointV2 builds the tenant's v2 record; shard goroutine only. A
// non-recording tenant is sealed on every capture (base = now, empty tail);
// a recording tenant re-bases only when its tail reached SealEvery (the
// serve path normally keeps that invariant already) and otherwise reuses the
// cached base bytes.
func (t *tenant) checkpointV2() (TenantCheckpoint, error) {
	o, err := t.checkpointOrigin()
	if err != nil {
		return TenantCheckpoint{}, err
	}
	if !t.record {
		if err := t.seal(); err != nil {
			return TenantCheckpoint{}, fmt.Errorf("%v (enable Config.RecordArrivals to checkpoint by arrival replay)", err)
		}
	} else if t.sealEvery > 0 && !t.sealBroken && len(t.history) >= t.sealEvery {
		if t.seal() != nil {
			t.sealBroken = true // fall back to the full tail below
		}
	}
	tc := TenantCheckpoint{
		Tenant:           t.id,
		TenantOrigin:     *o,
		BaseState:        t.baseState,
		BaseServed:       t.baseServed,
		BaseConstruction: t.baseConstruction,
		BaseAssignment:   t.baseAssignment,
		Arrivals:         make([]ArrivalRecord, len(t.history)),
	}
	for i, r := range t.history {
		tc.Arrivals[i] = ArrivalRecord{Point: r.Point, Demands: r.Demands.IDs()}
	}
	return tc, nil
}

// checkpointV1 builds the tenant's legacy v1 record: the full arrival
// history, no base. It errors once any arrivals have been folded into a
// base (the history is then no longer complete). Shard goroutine only.
func (t *tenant) checkpointV1() (TenantCheckpoint, error) {
	if !t.record {
		return TenantCheckpoint{}, fmt.Errorf("engine: tenant %q: v1 checkpoints require Config.RecordArrivals", t.id)
	}
	if t.baseServed > 0 {
		return TenantCheckpoint{}, fmt.Errorf("engine: tenant %q: %d arrivals already sealed into a base state; v1 checkpoint impossible (set Config.SealEvery < 0 to disable sealing)",
			t.id, t.baseServed)
	}
	o, err := t.checkpointOrigin()
	if err != nil {
		return TenantCheckpoint{}, err
	}
	tc := TenantCheckpoint{
		Tenant:       t.id,
		TenantOrigin: *o,
		Arrivals:     make([]ArrivalRecord, len(t.history)),
	}
	for i, r := range t.history {
		tc.Arrivals[i] = ArrivalRecord{Point: r.Point, Demands: r.Demands.IDs()}
	}
	return tc, nil
}

// Checkpoint captures a consistent engine checkpoint in format v2: every
// tenant's record is taken on its shard goroutine, serialized with its
// arrival stream, so each record is a consistent cut covering everything
// admitted for the tenant before the call. Tenants are sorted by name,
// making the artifact deterministic.
//
// With Config.RecordArrivals the capture is cheap — cached base bytes plus
// the bounded arrival tail. Without it, every tenant's algorithm state is
// marshaled afresh on every call, which requires the algorithm to implement
// online.StateCodec (both built-in algorithms do); tenants whose substrate
// cannot be serialized error in either mode.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	return e.capture(CheckpointVersion, (*tenant).checkpointV2)
}

// CheckpointV1 captures a checkpoint in the legacy v1 format (full arrival
// history, no base states) — for migration tests and format benchmarks. It
// requires Config.RecordArrivals and fails once any tenant has sealed part
// of its history into a base (disable sealing with Config.SealEvery < 0).
func (e *Engine) CheckpointV1() (*Checkpoint, error) {
	if !e.cfg.RecordArrivals {
		return nil, fmt.Errorf("engine: CheckpointV1 requires Config.RecordArrivals")
	}
	return e.capture(CheckpointVersionV1, (*tenant).checkpointV1)
}

func (e *Engine) capture(version int, record func(*tenant) (TenantCheckpoint, error)) (*Checkpoint, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	tns := make([]*tenant, 0, len(e.tenants))
	for _, t := range e.tenants { //omflp:orderinvariant — collected tenants are sorted by their unique id on the next line
		tns = append(tns, t)
	}
	e.mu.Unlock()
	sort.Slice(tns, func(i, j int) bool { return tns[i].id < tns[j].id })

	byShard := map[*shard][]*tenant{}
	for _, t := range tns {
		byShard[t.shard] = append(byShard[t.shard], t)
	}
	records := make(map[string]TenantCheckpoint, len(tns))
	var rmu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for s, group := range byShard { //omflp:orderinvariant — shards run concurrently and merge into a tenant-id-keyed map; iteration order is immaterial
		wg.Add(1)
		go func(s *shard, group []*tenant) {
			defer wg.Done()
			s.control(func() {
				for _, t := range group {
					tc, err := record(t)
					rmu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					records[t.id] = tc
					rmu.Unlock()
				}
			})
		}(s, group)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	ck := &Checkpoint{
		Version:   version,
		Algorithm: e.cfg.algoName(),
		Seed:      e.cfg.Seed,
		Tenants:   make([]TenantCheckpoint, len(tns)),
	}
	for i, t := range tns {
		ck.Tenants[i] = records[t.id]
	}
	return ck, nil
}

// RestoreStats reports what a Restore did: how many tenants were rebuilt,
// the total arrivals the checkpoint represents, how many of those were
// actually replayed through the serve path (the tail segments — the rest
// were loaded as serialized state), and the base-state volume loaded.
type RestoreStats struct {
	Tenants     int   `json:"tenants"`
	Arrivals    int   `json:"arrivals"`
	Replayed    int   `json:"replayed"`
	BasesLoaded int   `json:"bases_loaded"`
	StateBytes  int64 `json:"state_bytes"`
}

// Restore rebuilds the checkpointed tenants on the engine: each tenant is
// re-created on its serialized substrate, its base state (if any) is loaded
// through online.StateCodec, and only the tail segment is replayed through
// the normal serve path — O(segment) serve work per tenant, not O(history).
// The engine's algorithm and seed must match the checkpoint's — restoring
// under different ones would silently change every tenant's decisions — and
// none of the checkpointed tenants may already exist. Restore returns once
// all tail arrivals are admitted; snapshots (which serialize behind the
// replay on each shard) see the restored state.
func (e *Engine) Restore(ck *Checkpoint) (RestoreStats, error) {
	var stats RestoreStats
	switch ck.Version {
	case CheckpointVersionV1, CheckpointVersion:
	default:
		return stats, fmt.Errorf("engine: checkpoint version %d, want %d or %d",
			ck.Version, CheckpointVersionV1, CheckpointVersion)
	}
	// Normalize compressed base states so callers may hand Restore a raw
	// unmarshaled artifact without going through ReadCheckpointFile; the
	// caller's document is left untouched.
	ck, err := ck.decompressed()
	if err != nil {
		return stats, err
	}
	if got, want := e.cfg.algoName(), ck.Algorithm; got != want {
		return stats, fmt.Errorf("engine: checkpoint was taken with algorithm %q, engine runs %q", want, got)
	}
	if e.cfg.Seed != ck.Seed {
		return stats, fmt.Errorf("engine: checkpoint was taken with seed %d, engine runs seed %d", ck.Seed, e.cfg.Seed)
	}
	for i := range ck.Tenants {
		tc := &ck.Tenants[i]
		baseLoaded, err := e.restoreTenant(tc)
		if err != nil {
			return stats, err
		}
		if baseLoaded {
			stats.BasesLoaded++
			stats.StateBytes += int64(len(tc.BaseState))
		}
		stats.Tenants++
		stats.Arrivals += tc.BaseServed + len(tc.Arrivals)
		stats.Replayed += len(tc.Arrivals)
	}
	return stats, nil
}

// restoreTenant rebuilds one checkpointed tenant on the engine: it is
// re-created on its serialized substrate, its base state (if any) is loaded
// through online.StateCodec, and the tail segment is replayed through the
// normal serve path. Shared by Restore and InjectTenant — the mechanism that
// makes kill -9 safe is the same one that makes tenants movable while live.
// It returns whether a base state was loaded; replayed arrivals are admitted
// but not necessarily served on return.
func (e *Engine) restoreTenant(tc *TenantCheckpoint) (baseLoaded bool, err error) {
	if len(tc.CostBySize) != tc.Universe+1 {
		return false, fmt.Errorf("engine: restore %q: cost table has %d entries for universe %d",
			tc.Tenant, len(tc.CostBySize), tc.Universe)
	}
	table, err := cost.NewTable(tc.CostBySize)
	if err != nil {
		return false, fmt.Errorf("engine: restore %q: %v", tc.Tenant, err)
	}
	if err := metric.CheckMatrix(tc.Distances); err != nil {
		return false, fmt.Errorf("engine: restore %q: %v", tc.Tenant, err)
	}
	origin := tc.TenantOrigin
	if err := e.createTenant(tc.Tenant, metric.NewMatrix(tc.Distances), table, &origin); err != nil {
		return false, err
	}
	if len(tc.BaseState) > 0 {
		if err := e.loadBase(tc); err != nil {
			return false, fmt.Errorf("engine: restore %q: %v", tc.Tenant, err)
		}
		baseLoaded = true
	}
	for _, a := range tc.Arrivals {
		err := e.Serve(tc.Tenant, instance.Request{Point: a.Point, Demands: commodity.New(a.Demands...)})
		if err != nil {
			return baseLoaded, fmt.Errorf("engine: restore %q: %v", tc.Tenant, err)
		}
	}
	return baseLoaded, nil
}

// loadBase installs a checkpointed base state into a freshly created tenant:
// the algorithm state is unmarshaled and the serve counters are set to their
// sealed values, all on the shard goroutine so it serializes before any
// replayed arrivals.
func (e *Engine) loadBase(tc *TenantCheckpoint) error {
	e.mu.Lock()
	t := e.tenants[tc.Tenant]
	e.mu.Unlock()
	var rerr error
	t.shard.control(func() {
		sc, ok := t.alg.(online.StateCodec)
		if !ok {
			rerr = fmt.Errorf("checkpoint has a base state but algorithm %q cannot load one", t.alg.Name())
			return
		}
		if err := sc.UnmarshalState(tc.BaseState); err != nil {
			rerr = err
			return
		}
		t.served = tc.BaseServed
		t.admitted.Store(int64(tc.BaseServed))
		t.construction = tc.BaseConstruction
		t.assignment = tc.BaseAssignment
		t.facCursor = len(t.alg.Solution().Facilities)
		t.baseState = tc.BaseState
		t.baseServed = tc.BaseServed
		t.baseConstruction = tc.BaseConstruction
		t.baseAssignment = tc.BaseAssignment
	})
	return rerr
}

// Compressed returns a copy of the checkpoint with every tenant base state
// flate-compressed into BaseStateZ and the Compression header set. Tenant
// records without a base state (v1 checkpoints, never-sealed tenants) pass
// through unchanged; an already-compressed checkpoint is returned as is.
// The copy shares the arrival segments and origins with the receiver.
func (ck *Checkpoint) Compressed() (*Checkpoint, error) {
	if ck.Compression == CompressionFlate {
		return ck, nil
	}
	if ck.Compression != "" {
		return nil, fmt.Errorf("engine: checkpoint has unknown compression %q", ck.Compression)
	}
	out := *ck
	out.Compression = CompressionFlate
	out.Tenants = make([]TenantCheckpoint, len(ck.Tenants))
	for i, tc := range ck.Tenants {
		if len(tc.BaseState) > 0 {
			z, err := deflate(tc.BaseState)
			if err != nil {
				return nil, fmt.Errorf("engine: compress %q base state: %v", tc.Tenant, err)
			}
			tc.BaseStateZ, tc.BaseState = z, nil
		}
		out.Tenants[i] = tc
	}
	return &out, nil
}

// Decompress normalizes the checkpoint in place: compressed base states are
// inflated back into BaseState and the Compression header cleared, so every
// consumer downstream sees raw state bytes regardless of how the artifact
// was encoded. Uncompressed checkpoints are left untouched.
func (ck *Checkpoint) Decompress() error {
	out, err := ck.decompressed()
	if err != nil {
		return err
	}
	if out != ck {
		*ck = *out
	}
	return nil
}

// decompressed is the non-mutating form of Decompress: it returns the
// receiver itself when already uncompressed, otherwise a normalized copy
// with every base state inflated (sharing arrival segments and origins).
// Restore goes through it so a caller's compressed document — possibly
// shared across engines — is never written to.
func (ck *Checkpoint) decompressed() (*Checkpoint, error) {
	switch ck.Compression {
	case "":
		return ck, nil
	case CompressionFlate:
	default:
		return nil, fmt.Errorf("engine: checkpoint has unknown compression %q", ck.Compression)
	}
	out := *ck
	out.Compression = ""
	out.Tenants = make([]TenantCheckpoint, len(ck.Tenants))
	for i, tc := range ck.Tenants {
		if len(tc.BaseStateZ) > 0 {
			data, err := inflate(tc.BaseStateZ)
			if err != nil {
				return nil, fmt.Errorf("engine: decompress %q base state: %v", tc.Tenant, err)
			}
			tc.BaseState, tc.BaseStateZ = data, nil
		}
		out.Tenants[i] = tc
	}
	return &out, nil
}

func deflate(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func inflate(z []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(z))
	defer r.Close()
	return io.ReadAll(r)
}

// WriteFile writes the checkpoint to path atomically: the JSON document goes
// to a temporary file in the same directory, is synced, and is renamed over
// path — a crash mid-write never corrupts the previous checkpoint. Base
// states are flate-compressed on the way out (flagged in the header; see
// Compressed). It returns the encoded size in bytes.
func (ck *Checkpoint) WriteFile(path string) (int, error) {
	zck, err := ck.Compressed()
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(zck)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	return len(data), os.Rename(tmp.Name(), path)
}

// ReadCheckpointFile reads a checkpoint written by WriteFile (either format
// version, compressed or not) and returns it in normalized, decompressed
// form.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Value == "object" && strings.HasSuffix(te.Field, "base_state") {
			return nil, fmt.Errorf("engine: checkpoint %s: a tenant base_state is an inline JSON object, the schema-1 JSON state layout this build no longer reads (only v1 arrival-history checkpoints of that build still restore)", path)
		}
		return nil, fmt.Errorf("engine: checkpoint %s: %v", path, err)
	}
	if err := ck.Decompress(); err != nil {
		return nil, fmt.Errorf("engine: checkpoint %s: %v", path, err)
	}
	return &ck, nil
}
