package engine

import (
	"fmt"
	"math"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/workload"
)

// CheckpointVersion is the version of a checkpoint document whose every
// record is live. It records, per tenant, a base snapshot of the
// algorithm's serialized state plus only the arrival-log segment served
// since that base, so Restore loads the state and replays O(segment)
// arrivals; a never-sealed tenant's record is its full history.
// CheckpointVersionRoles is the same document with each record's role,
// live or passive, after its name. Checkpoint stamps it only when some
// record is passive, so the document of an engine without passive tenants
// is the version-2 document byte for byte. Restore reads both; a version-2
// record restores live.
const (
	CheckpointVersion      = 2
	CheckpointVersionRoles = 3
)

// Checkpoint is a durable, self-contained record of an engine's state: for
// every tenant, the substrate it was created on (matrix metric + size cost
// table, the same serializable shape as the op protocol and gentrace files),
// an optional base state snapshot, and the arrival segment served since the
// base. Tenant algorithm seeds derive from the engine seed and the tenant
// name — never from timing or shard layout — so re-creating each tenant,
// loading its base state and replaying its tail reproduces its state
// byte-for-byte: snapshot(before crash) == snapshot(restore + replay).
// WriteFile and ReadCheckpointFile store it as one binary document
// (ckptfile.go).
type Checkpoint struct {
	Version   int                `json:"version"`
	Algorithm string             `json:"algorithm"`
	Seed      int64              `json:"seed"`
	Tenants   []TenantCheckpoint `json:"tenants"`
}

// TenantCheckpoint is one tenant's restorable record.
type TenantCheckpoint struct {
	Tenant string `json:"tenant"`
	TenantOrigin

	// BaseState is the tenant algorithm's serialized state at BaseServed
	// arrivals (online.StateCodec), with the cost accounting frozen at
	// that moment: opaque bytes whose layout the algorithm owns. Absent
	// (a never-sealed tenant) the tenant restores from genesis.
	BaseState []byte `json:"base_state,omitempty"`
	// BaseServed, BaseConstruction and BaseAssignment are the serve
	// counters frozen with the base state. Restore checks them against the
	// decoded state: the served count against its assignments, the
	// construction cost against its facilities priced through the cost
	// table in opening order.
	BaseServed       int     `json:"base_served,omitempty"`
	BaseConstruction float64 `json:"base_construction,omitempty"`
	BaseAssignment   float64 `json:"base_assignment,omitempty"`

	// Arrivals is the append-only arrival-log segment since the base (with
	// no base, the full history). Restore replays exactly these, unless the
	// record is passive.
	Arrivals []ArrivalRecord `json:"arrivals"`

	// Passive marks a tenant captured without an algorithm instance (a
	// follower copy; CheckpointVersionRoles only). Restore registers it
	// passive, keeping its tail instead of serving it, while the tail is
	// below its seal bound.
	Passive bool `json:"passive,omitempty"`
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

// checkpointRecord builds the tenant's record; shard goroutine only. A
// non-recording tenant is sealed on every capture (base = now, empty tail),
// a passive one going live first; a recording tenant re-bases only when its
// tail reached SealEvery (the serve path normally keeps that invariant
// already) and otherwise reuses the cached base bytes, so a passive one is
// captured as its base and tail stand, and its record says so.
func (t *tenant) checkpointRecord() (TenantCheckpoint, error) {
	o, err := t.checkpointOrigin()
	if err != nil {
		return TenantCheckpoint{}, err
	}
	if !t.record {
		if t.alg == nil {
			t.goLive()
		}
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
		Arrivals:         t.tailRecords(),
		Passive:          t.alg == nil,
	}
	return tc, nil
}

// tailRecords returns the arrival tail as records whose demand lists are
// cut, capacity-capped, from one buffer, as ReadCheckpointFile cuts them.
// Shard goroutine only.
func (t *tenant) tailRecords() []ArrivalRecord {
	ids := 0
	for _, r := range t.history {
		ids += r.Demands.Len()
	}
	flat := make([]int, 0, ids)
	recs := make([]ArrivalRecord, len(t.history))
	for i, r := range t.history {
		at := len(flat)
		r.Demands.ForEach(func(id int) { flat = append(flat, id) })
		recs[i] = ArrivalRecord{Point: r.Point, Demands: flat[at:len(flat):len(flat)]}
	}
	return recs
}

// Checkpoint captures a consistent engine checkpoint: every tenant's
// record is taken on its shard goroutine, serialized with its arrival
// stream, so each record is a consistent cut covering everything admitted
// for the tenant before the call. Tenants are sorted by name, making the
// artifact deterministic. The document is CheckpointVersionRoles when some
// record is passive and CheckpointVersion otherwise.
//
// With Config.RecordArrivals the capture is cheap — cached base bytes plus
// the bounded arrival tail. Without it, every tenant's algorithm state is
// marshaled afresh on every call. Tenants whose substrate cannot be
// serialized error in either mode.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	tns, err := e.sortedTenants()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{
		Version:   CheckpointVersion,
		Algorithm: e.cfg.algoName(),
		Seed:      e.cfg.Seed,
		Tenants:   make([]TenantCheckpoint, len(tns)),
	}
	errs := make([]error, len(tns))
	onShards(tns, func(i int, t *tenant) { ck.Tenants[i], errs[i] = t.checkpointRecord() })
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		if ck.Tenants[i].Passive {
			ck.Version = CheckpointVersionRoles
		}
	}
	return ck, nil
}

// RestoreStats reports what a Restore did: how many tenants were rebuilt,
// the total arrivals the checkpoint represents, how many of those were
// actually replayed through the serve path (the live records' tail
// segments — passive records keep theirs, and the rest were loaded as
// serialized state), and the base-state volume loaded.
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
// none of the checkpointed tenants may already exist. InjectTenant is
// Restore on a one-tenant document.
//
// Tenants share nothing, so each record is rebuilt by rebuildTenant on a
// pool of GOMAXPROCS goroutines (internal/par), off the shard goroutines.
// The tenants are then registered in checkpoint order, so shard placement
// is the one creating them in that order gives. Each record comes back in
// its role: a passive record whose tail is below its seal bound is
// registered passive, holding the tail, and every other tail is served.
// Restore returns with that done: snapshots, ServedCount and the served
// totals see the restored state without a Drain. A refused record leaves
// no tenant registered.
func (e *Engine) Restore(ck *Checkpoint) (RestoreStats, error) {
	var stats RestoreStats
	if err := ck.checkVersion(); err != nil {
		return stats, err
	}
	if got, want := e.cfg.algoName(), ck.Algorithm; got != want {
		return stats, fmt.Errorf("engine: checkpoint was taken with algorithm %q, engine runs %q", want, got)
	}
	if e.cfg.Seed != ck.Seed {
		return stats, fmt.Errorf("engine: checkpoint was taken with seed %d, engine runs seed %d", ck.Seed, e.cfg.Seed)
	}
	rs, err := par.Map(0, len(ck.Tenants), func(i int) (rebuilt, error) {
		return e.rebuildTenant(&ck.Tenants[i])
	})
	if err != nil {
		return stats, err
	}
	ts := make([]*tenant, len(rs))
	for i := range rs {
		ts[i] = rs[i].t
	}
	if err := e.register(ts...); err != nil {
		return stats, err
	}
	for i, r := range rs {
		tc := &ck.Tenants[i]
		r.t.shard.served.Add(int64(len(tc.Arrivals)))
		if len(tc.BaseState) > 0 {
			stats.BasesLoaded++
			stats.StateBytes += int64(len(tc.BaseState))
		}
		stats.Tenants++
		stats.Arrivals += tc.BaseServed + len(tc.Arrivals)
		stats.Replayed += r.replayed
	}
	return stats, nil
}

// rebuilt is a tenant rebuilt from its record but not yet registered, with
// how many tail arrivals it replayed.
type rebuilt struct {
	t        *tenant
	replayed int
}

// rebuildTenant is the rebuild step of Restore and of both injects for one
// record: buildTenant checks the record in full — substrate, base state,
// serve counters, every tail arrival — and builds the tenant at its base in
// the record's role, the calling goroutine (which owns the tenant until it
// is registered) takes the tail, and the admitted count is set to the
// served one. A live tenant serves the tail through serveTail, the step a
// passive tenant goes live by; a passive one keeps it. A refused record
// builds nothing.
func (e *Engine) rebuildTenant(tc *TenantCheckpoint) (rebuilt, error) {
	t, err := e.buildTenant(tc)
	if err != nil {
		return rebuilt{}, fmt.Errorf("engine: restore %q: %v", tc.Tenant, err)
	}
	t.history = make([]instance.Request, len(tc.Arrivals))
	for i, a := range tc.Arrivals {
		t.history[i] = instance.Request{Point: a.Point, Demands: commodity.New(a.Demands...)}
	}
	replayed := 0
	if t.passive {
		// A kept tail is recorded, not served.
		t.served += len(t.history)
	} else {
		replayed = len(t.history)
		t.serveTail()
	}
	t.admitted.Store(int64(t.served))
	return rebuilt{t: t, replayed: replayed}, nil
}

// buildTenant runs every check a record must pass — the cost table, the
// metric, the base state and its counters, each tail arrival's admission
// rules — and returns the unregistered tenant at its base, its tail not yet
// taken. A passive record whose tail is below the seal bound comes back
// passive, without an instance: its base state, if any, is checked by
// loading it into one that is then dropped, and without a base none is
// built. Every other record comes back live, its base state loaded.
func (e *Engine) buildTenant(tc *TenantCheckpoint) (*tenant, error) {
	if len(tc.CostBySize) != tc.Universe+1 {
		return nil, fmt.Errorf("cost table has %d entries for universe %d", len(tc.CostBySize), tc.Universe)
	}
	table, err := cost.NewTable(tc.CostBySize)
	if err != nil {
		return nil, err
	}
	if err := metric.CheckMatrix(tc.Distances); err != nil {
		return nil, err
	}
	origin := tc.TenantOrigin
	t, err := e.newTenant(tc.Tenant, metric.NewMatrix(tc.Distances), table, &origin)
	if err != nil {
		return nil, err
	}
	// A record without a base state restores from genesis, so it may
	// claim no base arrivals.
	if len(tc.BaseState) > 0 {
		t.baseState, t.baseServed = tc.BaseState, tc.BaseServed
		t.baseConstruction, t.baseAssignment = tc.BaseConstruction, tc.BaseAssignment
	} else if tc.BaseServed != 0 {
		return nil, fmt.Errorf("record claims %d base arrivals but carries no base state", tc.BaseServed)
	}
	t.passive = tc.Passive && len(tc.Arrivals) < t.passiveBound()
	if !t.passive || len(t.baseState) > 0 {
		if err := t.loadBase(); err != nil {
			return nil, err
		}
	}
	for i, a := range tc.Arrivals {
		if err := t.validateRecord(a); err != nil {
			return nil, fmt.Errorf("tail arrival %d: %v", i, err)
		}
	}
	if t.passive {
		t.alg = nil
	}
	return t, nil
}

// validateRecord is validate on an arrival record, before its request is
// built: the point must lie in the space and the demands must be non-empty
// and inside the universe, so the request built from a record that passes
// passes validate.
func (t *tenant) validateRecord(a ArrivalRecord) error {
	if a.Point < 0 || a.Point >= t.space.Len() {
		return fmt.Errorf("point %d outside space of %d points", a.Point, t.space.Len())
	}
	if len(a.Demands) == 0 {
		return fmt.Errorf("request demands nothing")
	}
	u := t.costs.Universe()
	for _, id := range a.Demands {
		if id < 0 || id >= u {
			return fmt.Errorf("demands commodity %d outside universe of %d", id, u)
		}
	}
	return nil
}

// loadBase builds the tenant's algorithm instance, seeded from the engine
// seed and the tenant name, at the tenant's base state — at genesis when it
// has none — and sets the serve counters to the base's. It refuses base
// counters the state contradicts: the served count must equal the state's
// assignment count, the construction cost must be bitwise the state's
// facilities priced through the tenant's cost table in opening order (the
// order serve accumulates them in), and the assignment cost must be finite
// and non-negative.
func (t *tenant) loadBase() error {
	e := t.eng
	t.alg = e.factory(t.space, t.costs, workload.NamedSeed(e.cfg.Seed, t.id))
	t.served, t.construction, t.assignment, t.facCursor = t.baseServed, t.baseConstruction, t.baseAssignment, 0
	if len(t.baseState) == 0 {
		return nil
	}
	if err := t.alg.UnmarshalState(t.baseState); err != nil {
		return err
	}
	sol := t.alg.Solution()
	if t.baseServed != len(sol.Assign) {
		return fmt.Errorf("record claims %d base arrivals, its base state holds %d", t.baseServed, len(sol.Assign))
	}
	construction := 0.0
	for _, f := range sol.Facilities {
		construction += t.costs.Cost(f.Point, f.Config)
	}
	if math.Float64bits(construction) != math.Float64bits(t.baseConstruction) {
		return fmt.Errorf("record claims construction cost %v, its base state's %d facilities cost %v",
			t.baseConstruction, len(sol.Facilities), construction)
	}
	if !(t.baseAssignment >= 0) || math.IsInf(t.baseAssignment, 0) {
		return fmt.Errorf("record claims assignment cost %v, want finite and non-negative", t.baseAssignment)
	}
	t.facCursor = len(sol.Facilities)
	return nil
}
