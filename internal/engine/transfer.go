package engine

import (
	"fmt"
)

// TenantTransfer is one tenant's portable state: the same base-state +
// arrival-tail record a v2 checkpoint carries, stamped with the algorithm
// and engine seed it was captured under. ExtractTenant produces one and
// InjectTenant consumes it — marshal on the source, restore on the target,
// replay the tail — so a tenant can move between engines (in one process or
// across a cluster) with byte-identical snapshots on the far side. The
// algorithm and seed must match because a tenant's randomness derives from
// workload.NamedSeed(engine seed, tenant name): injecting under a different
// seed would silently change every future decision.
type TenantTransfer struct {
	Algorithm string `json:"algorithm"`
	Seed      int64  `json:"seed"`
	TenantCheckpoint
}

// ExtractTenant removes a tenant from the engine and returns its portable
// state. The tenant is deregistered first — Serve returns ErrUnknownTenant
// from that point on — and the state is then captured on the shard
// goroutine, which serializes the capture after every arrival admitted
// before the call (shard mailboxes are FIFO). The caller owns the returned
// transfer: until it is injected somewhere, the tenant's state exists only
// there. Callers that cannot tolerate in-flight arrivals failing must stop
// sending and wait for ServedCount to settle before extracting.
func (e *Engine) ExtractTenant(id string) (*TenantTransfer, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	t, ok := e.tenants[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: tenant %q: %w", id, ErrUnknownTenant)
	}
	delete(e.tenants, id)
	e.loads[t.shardIdx]--
	e.mu.Unlock()

	var tc TenantCheckpoint
	var err error
	t.shard.control(func() { tc, err = t.checkpointV2() })
	if err != nil {
		// The capture failed (e.g. a non-serializable substrate): put the
		// tenant back so the extract is a clean no-op instead of a loss.
		e.mu.Lock()
		e.tenants[id] = t
		e.loads[t.shardIdx]++
		e.mu.Unlock()
		return nil, err
	}
	return &TenantTransfer{Algorithm: e.cfg.algoName(), Seed: e.cfg.Seed, TenantCheckpoint: tc}, nil
}

// ExportTenant captures a tenant's portable state without deregistering it
// — the replication-seeding half of the transfer surface. The capture runs
// on the shard goroutine, serialized after every arrival admitted before
// the call, and the tenant keeps serving afterwards. Callers that need the
// export to reflect a known stream position must quiesce first (stop
// sending and wait for ServedCount), exactly as with ExtractTenant; an
// export taken mid-stream is still a consistent cut, just of an unnamed
// prefix.
func (e *Engine) ExportTenant(id string) (*TenantTransfer, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: %w", ErrClosed)
	}
	t, ok := e.tenants[id]
	if !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: tenant %q: %w", id, ErrUnknownTenant)
	}
	e.mu.Unlock()

	var tc TenantCheckpoint
	var err error
	t.shard.control(func() { tc, err = t.checkpointV2() })
	if err != nil {
		return nil, err
	}
	return &TenantTransfer{Algorithm: e.cfg.algoName(), Seed: e.cfg.Seed, TenantCheckpoint: tc}, nil
}

// InjectTenant restores an extracted tenant into the engine: the tenant is
// re-created on its serialized substrate, its base state loaded, and its
// arrival tail replayed through the normal serve path — Restore's rebuild
// step for one record, run on the calling goroutine before the tenant is
// registered. The transfer's algorithm and seed must match the engine's,
// and the tenant must not already exist. InjectTenant returns with the tail
// served: ServedCount, AdmittedCount and snapshots see the whole transfer.
func (e *Engine) InjectTenant(tr *TenantTransfer) error {
	if got, want := e.cfg.algoName(), tr.Algorithm; got != want {
		return fmt.Errorf("engine: transfer of %q was captured with algorithm %q, engine runs %q",
			tr.Tenant, want, got)
	}
	if e.cfg.Seed != tr.Seed {
		return fmt.Errorf("engine: transfer of %q was captured with seed %d, engine runs seed %d",
			tr.Tenant, tr.Seed, e.cfg.Seed)
	}
	r, err := e.rebuildTenant(&tr.TenantCheckpoint)
	if err != nil {
		return err
	}
	return e.publish(r)
}
