package engine

import (
	"compress/flate"
	"fmt"
)

// TenantTransfer is one tenant's portable state: a checkpoint document of
// that tenant's record, stamped with the algorithm and engine seed it
// was captured under. ExtractTenant or ExportTenant captures it on one
// engine, EncodeTransfer and DecodeTransfer carry it between nodes, and
// InjectTenant rebuilds it on another with byte-identical snapshots. The
// algorithm and seed must match because a tenant's randomness derives from
// workload.NamedSeed(engine seed, tenant name): injecting under a different
// seed would silently change every future decision.
type TenantTransfer = Checkpoint

// ExtractTenant removes a tenant from the engine and returns its portable
// state. The tenant is deregistered first — Serve returns ErrUnknownTenant
// from that point on — and the state is then captured on the shard
// goroutine, which serializes the capture after every arrival admitted
// before the call (shard mailboxes are FIFO). The caller owns the returned
// transfer: until it is injected somewhere, the tenant's state exists only
// there. Callers that cannot tolerate in-flight arrivals failing must stop
// sending and wait for ServedCount to settle before extracting.
func (e *Engine) ExtractTenant(id string) (*TenantTransfer, error) {
	return e.captureTenant(id, true)
}

// ExportTenant captures a tenant's portable state like ExtractTenant but
// leaves it registered and serving — the replication-seeding half of the
// transfer surface. An export taken mid-stream is a consistent cut of an
// unnamed prefix; quiesce first to capture a known stream position.
func (e *Engine) ExportTenant(id string) (*TenantTransfer, error) {
	return e.captureTenant(id, false)
}

// captureTenant is the one capture behind extract and export: the tenant's
// record, taken on its shard goroutine, as a version-2 document
// EncodeTransfer can write. With remove the tenant is deregistered first
// and put back if the capture fails, so a failed extract is a clean no-op
// instead of a loss.
func (e *Engine) captureTenant(id string, remove bool) (*TenantTransfer, error) {
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
	if remove {
		delete(e.tenants, id)
		e.count(t, -1)
	}
	e.mu.Unlock()

	var tc TenantCheckpoint
	var err error
	t.shard.control(func() { tc, err = t.checkpointRecord() })
	// A transfer carries no role: whoever injects it chooses the copy's.
	tc.Passive = false
	tr := &TenantTransfer{Version: CheckpointVersion, Algorithm: e.cfg.algoName(), Seed: e.cfg.Seed,
		Tenants: []TenantCheckpoint{tc}}
	if err == nil {
		err = tr.checkEncodable()
	}
	if err != nil {
		if remove {
			e.mu.Lock()
			e.tenants[id] = t
			e.count(t, 1)
			e.mu.Unlock()
		}
		return nil, err
	}
	return tr, nil
}

// InjectTenant restores an extracted or exported tenant live: it is Restore
// on a document that must hold exactly one tenant, which must not already
// exist. It returns with the tail served: ServedCount, AdmittedCount and
// snapshots see the whole transfer.
func (e *Engine) InjectTenant(tr *TenantTransfer) error {
	return e.inject(tr, false)
}

// InjectPassive is InjectTenant for a follower copy. The record passes
// every check InjectTenant makes, its base state loaded into an instance
// that is then dropped, and the tenant is registered passive: it keeps the
// tail instead of serving it, and builds its algorithm instance only when
// something needs its state. ServedCount, AdmittedCount and the served
// totals count the tail as InjectTenant's do. A tail already at the seal
// bound is served at once, as InjectTenant serves it.
func (e *Engine) InjectPassive(tr *TenantTransfer) error {
	return e.inject(tr, true)
}

// inject restores tr's one record in the role passive chooses, whatever
// role the record carries.
func (e *Engine) inject(tr *TenantTransfer, passive bool) error {
	if n := len(tr.Tenants); n != 1 {
		return fmt.Errorf("engine: a transfer holds one tenant, this document holds %d", n)
	}
	doc := *tr
	doc.Tenants = []TenantCheckpoint{tr.Tenants[0]}
	doc.Tenants[0].Passive = passive
	_, err := e.Restore(&doc)
	return err
}

// EncodeTransfer writes a transfer as a checkpoint document with its base
// state in stored flate blocks: it crosses the network once, where the
// default level would cost more time than the bytes it saves.
func EncodeTransfer(tr *TenantTransfer) ([]byte, error) {
	return tr.encode(flate.NoCompression)
}

// DecodeTransfer reads a transfer through the decoder behind
// ReadCheckpointFile, which refuses the JSON transfers of earlier builds.
func DecodeTransfer(data []byte) (*TenantTransfer, error) {
	return decodeCheckpoint("engine: transfer", data, nil)
}
