package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
)

// Durable router state. The routing table and per-route arrival ledgers are
// persisted as a base snapshot (routes.ckpt.json, written atomically via
// tmp+rename exactly like the engine's checkpoints) plus an append-only
// JSON-lines journal (routes.journal) of route events. Every route mutation
// appends one event; ledger counts piggyback on the health tick as compact
// "counts" events. After rebaseEvery journal events the log re-bases: the
// folded state is snapshotted and the journal truncated — the route-table
// analogue of checkpoint v2's SealEvery.
//
// A router restart is therefore an O(1) load+replay of its own files: no
// node snapshot scans sit on the recovery path (the old full re-sync
// survives only as the rejoin consistency check, see health.go). Restored
// ledgers may lag the workers by the arrivals forwarded since the last
// counts event; every path that needs ledger exactness (migration quiesce)
// re-syncs the single route it touches first (route.synced).
//
// The same log doubles as the standby replication feed: followers subscribe
// and receive the current base followed by live events (standby.go).

const (
	routesBaseFile    = "routes.ckpt.json"
	routesJournalFile = "routes.journal"
	routeLogVersion   = 1
	rebaseEvery       = 256
	subBuffer         = 1024
)

// routeRecord is the durable per-tenant route: owner and follower node
// addresses (addresses, not indices — they survive router restarts and
// transfer to standbys with differently-ordered node lists), the arrival
// ledger, and the failover epoch.
type routeRecord struct {
	Node     string `json:"node"`
	Follower string `json:"follower,omitempty"`
	Count    int64  `json:"count"`
	Epoch    int64  `json:"epoch,omitempty"`
}

// routeEvent is one journal line. Op vocabulary:
//
//	place    — route created (tenant, node, follower, count, epoch)
//	flip     — migration completed: new owner + exact ledger
//	drop     — route removed
//	promote  — follower became owner (epoch bumped; follower is the new
//	           follower, possibly empty)
//	follower — follower reassigned or dropped (replication degrade/reseed)
//	counts   — ledger checkpoint for the listed tenants
type routeEvent struct {
	Seq      int64            `json:"seq"`
	Op       string           `json:"op"`
	Tenant   string           `json:"tenant,omitempty"`
	Node     string           `json:"node,omitempty"`
	Follower string           `json:"follower,omitempty"`
	Count    int64            `json:"count,omitempty"`
	Epoch    int64            `json:"epoch,omitempty"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tenants names the tenants whose records ev changes.
func (ev routeEvent) tenants() []string {
	if ev.Op != "counts" {
		return []string{ev.Tenant}
	}
	ids := make([]string, 0, len(ev.Counts))
	for id := range ev.Counts {
		ids = append(ids, id)
	}
	return ids
}

type routeBase struct {
	Version int                    `json:"version"`
	Seq     int64                  `json:"seq"`
	Routes  map[string]routeRecord `json:"routes"`
}

// routeLog folds route events into a current-state map, persists them when
// backed by a directory, and fans live events out to follower subscribers.
// A routeLog with dir=="" is memory-only (no persistence, still streamable)
// — every Router owns one so standbys can always follow.
type routeLog struct {
	mu      sync.Mutex
	dir     string
	journal *os.File
	state   map[string]routeRecord
	seq     int64
	events  int // journal events since last base
	subs    map[chan []byte]struct{}

	restored int // routes loaded from disk at open
}

// openRouteLog loads (or initializes) the durable route state under dir.
// An empty dir yields a memory-only log.
func openRouteLog(dir string) (*routeLog, error) {
	rl := &routeLog{
		dir:   dir,
		state: make(map[string]routeRecord),
		subs:  make(map[chan []byte]struct{}),
	}
	if dir == "" {
		return rl, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("route log: %w", err)
	}
	if data, err := os.ReadFile(filepath.Join(dir, routesBaseFile)); err == nil {
		var base routeBase
		if err := json.Unmarshal(data, &base); err != nil {
			return nil, fmt.Errorf("route log: corrupt %s: %w", routesBaseFile, err)
		}
		if base.Version != routeLogVersion {
			return nil, fmt.Errorf("route log: %s version %d, want %d", routesBaseFile, base.Version, routeLogVersion)
		}
		rl.seq = base.Seq
		for id, rec := range base.Routes {
			rl.state[id] = rec
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("route log: %w", err)
	}
	jpath := filepath.Join(dir, routesJournalFile)
	data, err := os.ReadFile(jpath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("route log: %w", err)
	}
	// A journal that does not end in a parsed line and its newline would
	// glue the next appended event onto its tail, and the next restart
	// would drop both: such a journal is folded into the base and restarted
	// empty below.
	torn := len(data) > 0 && data[len(data)-1] != '\n'
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var ev routeEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			// A torn final line is the expected kill -9 artifact: the
			// event was never acknowledged anywhere, so dropping it (and
			// everything after it) is safe. Stop replay here.
			torn = true
			break
		}
		if ev.Seq <= rl.seq {
			continue // already folded into the base
		}
		rl.fold(ev)
		rl.seq = ev.Seq
		rl.events++
	}
	rl.restored = len(rl.state)
	f, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("route log: %w", err)
	}
	rl.journal = f
	if torn {
		if err := rl.rebaseLocked(); err != nil {
			f.Close()
			return nil, fmt.Errorf("route log: re-basing a torn journal: %w", err)
		}
	}
	return rl, nil
}

// fold applies one event to the in-memory state. Callers hold rl.mu (or
// own rl exclusively during open).
func (rl *routeLog) fold(ev routeEvent) {
	switch ev.Op {
	case "place":
		rl.state[ev.Tenant] = routeRecord{Node: ev.Node, Follower: ev.Follower, Count: ev.Count, Epoch: ev.Epoch}
	case "flip", "promote":
		rec := rl.state[ev.Tenant]
		rec.Node = ev.Node
		rec.Follower = ev.Follower
		rec.Count = ev.Count
		rec.Epoch = ev.Epoch
		rl.state[ev.Tenant] = rec
	case "drop":
		delete(rl.state, ev.Tenant)
	case "follower":
		if rec, ok := rl.state[ev.Tenant]; ok {
			rec.Follower = ev.Follower
			rl.state[ev.Tenant] = rec
		}
	case "counts":
		for id, c := range ev.Counts {
			if rec, ok := rl.state[id]; ok {
				rec.Count = c
				rl.state[id] = rec
			}
		}
	}
}

// append assigns the next sequence number, folds, persists, and fans the
// event out to followers. Safe on a nil receiver (no log configured).
func (rl *routeLog) append(ev routeEvent) {
	if rl == nil {
		return
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	rl.seq++
	ev.Seq = rl.seq
	rl.fold(ev)
	line, err := json.Marshal(ev)
	if err != nil {
		return
	}
	line = append(line, '\n')
	if rl.journal != nil {
		rl.journal.Write(line)
		rl.events++
		if rl.events >= rebaseEvery {
			rl.rebaseLocked()
		}
	}
	for ch := range rl.subs {
		select {
		case ch <- line:
		default:
			// A stalled follower would otherwise corrupt its view; drop it —
			// it reconnects and receives a fresh base.
			close(ch)
			delete(rl.subs, ch)
		}
	}
}

// installBase replaces the folded state wholesale with a primary's base
// doc — the first frame of a follow stream. The standby's own base file is
// rewritten so its StateDir stays a valid restore point.
func (rl *routeLog) installBase(doc routeBase) {
	if rl == nil {
		return
	}
	rl.mu.Lock()
	rl.state = make(map[string]routeRecord, len(doc.Routes))
	for id, rec := range doc.Routes {
		rl.state[id] = rec
	}
	rl.seq = doc.Seq
	rl.rebaseLocked()
	rl.mu.Unlock()
}

// applyEvent folds one event received from a primary's follow stream,
// keeping the primary's sequence numbers (unlike append, which assigns
// fresh ones). Stale or duplicate events (seq not past the local state)
// are dropped — the redial path resends a base plus events the standby may
// partially have.
func (rl *routeLog) applyEvent(ev routeEvent) {
	if rl == nil {
		return
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if ev.Seq != 0 && ev.Seq <= rl.seq {
		return
	}
	rl.fold(ev)
	if ev.Seq != 0 {
		rl.seq = ev.Seq
	}
	if rl.journal != nil {
		if line, err := json.Marshal(ev); err == nil {
			rl.journal.Write(append(line, '\n'))
			rl.events++
			if rl.events >= rebaseEvery {
				rl.rebaseLocked()
			}
		}
	}
}

// persistCounts appends one compact counts event for every ledger that
// moved since the last persisted value. Called from the health tick.
func (rl *routeLog) persistCounts(counts map[string]int64) {
	if rl == nil {
		return
	}
	rl.mu.Lock()
	changed := make(map[string]int64)
	for id, c := range counts {
		if rec, ok := rl.state[id]; ok && rec.Count != c {
			changed[id] = c
		}
	}
	rl.mu.Unlock()
	if len(changed) == 0 {
		return
	}
	rl.append(routeEvent{Op: "counts", Counts: changed})
}

// rebaseLocked snapshots the folded state atomically and truncates the
// journal. Callers hold rl.mu. On failure the journal keeps its events;
// only openRouteLog acts on the error.
func (rl *routeLog) rebaseLocked() error {
	if rl.dir == "" {
		rl.events = 0
		return nil
	}
	base := routeBase{Version: routeLogVersion, Seq: rl.seq, Routes: rl.state}
	data, err := json.Marshal(&base)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(rl.dir, routesBaseFile+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(rl.dir, routesBaseFile))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if rl.journal != nil {
		if err := rl.journal.Truncate(0); err != nil {
			return err
		}
		rl.journal.Seek(0, 0)
	}
	rl.events = 0
	return nil
}

// snapshot returns the current folded records of the named tenants, or of
// every tenant when none is named, and the sequence number.
func (rl *routeLog) snapshot(tenants ...string) (map[string]routeRecord, int64) {
	if rl == nil {
		return nil, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	if len(tenants) == 0 {
		return maps.Clone(rl.state), rl.seq
	}
	out := make(map[string]routeRecord, len(tenants))
	for _, id := range tenants {
		if rec, ok := rl.state[id]; ok {
			out[id] = rec
		}
	}
	return out, rl.seq
}

// subscribe registers a follower: it receives the encoded current base
// first (as returned), then every subsequent event line on ch until
// unsubscribed or dropped for stalling (ch is closed).
func (rl *routeLog) subscribe() (base []byte, ch chan []byte) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	doc := routeBase{Version: routeLogVersion, Seq: rl.seq, Routes: rl.state}
	base, _ = json.Marshal(&doc)
	ch = make(chan []byte, subBuffer)
	rl.subs[ch] = struct{}{}
	return base, ch
}

func (rl *routeLog) unsubscribe(ch chan []byte) {
	rl.mu.Lock()
	if _, ok := rl.subs[ch]; ok {
		delete(rl.subs, ch)
		close(ch)
	}
	rl.mu.Unlock()
}

// close rebases one last time (persisting final ledgers) and closes the
// journal and every follower stream.
func (rl *routeLog) close() {
	if rl == nil {
		return
	}
	rl.mu.Lock()
	rl.rebaseLocked()
	if rl.journal != nil {
		rl.journal.Close()
		rl.journal = nil
	}
	for ch := range rl.subs {
		close(ch)
		delete(rl.subs, ch)
	}
	rl.mu.Unlock()
}
