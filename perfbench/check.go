package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/commodity"
	"repro/internal/engine"
	"repro/internal/instance"
	"repro/internal/server"
)

// The correctness gate. Every check that fails is a mismatch: the run
// reports correct=false and exits non-zero.

// tamperReplay, when set, alters the reference snapshots before they are
// compared: the benchmark's tests use it to show that a mismatch fails the
// run.
var tamperReplay func(want map[string][]byte)

// replaySample serves the sample tenants' arrivals, in order, in an
// in-process engine and returns their full snapshots: the reference every
// copy in the deployment must match byte for byte.
func replaySample(in *inputs, sample []int) (map[string][]byte, error) {
	eng, err := engine.NewChecked(engine.Config{Shards: 1, Seed: engineSeed})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	pick := map[int32]bool{}
	for _, t := range sample {
		ts := in.tenants[t]
		if err := eng.Apply(engine.Op{Op: "create", Tenant: ts.ID, Universe: ts.Universe,
			Distances: ts.Distances, CostBySize: ts.CostBySize}); err != nil {
			return nil, err
		}
		pick[int32(t)] = true
	}
	var buf []int
	for i, t := range in.s.tenant {
		if !pick[t] {
			continue
		}
		it := in.s.item(i, buf)
		buf = it.Demands
		req := instance.Request{Point: it.Point, Demands: commodity.New(it.Demands...)}
		if err := eng.Serve(in.names[t], req); err != nil {
			return nil, err
		}
	}
	eng.Drain()
	want := map[string][]byte{}
	for _, t := range sample {
		snap, err := eng.Snapshot(in.names[t])
		if err != nil {
			return nil, err
		}
		if want[in.names[t]], err = json.Marshal(snap); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// checkLive checks the loaded deployment: every tenant's copies served
// exactly what was sent to it, cost ≤ 3·dual (Corollary 8) on each, and the
// sample's snapshots, read through the front end and from every copy, equal
// the replay. It returns Σ cost and Σ dual over one copy of each tenant.
func checkLive(d *deployment, ctl *httpConn, names []string, sent []int64, sample []int, want map[string][]byte, rep *report) (cost, dual float64, err error) {
	byTenant := map[string][]*engine.TenantSnapshot{}
	for _, s := range d.workers {
		snaps, err := s.Engine().SnapshotAllCompact()
		if err != nil {
			return 0, 0, err
		}
		for _, sn := range snaps {
			byTenant[sn.Tenant] = append(byTenant[sn.Tenant], sn)
		}
	}
	for i, name := range names {
		snaps := byTenant[name]
		if len(snaps) != d.copies() {
			rep.mismatch("tenant %s is held by %d workers, want %d", name, len(snaps), d.copies())
			continue
		}
		for _, sn := range snaps {
			if int64(sn.Served) != sent[i] {
				rep.mismatch("tenant %s served %d arrivals, %d were sent", name, sn.Served, sent[i])
			}
			if sn.Cost > 3*sn.DualTotal*(1+1e-9) {
				rep.mismatch("tenant %s: cost %g exceeds 3 x dual %g", name, sn.Cost, sn.DualTotal)
			}
		}
		cost += snaps[0].Cost
		dual += snaps[0].DualTotal
	}
	for _, t := range sample {
		body, err := ctl.do("GET", "/v1/tenants/"+names[t]+"/snapshot", nil, http.StatusOK)
		if err != nil {
			return 0, 0, err
		}
		var sn engine.TenantSnapshot
		if err := json.Unmarshal(body, &sn); err != nil {
			return 0, 0, err
		}
		got, err := json.Marshal(&sn)
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(got, want[names[t]]) {
			rep.mismatch("tenant %s: front-end snapshot differs from the in-process replay", names[t])
		}
	}
	if err := checkCopies("live", enginesOf(d.workers), d.copies(), names, sample, want, rep); err != nil {
		return 0, 0, err
	}
	return cost, dual, nil
}

func enginesOf(srvs []*server.Server) []*engine.Engine {
	out := make([]*engine.Engine, len(srvs))
	for i, s := range srvs {
		out[i] = s.Engine()
	}
	return out
}

// checkCopies compares every copy of each sample tenant held by engs with
// the replay; where names the deployment or pass in a mismatch.
func checkCopies(where string, engs []*engine.Engine, copies int, names []string, sample []int, want map[string][]byte, rep *report) error {
	for _, t := range sample {
		found := 0
		for _, e := range engs {
			snap, err := e.Snapshot(names[t])
			if err != nil {
				continue
			}
			found++
			got, err := json.Marshal(snap)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want[names[t]]) {
				rep.mismatch("%s: tenant %s: snapshot on an engine differs from the in-process replay", where, names[t])
			}
		}
		if found != copies {
			rep.mismatch("%s: tenant %s: %d copies, want %d", where, names[t], found, copies)
		}
	}
	return nil
}

// mismatchError is what a failed gate turns into at exit.
func mismatchError(rep *report) error {
	if len(rep.mismatches) == 0 {
		return nil
	}
	return fmt.Errorf("%d correctness mismatches, first: %s", len(rep.mismatches), rep.mismatches[0])
}
