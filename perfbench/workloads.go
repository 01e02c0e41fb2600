package main

import "repro/internal/engine"

// workload is one traffic mix. The shape is fixed by the benchmark; sizes
// scale with --seconds so that a run of a given length does identical work
// whatever the speed of the code under test.
type workload struct {
	name  string
	shape shape
	topo  topology

	conns  int   // load-driving client connections (≤ nproc)
	batch  int   // arrivals per BATCH frame or HTTP body
	window int64 // closed loop: unacknowledged arrivals allowed per connection

	// closedPerS arrivals per second of --seconds make the closed loop;
	// the open loop runs openShare of --seconds at the fixed openRate.
	// Sizes are bounded by what the checkpoint, migration and restore
	// phases must then carry: deep's state and fanout's replayed tails
	// grow with every arrival.
	closedPerS float64
	openRate   float64 // arrivals/s
	openShare  float64

	// reps is how many fresh deployments are set up, each driven through
	// the same closed loop, checkpointed, shut down and restored; the last
	// one carries on through the run.
	reps   int
	sample []int // tenants whose snapshots must match an in-process replay

	tracePerS float64 // traced run: arrivals per layer pass per second of --seconds
	path      string  // the traced pass on the workload's own end-to-end path
}

var workloads = []*workload{
	{
		// PD work and the state codec carry nearly everything: seals that
		// marshal the whole state of a tenant with a long history.
		name:  "deep",
		shape: shape{tenants: 2, universe: 32, points: 200, zipf: 1.2, maxDemand: 4, facility: 1.5},
		topo:  topology{workers: 1, shards: 2, policy: engine.PolicyLeastLoad, ckpt: true},
		conns: 2, batch: 64, window: 4096,
		closedPerS: 13000, openRate: 25000, openShare: 0.1,
		reps: 7, sample: []int{0, 1},

		tracePerS: 6000, path: "server.tcp",
	},
	{
		// Many small tenants: wire decode, router re-framing, the replica
		// dual-write and loopback syscalls carry about half the work.
		name:  "fanout",
		shape: shape{tenants: 2000, universe: 4, points: 10, zipf: 1.5, maxDemand: 2, facility: 1},
		topo:  topology{workers: 2, shards: 1, ckpt: true, router: true, replicate: true, routerState: true},
		conns: 2, batch: 64, window: 8192,
		closedPerS: 30000, openRate: 20000, openShare: 0.1,
		reps: 7, sample: []int{0, 1, 2, 3, 997, 1000, 1998, 1999},

		tracePerS: 20000, path: "cluster.replica",
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// inputs is one run's generated input: tenants, and arrivals laid out as
// one warm-up arrival per tenant, then the closed loop, then the open loop.
type inputs struct {
	tenants []tenantSpec
	names   []string
	s       *stream
	closedN int
	openN   int
	warmEnd int // s[:warmEnd] are the warm-up arrivals, then closedN closed-loop ones
	openAt  int // s[openAt:openAt+openN] are the open-loop arrivals
}

// inputs generates the tenants, one warm-up arrival per tenant, closedN
// closed-loop arrivals and openN open-loop ones.
func (w *workload) inputs(seed int64, closedN, openN int) *inputs {
	in := &inputs{tenants: genTenants(seed, w.shape), s: &stream{}, closedN: closedN, openN: openN}
	for _, t := range in.tenants {
		in.names = append(in.names, t.ID)
	}
	g := newArrivalGen(seed+1, w.shape)
	g.warm(in.s)
	in.warmEnd = in.s.len()
	g.fill(in.s, in.closedN)
	in.openAt = in.s.len()
	g.fill(in.s, in.openN)
	return in
}

// sentPerTenant counts the arrivals each tenant receives over the run.
func (in *inputs) sentPerTenant() []int64 {
	out := make([]int64, len(in.names))
	for _, t := range in.s.tenant {
		out[t]++
	}
	return out
}
