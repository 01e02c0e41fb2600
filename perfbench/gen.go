package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/server"
)

// The benchmark owns its inputs: points, distance matrices, cost tables and
// arrival streams all come from this file, driven by the seed argument, so a
// change to the program's own workload or metric packages cannot change what
// is measured. The program sees only create ops and arrivals.

// tenantSpec is one tenant's create op.
type tenantSpec struct {
	ID         string
	Universe   int
	Distances  [][]float64
	CostBySize []float64
}

// stream is a sequence of arrivals in send order, stored flat so that
// millions of arrivals cost a few bytes each.
type stream struct {
	tenant []int32
	point  []int32
	off    []int32 // demands of arrival i are dem[off[i]:off[i+1]]
	dem    []uint8
}

func (s *stream) len() int { return len(s.tenant) }

func (s *stream) add(tenant, point int, demands []int) {
	if len(s.off) == 0 {
		s.off = append(s.off, 0)
	}
	s.tenant = append(s.tenant, int32(tenant))
	s.point = append(s.point, int32(point))
	for _, d := range demands {
		s.dem = append(s.dem, uint8(d))
	}
	s.off = append(s.off, int32(len(s.dem)))
}

// item returns arrival i as a wire item, reusing buf for the demand ids.
func (s *stream) item(i int, buf []int) server.WireItem {
	buf = buf[:0]
	for _, d := range s.dem[s.off[i]:s.off[i+1]] {
		buf = append(buf, int(d))
	}
	return server.WireItem{Point: int(s.point[i]), Demands: buf}
}

// shape is the generator's description of one workload's inputs.
type shape struct {
	tenants   int
	universe  int // |S|
	points    int
	zipf      float64 // commodity popularity exponent (> 1)
	maxDemand int     // each arrival demands 1..maxDemand distinct commodities
	facility  float64 // cost of a one-commodity facility
}

// genTenants draws every tenant's substrate: points uniform in the unit
// square under the Euclidean metric, and a concave size-dependent facility
// cost f(k) = facility·k^0.6 (a large facility is cheaper per commodity than
// the small ones it replaces, so both kinds open).
func genTenants(seed int64, sh shape) []tenantSpec {
	rng := rand.New(rand.NewSource(seed))
	costs := make([]float64, sh.universe+1)
	for k := 1; k <= sh.universe; k++ {
		costs[k] = sh.facility * math.Pow(float64(k), 0.6)
	}
	out := make([]tenantSpec, sh.tenants)
	for t := range out {
		xs := make([]float64, sh.points)
		ys := make([]float64, sh.points)
		for i := range xs {
			xs[i], ys[i] = rng.Float64(), rng.Float64()
		}
		d := make([][]float64, sh.points)
		for i := range d {
			d[i] = make([]float64, sh.points)
			for j := range d[i] {
				d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			}
		}
		out[t] = tenantSpec{ID: tenantName(t), Universe: sh.universe, Distances: d, CostBySize: costs}
	}
	return out
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

// arrivalGen draws arrivals for uniformly chosen tenants: a uniform point and
// 1..maxDemand distinct commodities by Zipf popularity.
type arrivalGen struct {
	sh   shape
	rng  *rand.Rand
	zipf *rand.Zipf
	buf  []int
}

func newArrivalGen(seed int64, sh shape) *arrivalGen {
	rng := rand.New(rand.NewSource(seed))
	return &arrivalGen{sh: sh, rng: rng, zipf: rand.NewZipf(rng, sh.zipf, 1, uint64(sh.universe-1))}
}

func (g *arrivalGen) next(s *stream, tenant int) {
	k := 1 + g.rng.Intn(g.sh.maxDemand)
	g.buf = g.buf[:0]
	for len(g.buf) < k {
		c := int(g.zipf.Uint64())
		dup := false
		for _, x := range g.buf {
			dup = dup || x == c
		}
		if !dup {
			g.buf = append(g.buf, c)
		}
	}
	sort.Ints(g.buf)
	s.add(tenant, g.rng.Intn(g.sh.points), g.buf)
}

// fill appends n arrivals with tenants drawn uniformly.
func (g *arrivalGen) fill(s *stream, n int) {
	for i := 0; i < n; i++ {
		g.next(s, g.rng.Intn(g.sh.tenants))
	}
}

// warm appends one arrival per tenant, in tenant order.
func (g *arrivalGen) warm(s *stream) {
	for t := 0; t < g.sh.tenants; t++ {
		g.next(s, t)
	}
}
