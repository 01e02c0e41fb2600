package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

// checkPDInvariants verifies the invariants Algorithm 1 maintains. Raw
// Constraints (1)/(2) only hold at freeze time (facilities opened later —
// including the request's own — shrink d(F(e), r) below the frozen dual);
// what survives is their consequence, Lemma 5: each request's connection
// cost is bounded by its dual sum. Constraints (3)/(4) hold at all times via
// the min-capped credits, which we check directly.
func checkPDInvariants(t *testing.T, pd *PDOMFLP) {
	t.Helper()
	const tol = 1e-6
	ids, duals, points := pd.Duals()
	sol := pd.Solution()
	for ri := range ids {
		p := points[ri]
		var sum float64
		for i := range ids[ri] {
			sum += duals[ri][i]
		}
		// Lemma 5: Σ_{linked facilities} d(p, facility) ≤ Σ_e a_re.
		var conn float64
		for _, fi := range sol.Assign[ri] {
			conn += pd.space.Distance(p, sol.Facilities[fi].Point)
		}
		if conn > sum+tol {
			t.Errorf("req %d: connection cost %g exceeds dual sum %g (Lemma 5)", ri, conn, sum)
		}
	}
	// Constraints (3) and (4) via the live credits.
	for ci, m := range pd.ct.cands {
		for e := 0; e < pd.u; e++ {
			var lhs float64
			for _, cr := range pd.creditSmall[e] {
				if b := cr.credit - pd.space.Distance(m, cr.point); b > 0 {
					lhs += b
				}
			}
			if lhs > pd.ct.single[e][ci]+tol {
				t.Errorf("constraint (3) violated at m=%d e=%d: %g > %g", m, e, lhs, pd.ct.single[e][ci])
			}
		}
		if !pd.opts.DisablePrediction {
			var lhs float64
			for _, cr := range pd.creditLarge {
				if b := cr.credit - pd.space.Distance(m, cr.point); b > 0 {
					lhs += b
				}
			}
			if lhs > pd.ct.full[ci]+tol {
				t.Errorf("constraint (4) violated at m=%d: %g > %g", m, lhs, pd.ct.full[ci])
			}
		}
	}
}

func TestPDSingleRequestOpensSmallFacility(t *testing.T) {
	space := metric.SinglePoint()
	costs := cost.PowerLaw(4, 1, 1) // g(k)=sqrt(k): g(1)=1, g(4)=2
	pd := NewPDOMFLP(space, costs, Options{})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(2)})
	sol := pd.Solution()
	if len(sol.Facilities) != 1 {
		t.Fatalf("facilities = %+v", sol.Facilities)
	}
	f := sol.Facilities[0]
	if !f.Config.Equal(commodity.New(2)) {
		t.Errorf("config = %v, want {2}", f.Config)
	}
	if len(sol.Assign) != 1 || len(sol.Assign[0]) != 1 || sol.Assign[0][0] != 0 {
		t.Errorf("assign = %v", sol.Assign)
	}
	checkPDInvariants(t, pd)
}

func TestPDFullDemandOpensLargeFacility(t *testing.T) {
	// One request demanding all of S with a strictly subadditive cost:
	// Constraint (4) (slope |S|) reaches f^S before each singleton
	// constraint (slope 1) reaches f^{e}: 4·Δ = g(4)=2 at Δ=0.5 while
	// (3) needs Δ=1. So a large facility must open.
	space := metric.SinglePoint()
	costs := cost.PowerLaw(4, 1, 1)
	pd := NewPDOMFLP(space, costs, Options{})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.Full(4)})
	sol := pd.Solution()
	if len(sol.Facilities) != 1 {
		t.Fatalf("facilities = %+v", sol.Facilities)
	}
	if !sol.Facilities[0].Config.Equal(commodity.Full(4)) {
		t.Errorf("config = %v, want full", sol.Facilities[0].Config)
	}
	if got := sol.Cost(&instance.Instance{Space: space, Costs: costs, Requests: []instance.Request{{Point: 0, Demands: commodity.Full(4)}}}); math.Abs(got-2) > 1e-9 {
		t.Errorf("cost = %g, want g(4)=2", got)
	}
	checkPDInvariants(t, pd)
}

func TestPDSecondRequestConnectsForFree(t *testing.T) {
	// After a facility serves commodity 0 at the point, an identical
	// request connects with dual 0 and no new facility.
	space := metric.SinglePoint()
	costs := cost.Linear(3, 2)
	pd := NewPDOMFLP(space, costs, Options{})
	r := instance.Request{Point: 0, Demands: commodity.New(0)}
	pd.Serve(r)
	nf := len(pd.Solution().Facilities)
	pd.Serve(r)
	if len(pd.Solution().Facilities) != nf {
		t.Errorf("second identical request opened facilities: %d -> %d", nf, len(pd.Solution().Facilities))
	}
	_, duals, _ := pd.Duals()
	if duals[1][0] != 0 {
		t.Errorf("second dual = %g, want 0", duals[1][0])
	}
	checkPDInvariants(t, pd)
}

func TestPDLowerBoundGameSwitchesToLarge(t *testing.T) {
	// The Theorem 2 situation: |S|=16, g(k)=⌈k/4⌉, singleton requests at
	// one point for distinct commodities. Small facilities cost 1 each;
	// the large facility costs g(16)=4. Constraint (4) accumulates the
	// credits of earlier singletons, so after a handful of rounds the
	// algorithm must predict (open a large facility) instead of buying
	// singletons forever.
	u := 16
	space := metric.SinglePoint()
	costs := cost.CeilSqrt(u)
	pd := NewPDOMFLP(space, costs, Options{})
	for e := 0; e < u; e++ {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(e)})
	}
	sol := pd.Solution()
	var large, small int
	for _, f := range sol.Facilities {
		if f.Config.Len() == u {
			large++
		} else {
			small++
		}
	}
	if large == 0 {
		t.Fatalf("never opened a large facility: %d small facilities", small)
	}
	if small > u/2 {
		t.Errorf("opened %d small facilities before predicting; expected ≈ √|S|", small)
	}
	// Once the large facility exists, total cost is bounded well below
	// the no-prediction cost of u singletons.
	in := &instance.Instance{Space: space, Costs: costs}
	for e := 0; e < u; e++ {
		in.Requests = append(in.Requests, instance.Request{Point: 0, Demands: commodity.New(e)})
	}
	if err := sol.Verify(in); err != nil {
		t.Fatal(err)
	}
	if c := sol.Cost(in); c >= float64(u) {
		t.Errorf("cost %g not better than no-prediction %d", c, u)
	}
	checkPDInvariants(t, pd)
}

func TestPDNoPredictionAblationBuysOnlySingletons(t *testing.T) {
	u := 16
	space := metric.SinglePoint()
	costs := cost.CeilSqrt(u)
	pd := NewPDOMFLP(space, costs, Options{DisablePrediction: true})
	for e := 0; e < u; e++ {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(e)})
	}
	sol := pd.Solution()
	if len(sol.Facilities) != u {
		t.Errorf("facilities = %d, want %d singletons", len(sol.Facilities), u)
	}
	for _, f := range sol.Facilities {
		if f.Config.Len() != 1 {
			t.Errorf("ablation opened non-singleton config %v", f.Config)
		}
	}
	checkPDInvariants(t, pd)
}

func TestPDDistantRequestOpensLocalFacility(t *testing.T) {
	// Facility at 0 serving commodity 0; a far-away request must open its
	// own facility (dual rises to f + 0 = 1 < distance 100).
	space := metric.NewLine([]float64{0, 100})
	costs := cost.Linear(2, 1)
	pd := NewPDOMFLP(space, costs, Options{})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	pd.Serve(instance.Request{Point: 1, Demands: commodity.New(0)})
	sol := pd.Solution()
	if len(sol.Facilities) != 2 {
		t.Fatalf("facilities = %+v", sol.Facilities)
	}
	if sol.Facilities[1].Point != 1 {
		t.Errorf("second facility at %d, want 1", sol.Facilities[1].Point)
	}
	checkPDInvariants(t, pd)
}

func TestPDNearbyRequestPrefersConnecting(t *testing.T) {
	// Expensive facilities, short distances: the second request's dual
	// should hit Constraint (1) (distance 1) before paying cost 50.
	space := metric.NewLine([]float64{0, 1})
	costs := cost.Linear(2, 50)
	pd := NewPDOMFLP(space, costs, Options{})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	pd.Serve(instance.Request{Point: 1, Demands: commodity.New(0)})
	sol := pd.Solution()
	if len(sol.Facilities) != 1 {
		t.Fatalf("facilities = %+v", sol.Facilities)
	}
	if got := sol.Assign[1]; len(got) != 1 || got[0] != 0 {
		t.Errorf("assign[1] = %v", got)
	}
	checkPDInvariants(t, pd)
}

func TestPDSolutionsAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		u := 2 + rng.Intn(6)
		space := metric.RandomEuclidean(rng, 8, 2, 20)
		costs := cost.PowerLaw(u, rng.Float64()*2, 0.5+rng.Float64()*3)
		in := &instance.Instance{Space: space, Costs: costs}
		n := 5 + rng.Intn(20)
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		sol, algCost, err := online.Run(PDFactory(Options{}), in, 1, true)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if algCost <= 0 {
			t.Errorf("trial %d: non-positive cost %g", trial, algCost)
		}
		if len(sol.Facilities) == 0 {
			t.Errorf("trial %d: no facilities", trial)
		}
	}
}

func TestPDInvariantsOnRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		u := 2 + rng.Intn(4)
		space := metric.RandomLine(rng, 6, 15)
		costs := cost.PowerLaw(u, 1, 1+rng.Float64())
		pd := NewPDOMFLP(space, costs, Options{})
		for i := 0; i < 12; i++ {
			pd.Serve(instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		checkPDInvariants(t, pd)
	}
}

func TestPDDualBoundsCost(t *testing.T) {
	// Corollary 8: cost(ALG) ≤ 3·Σ_r Σ_e a_re.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		u := 2 + rng.Intn(5)
		space := metric.RandomEuclidean(rng, 6, 2, 10)
		costs := cost.PowerLaw(u, 1, 1)
		in := &instance.Instance{Space: space, Costs: costs}
		for i := 0; i < 15; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		pd := NewPDOMFLP(space, costs, Options{})
		for _, r := range in.Requests {
			pd.Serve(r)
		}
		sol := pd.Solution()
		if err := sol.Verify(in); err != nil {
			t.Fatal(err)
		}
		algCost := sol.Cost(in)
		dual := pd.DualTotal()
		if algCost > 3*dual+1e-6 {
			t.Errorf("trial %d: cost %g exceeds 3·dual %g", trial, algCost, 3*dual)
		}
	}
}

func TestPDCandidateRestriction(t *testing.T) {
	// Only point 1 may host facilities.
	space := metric.NewLine([]float64{0, 3, 50})
	costs := cost.Linear(2, 1)
	pd := NewPDOMFLP(space, costs, Options{Candidates: []int{1}})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	pd.Serve(instance.Request{Point: 2, Demands: commodity.New(1)})
	for _, f := range pd.Solution().Facilities {
		if f.Point != 1 {
			t.Errorf("facility at %d despite candidate restriction", f.Point)
		}
	}
}

func TestPDZeroDistanceTies(t *testing.T) {
	// Multiple co-located points (uniform distance 0 collapses them):
	// exercise Δ = 0 events.
	space := metric.NewUniform(3, 0)
	costs := cost.Linear(2, 1)
	pd := NewPDOMFLP(space, costs, Options{})
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0, 1)})
	pd.Serve(instance.Request{Point: 1, Demands: commodity.New(0, 1)})
	pd.Serve(instance.Request{Point: 2, Demands: commodity.New(1)})
	in := &instance.Instance{Space: space, Costs: costs, Requests: []instance.Request{
		{Point: 0, Demands: commodity.New(0, 1)},
		{Point: 1, Demands: commodity.New(0, 1)},
		{Point: 2, Demands: commodity.New(1)},
	}}
	if err := pd.Solution().Verify(in); err != nil {
		t.Fatal(err)
	}
	// Everything is at distance 0: the first request pays the facilities,
	// the rest connect for free.
	want := pd.Solution().ConstructionCost(in)
	if got := pd.Solution().Cost(in); math.Abs(got-want) > 1e-9 {
		t.Errorf("assignment cost should be 0, total %g construction %g", got, want)
	}
	checkPDInvariants(t, pd)
}

// Property: PD solutions are feasible and cost ≤ 3·dual on arbitrary seeds
// (Corollary 8 as an executable property).
func TestQuickPDCorollary8(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(4)
		space := metric.RandomEuclidean(rng, 5, 2, 8)
		costs := cost.PowerLaw(u, rng.Float64()*2, 1)
		in := &instance.Instance{Space: space, Costs: costs}
		for i := 0; i < 10; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		pd := NewPDOMFLP(space, costs, Options{})
		for _, r := range in.Requests {
			pd.Serve(r)
		}
		if err := pd.Solution().Verify(in); err != nil {
			return false
		}
		return pd.Solution().Cost(in) <= 3*pd.DualTotal()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPDServe(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := 16
	space := metric.RandomEuclidean(rng, 50, 2, 100)
	costs := cost.PowerLaw(u, 1, 2)
	reqs := make([]instance.Request, 200)
	for i := range reqs {
		reqs[i] = instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(4)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pd := NewPDOMFLP(space, costs, Options{})
		for _, r := range reqs {
			pd.Serve(r)
		}
	}
}
