package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

func TestRandFirstRequestIsServed(t *testing.T) {
	space := metric.SinglePoint()
	costs := cost.PowerLaw(4, 1, 1)
	ra := NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(1)))
	r := instance.Request{Point: 0, Demands: commodity.New(0, 2)}
	ra.Serve(r)
	sol := ra.Solution()
	if len(sol.Facilities) == 0 {
		t.Fatal("no facility opened")
	}
	in := &instance.Instance{Space: space, Costs: costs, Requests: []instance.Request{r}}
	if err := sol.Verify(in); err != nil {
		t.Fatal(err)
	}
}

func TestRandSolutionsAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		u := 2 + rng.Intn(6)
		space := metric.RandomEuclidean(rng, 8, 2, 20)
		costs := cost.PowerLaw(u, rng.Float64()*2, 0.5+rng.Float64()*3)
		in := &instance.Instance{Space: space, Costs: costs}
		n := 5 + rng.Intn(25)
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		if _, _, err := online.Run(RandFactory(Options{}), in, int64(trial), true); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRandDeterministicUnderSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := 4
	space := metric.RandomLine(rng, 6, 10)
	costs := cost.PowerLaw(u, 1, 1)
	in := &instance.Instance{Space: space, Costs: costs}
	for i := 0; i < 15; i++ {
		in.Requests = append(in.Requests, instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	_, c1, err := online.Run(RandFactory(Options{}), in, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	_, c2, err := online.Run(RandFactory(Options{}), in, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("same seed produced costs %g and %g", c1, c2)
	}
}

func TestRandColocatedRequestsDoNotOverbuild(t *testing.T) {
	// Many identical requests at one point: expected number of facilities
	// stays small because the budget X collapses to 0 once a facility
	// covers the request.
	space := metric.SinglePoint()
	costs := cost.Constant(3, 50)
	var totalFacilities int
	const runs = 50
	for s := int64(0); s < runs; s++ {
		ra := NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(s)))
		for i := 0; i < 40; i++ {
			ra.Serve(instance.Request{Point: 0, Demands: commodity.New(0, 1, 2)})
		}
		totalFacilities += len(ra.Solution().Facilities)
	}
	if avg := float64(totalFacilities) / runs; avg > 3 {
		t.Errorf("average %g facilities for identical co-located requests", avg)
	}
}

func TestRandLargeFacilityWinsForBundledDemand(t *testing.T) {
	// Strictly subadditive costs and full-bundle requests: over many runs
	// RAND should open mostly large facilities (Z(r) ≪ X(r)).
	u := 16
	space := metric.SinglePoint()
	costs := cost.PowerLaw(u, 1, 1) // g(1)=1 each, g(16)=4
	var large, small int
	for s := int64(0); s < 40; s++ {
		ra := NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(s)))
		for i := 0; i < 10; i++ {
			ra.Serve(instance.Request{Point: 0, Demands: commodity.Full(u)})
		}
		for _, f := range ra.Solution().Facilities {
			if f.Config.Len() == u {
				large++
			} else {
				small++
			}
		}
	}
	if large == 0 {
		t.Error("bundled demand never opened a large facility")
	}
	if small > large*u/2 {
		t.Errorf("small facilities (%d) dominate large (%d) despite bundling advantage", small, large)
	}
}

func TestRandNoPredictionAblation(t *testing.T) {
	u := 9
	space := metric.SinglePoint()
	costs := cost.CeilSqrt(u)
	ra := NewRandOMFLP(space, costs, Options{DisablePrediction: true}, rand.New(rand.NewSource(2)))
	for e := 0; e < u; e++ {
		ra.Serve(instance.Request{Point: 0, Demands: commodity.New(e)})
	}
	for _, f := range ra.Solution().Facilities {
		if f.Config.Len() != 1 {
			t.Errorf("no-prediction RAND opened config %v", f.Config)
		}
	}
}

func TestRandOptimalReassignNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := 5
	space := metric.RandomEuclidean(rng, 8, 2, 15)
	costs := cost.PowerLaw(u, 1, 2)
	in := &instance.Instance{Space: space, Costs: costs}
	for i := 0; i < 20; i++ {
		in.Requests = append(in.Requests, instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	// Same seed: identical coin flips, so the facility sets agree and only
	// the connection rule differs. DP connections must never cost more.
	solTwo, cTwo, err := online.Run(RandFactory(Options{}), in, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	solDP, cDP, err := online.Run(RandFactory(Options{OptimalReassign: true}), in, 7, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(solTwo.Facilities) != len(solDP.Facilities) {
		t.Fatalf("facility sets diverged under same seed: %d vs %d",
			len(solTwo.Facilities), len(solDP.Facilities))
	}
	if cDP > cTwo+1e-9 {
		t.Errorf("optimal reassign cost %g exceeds two-mode cost %g", cDP, cTwo)
	}
}

func TestRandStatisticalCompetitiveOnGame(t *testing.T) {
	// On the Theorem 2 game with |S|=16 and OPT=1, RAND's mean cost over
	// many runs must stay well below |S| (the no-prediction cost) —
	// O(√|S|·log n/log log n) predicts single digits here.
	u := 16
	space := metric.SinglePoint()
	costs := cost.CeilSqrt(u)
	var total float64
	const runs = 60
	for s := int64(0); s < runs; s++ {
		rng := rand.New(rand.NewSource(s))
		perm := rng.Perm(u)[:4] // random S' of size √16 = 4
		in := &instance.Instance{Space: space, Costs: costs}
		for _, e := range perm {
			in.Requests = append(in.Requests, instance.Request{Point: 0, Demands: commodity.New(e)})
		}
		_, c, err := online.Run(RandFactory(Options{}), in, s, true)
		if err != nil {
			t.Fatal(err)
		}
		total += c
	}
	if avg := total / runs; avg > float64(u)/2 {
		t.Errorf("mean game cost %g too close to no-prediction cost %d", avg, u)
	}
}

// Property: RAND solutions are feasible for arbitrary seeds and workloads.
func TestQuickRandFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(4)
		space := metric.RandomLine(rng, 5, 10)
		costs := cost.PowerLaw(u, rng.Float64()*2, 1)
		in := &instance.Instance{Space: space, Costs: costs}
		for i := 0; i < 12; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		_, _, err := online.Run(RandFactory(Options{}), in, seed, true)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBuildTauClasses(t *testing.T) {
	space := metric.NewLine([]float64{0, 1, 2})
	_ = space
	costsAt := map[int]float64{0: 1, 1: 3, 2: 8}
	tc := buildTauClasses([]int{0, 1, 2}, func(m int) float64 { return costsAt[m] })
	if len(tc.values) != 3 || tc.values[0] != 1 || tc.values[1] != 2 || tc.values[2] != 8 {
		t.Fatalf("classes = %v", tc.values)
	}
	if len(tc.points[0]) != 1 || len(tc.points[1]) != 2 || len(tc.points[2]) != 3 {
		t.Errorf("cumulative points = %v", tc.points)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-positive cost must panic")
		}
	}()
	buildTauClasses([]int{0}, func(int) float64 { return 0 })
}

func BenchmarkRandServe(b *testing.B) {
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
		ra := NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(int64(i))))
		for _, r := range reqs {
			ra.Serve(r)
		}
	}
}
