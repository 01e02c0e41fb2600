package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// nearest returns the candidate of class ≤ i nearest to p.
func (tc *tauClasses) nearest(space metric.Space, i, p int) (int, float64) {
	return metric.Nearest(space, p, tc.points[i])
}

// budgetSmallRef recomputes X(r,e) from scratch with per-class nearest scans
// over the cumulative candidate lists — the original accounting, kept as the
// reference oracle for differential tests.
func (ra *RandOMFLP) budgetSmallRef(e, p int) (x float64, bestClass, bestPoint int) {
	_, dF := ra.fx.nearestOffering(e, p)
	return budgetRef(ra.space, &ra.smallClasses[e], dF, p)
}

// budgetLargeRef is the Z(r) analogue of budgetSmallRef.
func (ra *RandOMFLP) budgetLargeRef(p int) (z float64, bestClass, bestPoint int) {
	_, dF := ra.fx.nearestLarge(p)
	return budgetRef(ra.space, &ra.largeClasses, dF, p)
}

func budgetRef(space metric.Space, tc *tauClasses, dF float64, p int) (x float64, bestClass, bestPoint int) {
	x = dF
	bestClass, bestPoint = -1, -1
	bestVia := math.Inf(1)
	for i, ci := range tc.values {
		pt, d := tc.nearest(space, i, p)
		if ci+d < bestVia {
			bestVia = ci + d
			bestClass, bestPoint = i, pt
		}
	}
	if bestVia < x {
		x = bestVia
	}
	return x, bestClass, bestPoint
}

// TestBudgetsCachedMatchesReference interleaves serving, planting and budget
// queries and checks the per-point class-minima cache agrees exactly — value,
// class and point — with the naive per-call recompute, under both uniform and
// point-scaled cost models (the latter spreads candidates across classes).
func TestBudgetsCachedMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11} {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(5)
		n := 5 + rng.Intn(10)
		space := metric.RandomEuclidean(rng, n, 2, 30)
		var costs cost.Model = cost.PowerLaw(u, 1, 2)
		if seed%2 == 0 {
			costs = cost.NewPointScaled(costs, cost.RandomFactors(rng, n, 0.5, 4))
		}
		ra := NewRandOMFLP(space, costs, Options{}, rng)
		for step := 0; step < 200; step++ {
			p := rng.Intn(n)
			e := rng.Intn(u)
			switch rng.Intn(5) {
			case 0:
				ra.Serve(instance.Request{
					Point:   p,
					Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
				})
				continue
			case 1:
				ra.PlantSmall(e, rng.Intn(n))
			case 2:
				ra.PlantLarge(rng.Intn(n))
			}
			x, xc, xp := ra.budgetSmall(e, p)
			rx, rxc, rxp := ra.budgetSmallRef(e, p)
			if x != rx || xc != rxc || xp != rxp {
				t.Fatalf("seed %d step %d: budgetSmall(%d,%d) = (%g,%d,%d), reference (%g,%d,%d)",
					seed, step, e, p, x, xc, xp, rx, rxc, rxp)
			}
			z, zc, zp := ra.budgetLarge(p)
			rz, rzc, rzp := ra.budgetLargeRef(p)
			if z != rz || zc != rzc || zp != rzp {
				t.Fatalf("seed %d step %d: budgetLarge(%d) = (%g,%d,%d), reference (%g,%d,%d)",
					seed, step, p, z, zc, zp, rz, rzc, rzp)
			}
		}
	}
}

// TestTauPointCacheMatchesNearest pins the cached per-class nearest lists
// against metric.Nearest over the cumulative candidate lists.
func TestTauPointCacheMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	space := metric.RandomEuclidean(rng, 12, 2, 50)
	costs := cost.NewPointScaled(cost.PowerLaw(4, 1, 2), cost.RandomFactors(rng, 12, 0.25, 8))
	ra := NewRandOMFLP(space, costs, Options{}, rng)
	for _, tc := range append([]tauClasses{ra.largeClasses}, ra.smallClasses...) {
		tc := tc
		for p := 0; p < space.Len(); p++ {
			c := tc.at(space, p)
			for i := range tc.values {
				wantPt, wantD := tc.nearest(space, i, p)
				if c.nearPt[i] != wantPt || c.nearD[i] != wantD {
					t.Fatalf("class %d from point %d: cache (%d,%g), nearest (%d,%g)",
						i, p, c.nearPt[i], c.nearD[i], wantPt, wantD)
				}
			}
		}
	}
}
