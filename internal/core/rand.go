package core

import (
	"math"
	"math/rand"

	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

// RandOMFLP is the randomized algorithm of Section 4 (Algorithm 2), a
// Meyerson-style algorithm generalized to commodities. Facility costs for
// each configuration τ ∈ {S} ∪ {{e}} are grouped into power-of-two classes
// C^τ_1 < C^τ_2 < …; on a request r the algorithm computes the budgets
//
//	X(r,e) = min{ d(F(e), r), min_i { C^{e}_i + d(C^{e}_i, r) } }
//	X(r)   = Σ_{e∈s_r} X(r,e)
//	Z(r)   = min{ d(F̂, r),  min_i { C^S_i + d(C^S_i, r) } }
//
// and opens, per class i, a small facility for e with probability
// (d(C^{e}_{i−1},r) − d(C^{e}_i,r))/C^{e}_i · X(r,e)/X(r) and a large
// facility with probability (d(C^S_{i−1},r) − d(C^S_i,r))/C^S_i, where
// d(C^τ_0, r) := min{Z(r), X(r)}. Distances to classes are cumulative
// (class ≤ i), making improvements non-negative; probabilities are clamped
// to 1. If a commodity would remain uncovered after the coin flips the
// algorithm deterministically opens the budget-minimizing facility for it
// (the pseudocode leaves this forced case implicit; feasibility requires
// it). Finally the request connects in the cheaper of the two Figure 3
// modes: per-commodity nearest facilities, or one shared large facility.
type RandOMFLP struct {
	space metric.Space //omflp:nostate — constructor parameter; the restore contract requires an identically constructed instance
	costs cost.Model   //omflp:nostate — constructor parameter, ditto
	u     int
	opts  Options //omflp:nostate — constructor parameter, ditto
	rng   *rand.Rand
	fx    *facilityIndex

	// nCands and draws support state serialization: the candidate count
	// validates restores, and the coin-flip count is the serializable form
	// of the rng position (see UnmarshalState).
	nCands int
	draws  int64

	smallClasses []tauClasses //omflp:nostate — pure function of space/costs/opts, rebuilt by the constructor (per commodity)
	largeClasses tauClasses   //omflp:nostate — ditto
	// dedupe: open small facilities per (e, point), and large per point,
	// to avoid paying twice for an identical facility.
	smallOpen map[[2]int]bool
	largeOpen map[int]bool
}

// tauClasses holds the power-of-two cost classes of one configuration τ:
// ascending class values with cumulative candidate-point lists.
//
// Classes and candidates never change after construction, so the
// class-distance minima d(C^τ_i, r) — and hence the budget term
// min_i{C^τ_i + d(C^τ_i, r)} — depend only on the query point. They are
// computed once per point and cached (the same accumulator treatment PD's
// bid sums got): budget evaluation drops from O(|cands|·|classes|) per
// arrival to O(|classes|) after the first arrival at a point.
type tauClasses struct {
	values []float64
	points [][]int // points[i] = candidates of class ≤ i

	// perPoint[p] caches the per-class nearest candidates from point p and
	// the via-minimum; allocated lazily on first query.
	perPoint []*tauPointCache
}

// tauPointCache is the static part of one point's budget: per class i the
// nearest candidate of class ≤ i, and the minimizer of C_i + d(C_i, p).
type tauPointCache struct {
	nearPt    []int
	nearD     []float64
	bestVia   float64
	bestClass int
	bestPoint int
}

// at returns the (lazily computed) class-distance minima for point p. One
// pass over the exact-class candidate suffixes with a running prefix minimum
// examines each candidate once and reproduces metric.Nearest's
// earliest-wins tie-breaking over the cumulative lists exactly.
func (tc *tauClasses) at(space metric.Space, p int) *tauPointCache {
	if tc.perPoint == nil {
		tc.perPoint = make([]*tauPointCache, space.Len())
	}
	if c := tc.perPoint[p]; c != nil {
		return c
	}
	c := &tauPointCache{
		nearPt:    make([]int, len(tc.values)),
		nearD:     make([]float64, len(tc.values)),
		bestVia:   math.Inf(1),
		bestClass: -1,
		bestPoint: -1,
	}
	bestPt, bestD := -1, math.Inf(1)
	for i, v := range tc.values {
		lo := 0
		if i > 0 {
			lo = len(tc.points[i-1])
		}
		for _, m := range tc.points[i][lo:] {
			if d := space.Distance(p, m); d < bestD {
				bestPt, bestD = m, d
			}
		}
		c.nearPt[i], c.nearD[i] = bestPt, bestD
		if via := v + bestD; via < c.bestVia {
			c.bestVia = via
			c.bestClass, c.bestPoint = i, bestPt
		}
	}
	tc.perPoint[p] = c
	return c
}

func buildTauClasses(cands []int, costAt func(m int) float64) tauClasses {
	type pc struct {
		point int
		class float64
	}
	pcs := make([]pc, 0, len(cands))
	for _, m := range cands {
		c := costAt(m)
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			panic("core: facility costs must be positive and finite")
		}
		pcs = append(pcs, pc{point: m, class: math.Pow(2, math.Floor(math.Log2(c)))})
	}
	distinct := map[float64]bool{}
	for _, x := range pcs {
		distinct[x.class] = true
	}
	var tc tauClasses
	for v := range distinct {
		tc.values = append(tc.values, v)
	}
	// Insertion sort: class counts are tiny (log of the cost spread).
	for i := 1; i < len(tc.values); i++ {
		for j := i; j > 0 && tc.values[j] < tc.values[j-1]; j-- {
			tc.values[j], tc.values[j-1] = tc.values[j-1], tc.values[j]
		}
	}
	tc.points = make([][]int, len(tc.values))
	for i, v := range tc.values {
		var pts []int
		if i > 0 {
			pts = append(pts, tc.points[i-1]...)
		}
		for _, x := range pcs {
			if x.class == v { //omflp:floatexact — class tags are computed by the identical Pow(2, Floor(Log2)) expression; equality is bit-reliable
				pts = append(pts, x.point)
			}
		}
		tc.points[i] = pts
	}
	return tc
}

// NewRandOMFLP constructs the randomized algorithm. All randomness flows
// from rng; pass a seeded source for reproducible runs.
func NewRandOMFLP(space metric.Space, costs cost.Model, opts Options, rng *rand.Rand) *RandOMFLP {
	u := costs.Universe()
	cands := opts.candidates(space)
	if len(cands) == 0 {
		panic("core: RAND-OMFLP needs at least one candidate point")
	}
	ct := buildCostTable(space, costs, cands)
	ra := &RandOMFLP{
		space:     space,
		costs:     costs,
		u:         u,
		opts:      opts,
		rng:       rng,
		fx:        newFacilityIndex(space, u),
		nCands:    len(cands),
		smallOpen: map[[2]int]bool{},
		largeOpen: map[int]bool{},
	}
	ra.smallClasses = make([]tauClasses, u)
	for e := 0; e < u; e++ {
		row := ct.single[e]
		ra.smallClasses[e] = buildTauClasses(cands, func(m int) float64 {
			return row[indexOf(cands, m)]
		})
	}
	ra.largeClasses = buildTauClasses(cands, func(m int) float64 {
		return ct.full[indexOf(cands, m)]
	})
	return ra
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	panic("core: candidate index lookup failed")
}

// Name implements online.Algorithm.
func (ra *RandOMFLP) Name() string {
	if ra.opts.DisablePrediction {
		return "rand-omflp(no-prediction)"
	}
	return "rand-omflp"
}

// Solution implements online.Algorithm.
func (ra *RandOMFLP) Solution() *instance.Solution { return ra.fx.sol }

// RandFactory returns an online.Factory for RAND-OMFLP; the seed passed at
// run time feeds the algorithm's RNG.
func RandFactory(opts Options) online.Factory {
	name := "rand-omflp"
	if opts.DisablePrediction {
		name = "rand-omflp(no-prediction)"
	}
	return online.Factory{
		Name: name,
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewRandOMFLP(space, costs, opts, rand.New(rand.NewSource(seed)))
		},
	}
}

// flip draws one coin flip, counting the draw so the rng position is part
// of the serializable state (see UnmarshalState). Every consumption of the
// rng goes through here.
func (ra *RandOMFLP) flip() float64 {
	ra.draws++
	return ra.rng.Float64()
}

// budgetSmall returns X(r,e) and the (class, point) minimizing
// C_i + d(C_i, r) for forced openings. The class-distance part is read from
// the per-point cache; only the nearest-open-facility term is dynamic.
func (ra *RandOMFLP) budgetSmall(e, p int) (x float64, bestClass, bestPoint int) {
	_, dF := ra.fx.nearestOffering(e, p)
	c := ra.smallClasses[e].at(ra.space, p)
	x = dF
	if c.bestVia < x {
		x = c.bestVia
	}
	return x, c.bestClass, c.bestPoint
}

// budgetLarge returns Z(r) and the minimizing (class, point).
func (ra *RandOMFLP) budgetLarge(p int) (z float64, bestClass, bestPoint int) {
	_, dF := ra.fx.nearestLarge(p)
	c := ra.largeClasses.at(ra.space, p)
	z = dF
	if c.bestVia < z {
		z = c.bestVia
	}
	return z, c.bestClass, c.bestPoint
}

// Serve implements online.Algorithm: Algorithm 2 on arrival of request r.
func (ra *RandOMFLP) Serve(r instance.Request) {
	p := r.Point
	ids := r.Demands.IDs()

	xr := make([]float64, len(ids))
	var x float64
	for i, e := range ids {
		xr[i], _, _ = ra.budgetSmall(e, p)
		x += xr[i]
	}
	z := math.Inf(1)
	if !ra.opts.DisablePrediction {
		z, _, _ = ra.budgetLarge(p)
	}
	d0 := math.Min(z, x)

	// Coin flips for small facilities, per commodity and class.
	for i, e := range ids {
		if x <= 0 {
			break // zero budget: a facility already sits on the request
		}
		share := xr[i] / x
		tc := &ra.smallClasses[e]
		cache := tc.at(ra.space, p)
		prev := d0
		for ci, cv := range tc.values {
			pt, d := cache.nearPt[ci], cache.nearD[ci]
			improvement := prev - d
			prev = math.Min(prev, d)
			if improvement <= 0 {
				continue
			}
			prob := improvement / cv * share
			if prob > 1 {
				prob = 1
			}
			if ra.flip() < prob {
				ra.openSmallDedup(e, pt)
			}
		}
	}

	// Coin flips for large facilities, per class.
	if !ra.opts.DisablePrediction {
		cache := ra.largeClasses.at(ra.space, p)
		prev := d0
		for ci, cv := range ra.largeClasses.values {
			pt, d := cache.nearPt[ci], cache.nearD[ci]
			improvement := prev - d
			prev = math.Min(prev, d)
			if improvement <= 0 {
				continue
			}
			prob := improvement / cv
			if prob > 1 {
				prob = 1
			}
			if ra.flip() < prob {
				ra.openLargeDedup(pt)
			}
		}
	}

	// Forced openings: every demanded commodity must be servable.
	for _, e := range ids {
		if _, d := ra.fx.nearestOffering(e, p); math.IsInf(d, 1) {
			_, _, pt := ra.budgetSmall(e, p)
			if pt < 0 {
				panic("core: RAND-OMFLP has no candidate to cover a commodity")
			}
			ra.openSmallDedup(e, pt)
		}
	}

	// Connect: cheaper of the two Figure 3 modes, or the exact subset DP
	// if the OptimalReassign ablation is on.
	var links []int
	if ra.opts.OptimalReassign {
		links, _ = instance.BestAssignment(ra.space, ra.fx.sol.Facilities, r)
	} else {
		linkSet := map[int]bool{}
		var smallCost float64
		var smallLinks []int
		for _, e := range ids {
			fac, d := ra.fx.nearestOffering(e, p)
			smallCost += d
			if !linkSet[fac] {
				linkSet[fac] = true
				smallLinks = append(smallLinks, fac)
			}
		}
		largeFac, dL := ra.fx.nearestLarge(p)
		if dL < smallCost {
			links = []int{largeFac}
		} else {
			links = smallLinks
		}
	}
	ra.fx.sol.Assign = append(ra.fx.sol.Assign, links)
}

// openSmallDedup opens a small facility for e at pt unless an identical one
// exists or a large facility already sits at pt (which offers e at the same
// distance — opening the singleton would be pure waste; skipping dominated
// openings only lowers cost and leaves the analysis intact).
func (ra *RandOMFLP) openSmallDedup(e, pt int) {
	key := [2]int{e, pt}
	if ra.smallOpen[key] || ra.largeOpen[pt] {
		return
	}
	ra.smallOpen[key] = true
	ra.fx.openSmall(e, pt)
}

// openLargeDedup opens a large facility at pt unless one exists there. In
// the degenerate universe |S| = 1 a "large" facility equals the singleton
// facility, so an existing small facility at pt also suppresses the opening.
func (ra *RandOMFLP) openLargeDedup(pt int) {
	if ra.largeOpen[pt] {
		return
	}
	if ra.u == 1 && ra.smallOpen[[2]int{0, pt}] {
		return
	}
	ra.largeOpen[pt] = true
	ra.fx.openLarge(pt)
}
