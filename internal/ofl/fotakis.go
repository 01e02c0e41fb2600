package ofl

import (
	"math"

	"repro/internal/metric"
)

// FotakisPD is a deterministic primal-dual online facility location
// algorithm in the style of Fotakis: each demand raises its dual variable
// a_r until it either reaches the distance of the nearest open facility
// (connect) or, together with the reinvested duals of earlier demands, pays
// for a new facility at some candidate point (open and connect). It is the
// single-commodity restriction of PD-OMFLP's Constraints (1) and (3).
type FotakisPD struct {
	space      metric.Space
	fc         FacilityCost
	cands      []int
	facilities []int
	open       map[int]bool
	// credits[j] = min{a_j, d(F, p_j)} for each earlier demand j — the
	// amount demand j keeps bidding toward new facilities.
	credits []float64
	points  []int // demand points, aligned with credits
}

// NewFotakisPD builds the algorithm over the given candidate facility points.
func NewFotakisPD(space metric.Space, fc FacilityCost, candidates []int) *FotakisPD {
	if len(candidates) == 0 {
		panic("ofl: FotakisPD needs at least one candidate point")
	}
	for _, m := range candidates {
		if c := fc(m); c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			panic("ofl: facility costs must be positive and finite")
		}
	}
	cp := append([]int(nil), candidates...)
	return &FotakisPD{space: space, fc: fc, cands: cp, open: map[int]bool{}}
}

// Facilities returns the open facility points in opening order.
func (f *FotakisPD) Facilities() []int { return f.facilities }

// bidSum returns Σ_j (credit_j − d(m, j))_+ — the reinvestment of earlier
// demands toward a facility at m.
func (f *FotakisPD) bidSum(m int) float64 {
	var sum float64
	for j, credit := range f.credits {
		if b := credit - f.space.Distance(m, f.points[j]); b > 0 {
			sum += b
		}
	}
	return sum
}

// Place processes a demand at p.
func (f *FotakisPD) Place(p int) (connectTo int, opened []int) {
	_, dF := nearestFacility(f.space, f.facilities, p)

	// The dual a rises until Constraint (1) (a = dF) or Constraint (3)
	// for some candidate m (a = f_m − bidSum(m) + d(m, p)) becomes tight.
	// Both thresholds are constants during the rise, so we jump directly
	// to the smallest.
	bestM, bestA := -1, dF
	for _, m := range f.cands {
		need := f.fc(m) - f.bidSum(m) + f.space.Distance(m, p)
		if need < 0 {
			need = 0
		}
		if need < bestA {
			bestM, bestA = m, need
		}
	}
	a := bestA

	if bestM >= 0 {
		// Constraint (3) tight first: open at bestM (if not already) and
		// connect there.
		if !f.open[bestM] {
			f.open[bestM] = true
			f.facilities = append(f.facilities, bestM)
			opened = append(opened, bestM)
		}
		connectTo = bestM
	} else {
		// Constraint (1) tight first: connect to the nearest facility.
		connectTo, _ = nearestFacility(f.space, f.facilities, p)
	}

	// Record the frozen dual's credit for future reinvestment.
	_, dNow := nearestFacility(f.space, f.facilities, p)
	f.credits = append(f.credits, math.Min(a, dNow))
	f.points = append(f.points, p)
	return connectTo, opened
}
