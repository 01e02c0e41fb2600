package ofl

import (
	"math"
	"math/rand"

	"repro/internal/metric"
)

// Meyerson is Meyerson's randomized online facility location algorithm with
// power-of-two cost classes for non-uniform facility costs.
//
// On a demand at p it computes the budget
//
//	X(p) = min{ d(F, p), min_i { C_i + d(C_i, p) } }
//
// and, for each class i, opens the class-≤i facility nearest to p with
// probability (d(C_{i-1}, p) − d(C_i, p))/C_i, where d(C_0, p) := X(p).
// If afterwards no facility is open at all, it deterministically opens the
// facility minimizing C_i + d(C_i, p) (the pseudocode in the papers leaves
// this forced case implicit; feasibility requires it). The demand connects
// to the nearest open facility.
type Meyerson struct {
	space      metric.Space
	rng        *rand.Rand
	cl         classes
	facilities []int
	open       map[int]bool
}

// NewMeyerson builds the algorithm over the given candidate facility points.
func NewMeyerson(space metric.Space, fc FacilityCost, candidates []int, rng *rand.Rand) *Meyerson {
	if len(candidates) == 0 {
		panic("ofl: Meyerson needs at least one candidate point")
	}
	return &Meyerson{
		space: space,
		rng:   rng,
		cl:    buildClasses(candidates, fc),
		open:  map[int]bool{},
	}
}

// Facilities returns the open facility points in opening order.
func (m *Meyerson) Facilities() []int { return m.facilities }

// Place processes a demand at p.
func (m *Meyerson) Place(p int) (connectTo int, opened []int) {
	_, dF := nearestFacility(m.space, m.facilities, p)

	// Budget X(p).
	budget := dF
	for i, ci := range m.cl.values {
		if _, d := m.cl.nearest(m.space, i, p); ci+d < budget {
			budget = ci + d
		}
	}

	// Class-wise coin flips.
	prev := budget
	for i, ci := range m.cl.values {
		pt, d := m.cl.nearest(m.space, i, p)
		improvement := prev - d
		prev = math.Min(prev, d)
		if improvement <= 0 {
			continue
		}
		prob := improvement / ci
		if prob > 1 {
			prob = 1
		}
		if m.rng.Float64() < prob {
			if !m.open[pt] {
				m.open[pt] = true
				m.facilities = append(m.facilities, pt)
				opened = append(opened, pt)
			}
		}
	}

	// Forced opening: feasibility demands at least one facility.
	if len(m.facilities) == 0 {
		bestPt, bestC := -1, math.Inf(1)
		for i, ci := range m.cl.values {
			if pt, d := m.cl.nearest(m.space, i, p); ci+d < bestC {
				bestPt, bestC = pt, ci+d
			}
		}
		m.open[bestPt] = true
		m.facilities = append(m.facilities, bestPt)
		opened = append(opened, bestPt)
	}

	connectTo, _ = nearestFacility(m.space, m.facilities, p)
	return connectTo, opened
}
