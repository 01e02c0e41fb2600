// Package baseline provides the comparison algorithms the reproduction
// measures PD-OMFLP and RAND-OMFLP against:
//
// Online baselines
//   - PerCommodity: the trivial algorithm from Section 1.3 — one independent
//     single-commodity Online Facility Location instance per commodity
//     (Fotakis-style deterministic PD or Meyerson), giving
//     O(|S|·log n/log log n) competitiveness but no bundling.
//   - NoPrediction: a greedy that never opens a facility for a commodity
//     that was not requested; the Theorem 2 game forces it into Ω(|S|).
//
// Offline OPT proxies
//   - ExactSmall: branch-and-bound exact solver for small instances.
//   - StarGreedy: Ravi–Sinha-flavoured greedy over (point, config, request
//     prefix) stars.
//   - LocalSearch: add/drop/swap local search seeded by StarGreedy.
package baseline

import (
	"math/rand"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/ofl"
	"repro/internal/online"
)

// PerCommodity runs an independent single-commodity OFL algorithm per
// commodity. All its facilities are singletons, so requests connect to one
// facility per demanded commodity.
type PerCommodity struct {
	algs []ofl.Algorithm
	sol  *instance.Solution
	// facIdx maps (commodity, point) to the global facility index.
	facIdx map[[2]int]int
	name   string
}

// NewPerCommodityPD builds the baseline on the deterministic Fotakis-style
// substrate.
func NewPerCommodityPD(space metric.Space, costs cost.Model, candidates []int) *PerCommodity {
	u := costs.Universe()
	pc := newPerCommodity(u, "per-commodity(pd)")
	for e := 0; e < u; e++ {
		cfg := commodity.New(e)
		fc := func(m int) float64 { return costs.Cost(m, cfg) }
		pc.algs[e] = ofl.NewFotakisPD(space, fc, candidates)
	}
	return pc
}

// NewPerCommodityMeyerson builds the baseline on Meyerson's randomized
// substrate. Each commodity gets its own RNG stream derived from rng.
func NewPerCommodityMeyerson(space metric.Space, costs cost.Model, candidates []int, rng *rand.Rand) *PerCommodity {
	u := costs.Universe()
	pc := newPerCommodity(u, "per-commodity(meyerson)")
	for e := 0; e < u; e++ {
		cfg := commodity.New(e)
		fc := func(m int) float64 { return costs.Cost(m, cfg) }
		pc.algs[e] = ofl.NewMeyerson(space, fc, candidates, rand.New(rand.NewSource(rng.Int63())))
	}
	return pc
}

func newPerCommodity(u int, name string) *PerCommodity {
	return &PerCommodity{
		algs:   make([]ofl.Algorithm, u),
		sol:    &instance.Solution{},
		facIdx: map[[2]int]int{},
		name:   name,
	}
}

// Name implements online.Algorithm.
func (pc *PerCommodity) Name() string { return pc.name }

// Solution implements online.Algorithm.
func (pc *PerCommodity) Solution() *instance.Solution { return pc.sol }

// Serve implements online.Algorithm.
func (pc *PerCommodity) Serve(r instance.Request) {
	var links []int
	seen := map[int]bool{}
	r.Demands.ForEach(func(e int) {
		connect, opened := pc.algs[e].Place(r.Point)
		for _, m := range opened {
			key := [2]int{e, m}
			if _, ok := pc.facIdx[key]; !ok {
				pc.facIdx[key] = len(pc.sol.Facilities)
				pc.sol.Facilities = append(pc.sol.Facilities, instance.Facility{
					Point:  m,
					Config: commodity.New(e),
				})
			}
		}
		idx, ok := pc.facIdx[[2]int{e, connect}]
		if !ok {
			panic("baseline: per-commodity connected to an untracked facility")
		}
		if !seen[idx] {
			seen[idx] = true
			links = append(links, idx)
		}
	})
	pc.sol.Assign = append(pc.sol.Assign, links)
}

// PerCommodityPDFactory returns the deterministic per-commodity baseline
// factory. candidates == nil means all points.
func PerCommodityPDFactory(candidates []int) online.Factory {
	return online.Factory{
		Name: "per-commodity(pd)",
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewPerCommodityPD(space, costs, candidateList(space, candidates))
		},
	}
}

// PerCommodityMeyersonFactory returns the randomized per-commodity baseline
// factory.
func PerCommodityMeyersonFactory(candidates []int) online.Factory {
	return online.Factory{
		Name: "per-commodity(meyerson)",
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewPerCommodityMeyerson(space, costs, candidateList(space, candidates), rand.New(rand.NewSource(seed)))
		},
	}
}

func candidateList(space metric.Space, candidates []int) []int {
	if candidates != nil {
		return candidates
	}
	all := make([]int, space.Len())
	for i := range all {
		all[i] = i
	}
	return all
}

// NoPrediction is the strawman the Theorem 2 discussion rules out: on each
// request it serves every demanded commodity greedily — connect to the
// nearest facility already offering it, unless opening the cheapest
// singleton facility (cost + distance) is cheaper — and never offers a
// commodity that was not requested.
type NoPrediction struct {
	space metric.Space
	costs cost.Model
	cands []int
	sol   *instance.Solution
	byE   [][]int // facility indices per commodity
}

// NewNoPrediction builds the strawman baseline.
func NewNoPrediction(space metric.Space, costs cost.Model, candidates []int) *NoPrediction {
	return &NoPrediction{
		space: space,
		costs: costs,
		cands: candidateList(space, candidates),
		sol:   &instance.Solution{},
		byE:   make([][]int, costs.Universe()),
	}
}

// Name implements online.Algorithm.
func (np *NoPrediction) Name() string { return "no-prediction-greedy" }

// Solution implements online.Algorithm.
func (np *NoPrediction) Solution() *instance.Solution { return np.sol }

// Serve implements online.Algorithm.
func (np *NoPrediction) Serve(r instance.Request) {
	var links []int
	seen := map[int]bool{}
	r.Demands.ForEach(func(e int) {
		// Existing option.
		bestIdx, bestD := -1, 0.0
		first := true
		for _, idx := range np.byE[e] {
			d := np.space.Distance(r.Point, np.sol.Facilities[idx].Point)
			if first || d < bestD {
				bestIdx, bestD, first = idx, d, false
			}
		}
		// Opening option.
		cfg := commodity.New(e)
		openM, openCost := -1, 0.0
		for _, m := range np.cands {
			c := np.costs.Cost(m, cfg) + np.space.Distance(r.Point, m)
			if openM < 0 || c < openCost {
				openM, openCost = m, c
			}
		}
		if bestIdx < 0 || openCost < bestD {
			idx := len(np.sol.Facilities)
			np.sol.Facilities = append(np.sol.Facilities, instance.Facility{Point: openM, Config: cfg})
			np.byE[e] = append(np.byE[e], idx)
			bestIdx = idx
		}
		if !seen[bestIdx] {
			seen[bestIdx] = true
			links = append(links, bestIdx)
		}
	})
	np.sol.Assign = append(np.sol.Assign, links)
}

// NoPredictionFactory returns the strawman baseline factory.
func NoPredictionFactory(candidates []int) online.Factory {
	return online.Factory{
		Name: "no-prediction-greedy",
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewNoPrediction(space, costs, candidates)
		},
	}
}
