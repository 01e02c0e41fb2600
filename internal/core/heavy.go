package core

import (
	"math"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/ofl"
	"repro/internal/online"
)

// HeavyAware implements the extension sketched in the paper's closing
// remarks (Section 5): when a few "heavy" commodities would break
// Condition 1 — adding them to a configuration disproportionately raises
// construction cost — run the main algorithm on the light commodities only
// (large facilities offer all light commodities) and serve each heavy
// commodity with its own single-commodity online facility location instance.
//
// Heaviness test: commodity e is heavy at threshold θ if its singleton cost
// exceeds θ times the average per-commodity cost of the full configuration,
// averaged over candidate points: f^{e} > θ·f^S/|S|.
type HeavyAware struct {
	light  []int // light commodity IDs
	heavy  []int // heavy commodity IDs
	inner  *PDOMFLP
	heavyA map[int]*ofl.FotakisPD // per heavy commodity

	lightMap  map[int]int // global commodity ID -> inner ID
	lightMask commodity.Set

	sol *instance.Solution
	// Bookkeeping to translate inner solutions into the global one.
	innerToGlobal []int          // inner facility index -> global facility index
	heavyFacIdx   map[[2]int]int // (heavy e, point) -> global facility index

	// linkBuf is the per-arrival link-dedup scratch, reused across Serve
	// calls (the retained Assign row is copied out of it) so the hot path
	// stays allocation-free alongside the inner PD's event-driven loop.
	linkBuf []int
}

// lightCost exposes the inner (light-only) universe of a base cost model:
// configurations over the light IDs are translated back to global sets.
type lightCost struct {
	base  cost.Model
	light []int
}

func (lc *lightCost) Universe() int { return len(lc.light) }
func (lc *lightCost) Name() string  { return "light(" + lc.base.Name() + ")" }

func (lc *lightCost) Cost(m int, sigma commodity.Set) float64 {
	var global commodity.Set
	sigma.ForEach(func(inner int) {
		global = global.With(lc.light[inner])
	})
	return lc.base.Cost(m, global)
}

// NewHeavyAware splits the universe at threshold theta and wires up the
// inner algorithms. theta ≥ 1; typical values are small constants.
func NewHeavyAware(space metric.Space, costs cost.Model, opts Options, theta float64) *HeavyAware {
	u := costs.Universe()
	cands := opts.candidates(space)
	full := commodity.Full(u)

	var light, heavy []int
	for e := 0; e < u; e++ {
		cfg := commodity.New(e)
		var fe, fs float64
		for _, m := range cands {
			fe += costs.Cost(m, cfg)
			fs += costs.Cost(m, full)
		}
		if fe > theta*fs/float64(u) {
			heavy = append(heavy, e)
		} else {
			light = append(light, e)
		}
	}
	// Degenerate split: everything heavy would leave no inner instance;
	// treat all as light instead (plain PD-OMFLP).
	if len(light) == 0 {
		light, heavy = heavy, nil
	}

	ha := &HeavyAware{
		light:       light,
		heavy:       heavy,
		heavyA:      map[int]*ofl.FotakisPD{},
		lightMap:    map[int]int{},
		sol:         &instance.Solution{},
		heavyFacIdx: map[[2]int]int{},
	}
	for inner, e := range light {
		ha.lightMap[e] = inner
		ha.lightMask = ha.lightMask.With(e)
	}
	innerOpts := opts
	innerOpts.Candidates = cands
	ha.inner = NewPDOMFLP(space, &lightCost{base: costs, light: light}, innerOpts)
	for _, e := range heavy {
		cfg := commodity.New(e)
		fc := func(m int) float64 { return costs.Cost(m, cfg) }
		ha.heavyA[e] = ofl.NewFotakisPD(space, fc, cands)
	}
	return ha
}

// Name implements online.Algorithm.
func (ha *HeavyAware) Name() string { return "pd-omflp(heavy-aware)" }

// HeavySplit reports the heavy/light partition for diagnostics.
func (ha *HeavyAware) HeavySplit() (light, heavy []int) { return ha.light, ha.heavy }

// Serve implements online.Algorithm: light commodities go to the inner
// PD-OMFLP (with IDs remapped), heavy ones to their dedicated OFL instances.
func (ha *HeavyAware) Serve(r instance.Request) {
	// Dedup links with a linear scan over the reusable buffer instead of a
	// per-arrival map: link counts are tiny (≤ demanded commodities), and
	// first-occurrence order — the serialized contract — is preserved.
	ha.linkBuf = ha.linkBuf[:0]
	addLink := func(idx int) {
		for _, l := range ha.linkBuf {
			if l == idx {
				return
			}
		}
		ha.linkBuf = append(ha.linkBuf, idx)
	}

	lightPart := r.Demands.Intersect(ha.lightMask)
	if !lightPart.IsEmpty() {
		var innerSet commodity.Set
		lightPart.ForEach(func(e int) {
			innerSet = innerSet.With(ha.lightMap[e])
		})
		before := len(ha.inner.Solution().Facilities)
		ha.inner.Serve(instance.Request{Point: r.Point, Demands: innerSet})
		innerSol := ha.inner.Solution()
		// Mirror any newly opened inner facilities into the global
		// solution, translating configurations back to global IDs.
		for idx := before; idx < len(innerSol.Facilities); idx++ {
			f := innerSol.Facilities[idx]
			var global commodity.Set
			f.Config.ForEach(func(inner int) {
				global = global.With(ha.light[inner])
			})
			ha.innerToGlobal = append(ha.innerToGlobal, len(ha.sol.Facilities))
			ha.sol.Facilities = append(ha.sol.Facilities, instance.Facility{Point: f.Point, Config: global})
		}
		innerLinks := innerSol.Assign[len(innerSol.Assign)-1]
		for _, idx := range innerLinks {
			addLink(ha.innerToGlobal[idx])
		}
	}

	r.Demands.Subtract(ha.lightMask).ForEach(func(e int) {
		alg := ha.heavyA[e]
		connect, opened := alg.Place(r.Point)
		for _, m := range opened {
			key := [2]int{e, m}
			if _, ok := ha.heavyFacIdx[key]; !ok {
				ha.heavyFacIdx[key] = len(ha.sol.Facilities)
				ha.sol.Facilities = append(ha.sol.Facilities, instance.Facility{
					Point:  m,
					Config: commodity.New(e),
				})
			}
		}
		idx, ok := ha.heavyFacIdx[[2]int{e, connect}]
		if !ok {
			panic("core: heavy commodity connected to an untracked facility")
		}
		addLink(idx)
	})

	var links []int
	if len(ha.linkBuf) > 0 {
		links = make([]int, len(ha.linkBuf))
		copy(links, ha.linkBuf)
	}
	ha.sol.Assign = append(ha.sol.Assign, links)
}

// Solution implements online.Algorithm.
func (ha *HeavyAware) Solution() *instance.Solution { return ha.sol }

// HeavyFactory returns an online.Factory for the heavy-aware extension.
func HeavyFactory(opts Options, theta float64) online.Factory {
	if theta < 1 || math.IsNaN(theta) {
		panic("core: heavy threshold must be ≥ 1")
	}
	return online.Factory{
		Name: "pd-omflp(heavy-aware)",
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewHeavyAware(space, costs, opts, theta)
		},
	}
}
