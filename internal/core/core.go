// Package core implements the two online algorithms contributed by the
// paper: the deterministic primal-dual PD-OMFLP (Algorithm 1, Theorem 4,
// O(√|S|·log n)-competitive) and the randomized RAND-OMFLP (Algorithm 2,
// Theorem 19, O(√|S|·log n/log log n)-competitive). PD-OMFLP also exposes
// its dual solution (Duals, DualTotal); the experiments in internal/sim check
// Lemma 14 and Corollary 17 against it.
//
// Both algorithms follow the structural insight of Section 2: they only ever
// open "small" facilities offering a single commodity and "large" facilities
// offering all of S — the large facilities realize the prediction that the
// Ω(√|S|) lower bound shows is unavoidable.
package core

import (
	"cmp"
	"slices"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// Options configures the core algorithms.
type Options struct {
	// Candidates lists the points where facilities may be opened.
	// nil means every point of the metric space (the paper's setting).
	Candidates []int
	// DisablePrediction turns off large facilities entirely (PD-OMFLP
	// ignores Constraints (2) and (4); RAND-OMFLP never rolls for large
	// facilities). This is the ablation of the Section 2 discussion: any
	// such algorithm is forced into Ω(|S|) on the Theorem 2 game.
	DisablePrediction bool
	// OptimalReassign, for RAND-OMFLP only: connect each request with the
	// exact min-cost facility subset (subset DP) instead of the paper's
	// two connection modes (all-small vs one-large, Figure 3). Never
	// worse; kept as an ablation.
	OptimalReassign bool
}

func (o Options) candidates(space metric.Space) []int {
	if o.Candidates != nil {
		cands := append([]int(nil), o.Candidates...)
		return cands
	}
	cands := make([]int, space.Len())
	for i := range cands {
		cands[i] = i
	}
	return cands
}

// facilityIndex tracks open facilities and answers nearest-facility queries
// per commodity. Small facilities offer one commodity; large facilities
// offer all of S.
//
// Queries are answered through per-point incremental caches: facilities only
// ever open (never close or move), so the nearest-facility distance from any
// fixed point is non-increasing over the run. Each cache entry remembers the
// best facility seen so far plus a cursor into the append-only facility list;
// a query only scans the facilities opened since the cursor. Every
// (query point, facility) pair is therefore examined at most once over the
// whole run, instead of every open facility being rescanned on every query —
// the O(|open|) scan that made serve throughput degrade linearly in |S|.
type facilityIndex struct {
	space   metric.Space
	u       int
	sol     *instance.Solution
	smallBy [][]int // smallBy[e]: indices into sol.Facilities of small facilities for e
	large   []int   // indices into sol.Facilities of large facilities

	// largeCache[p] caches the nearest large facility from point p;
	// smallCache[e][p] the nearest small facility for commodity e (rows
	// allocated lazily on the first facility/query for e).
	largeCache []nearestCache
	smallCache [][]nearestCache
}

// nearestCache is one point's incremental view of an append-only facility
// list: best facility among list[:cursor] and its distance.
type nearestCache struct {
	cursor int
	best   int
	bestD  float64
}

func newFacilityIndex(space metric.Space, u int) *facilityIndex {
	return &facilityIndex{
		space:      space,
		u:          u,
		sol:        &instance.Solution{},
		smallBy:    make([][]int, u),
		largeCache: newNearestCacheRow(space.Len()),
		smallCache: make([][]nearestCache, u),
	}
}

func newNearestCacheRow(n int) []nearestCache {
	row := make([]nearestCache, n)
	for i := range row {
		row[i] = nearestCache{best: -1, bestD: infinity}
	}
	return row
}

// advance scans list[c.cursor:] (facility indices into sol.Facilities) and
// folds any strictly closer facility into the cache. Strict < keeps the
// earliest-opened facility on ties — the same tie-break as the original full
// scan, so results are bit-identical to the pre-cache implementation.
func (c *nearestCache) advance(fx *facilityIndex, list []int, p int) {
	for _, idx := range list[c.cursor:] {
		if d := fx.space.Distance(p, fx.sol.Facilities[idx].Point); d < c.bestD {
			c.best, c.bestD = idx, d
		}
	}
	c.cursor = len(list)
}

// openSmall opens a small facility for commodity e at point m and returns
// its index.
func (fx *facilityIndex) openSmall(e, m int) int {
	idx := len(fx.sol.Facilities)
	fx.sol.Facilities = append(fx.sol.Facilities, instance.Facility{
		Point:  m,
		Config: commodity.New(e),
	})
	fx.smallBy[e] = append(fx.smallBy[e], idx)
	return idx
}

// openLarge opens a large facility (offering all of S) at point m and
// returns its index.
func (fx *facilityIndex) openLarge(m int) int {
	idx := len(fx.sol.Facilities)
	fx.sol.Facilities = append(fx.sol.Facilities, instance.Facility{
		Point:  m,
		Config: commodity.Full(fx.u),
	})
	fx.large = append(fx.large, idx)
	return idx
}

// nearestOffering returns the open facility nearest to p that offers
// commodity e (small-for-e or large), as (facility index, distance);
// (-1, +Inf) if none. Amortized O(1) per query plus O(1) per facility opened
// since the last query from p (see facilityIndex).
func (fx *facilityIndex) nearestOffering(e, p int) (int, float64) {
	best, bestD := fx.nearestLarge(p)
	if fx.smallCache[e] == nil {
		if len(fx.smallBy[e]) == 0 {
			return best, bestD
		}
		fx.smallCache[e] = newNearestCacheRow(fx.space.Len())
	}
	c := &fx.smallCache[e][p]
	c.advance(fx, fx.smallBy[e], p)
	if c.bestD < bestD {
		best, bestD = c.best, c.bestD
	}
	return best, bestD
}

// nearestLarge returns the nearest large facility as (index, distance);
// (-1, +Inf) if none.
func (fx *facilityIndex) nearestLarge(p int) (int, float64) {
	c := &fx.largeCache[p]
	c.advance(fx, fx.large, p)
	return c.best, c.bestD
}

const infinity = 1e308

// singleCosts precomputes f_m^{e} for every candidate point (and f_m^S),
// shared by both algorithms. It also caches, per point of the space, the
// distances from every candidate to that point: the dCand vector of the
// PD Serve loop and the per-credit distance lookups of the incremental bid
// accumulators both read the same rows, so each row is computed once over
// the whole run (credit refreshes read a column instead; see column).
// Beside each row it keeps the candidate indices ordered by that distance
// (ties by index), so PD's bid updates and threshold scans visit candidates
// nearest-first and stop as soon as no farther candidate can matter.
type costTable struct {
	space    metric.Space
	cands    []int
	single   [][]float64 // [e][candIdx]
	full     []float64   // [candIdx]
	distRows [][]float64 // [point][candIdx], filled lazily by distTo
	byDist   [][]int32   // [point]: candIdx by ascending distRows[point], filled with the row
}

func buildCostTable(space metric.Space, costs cost.Model, cands []int) *costTable {
	u := costs.Universe()
	t := &costTable{
		space:    space,
		cands:    cands,
		distRows: make([][]float64, space.Len()),
		byDist:   make([][]int32, space.Len()),
	}
	t.single = make([][]float64, u)
	fullSet := commodity.Full(u)
	for e := 0; e < u; e++ {
		row := make([]float64, len(cands))
		cfg := commodity.New(e)
		for ci, m := range cands {
			row[ci] = costs.Cost(m, cfg)
		}
		t.single[e] = row
	}
	t.full = make([]float64, len(cands))
	for ci, m := range cands {
		t.full[ci] = costs.Cost(m, fullSet)
	}
	return t
}

// distTo returns the distances from every candidate to point p and the
// candidate indices ordered by them, nearest first (ties by index),
// computing and caching both on first use.
func (t *costTable) distTo(p int) ([]float64, []int32) {
	if row := t.distRows[p]; row != nil {
		return row, t.byDist[p]
	}
	row := make([]float64, len(t.cands))
	order := make([]int32, len(t.cands))
	for ci, m := range t.cands {
		row[ci] = t.space.Distance(m, p)
		order[ci] = int32(ci)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(row[a], row[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	t.distRows[p] = row
	t.byDist[p] = order
	return row, order
}

// column returns the distances from candidate ci to every point of the
// space, written into buf (grown as needed). They come from the same
// Distance(cands[ci], q) calls that fill the rows, so column(ci)[q] equals
// the row distTo(q) holds at ci, bit for bit.
func (t *costTable) column(ci int, buf []float64) []float64 {
	n := t.space.Len()
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	col := buf[:n]
	m := t.cands[ci]
	for q := range col {
		col[q] = t.space.Distance(m, q)
	}
	return col
}
