// Package pdref is a plain transcription of PD-OMFLP, Algorithm 1 of
// Castenow et al., "The Online Multi-Commodity Facility Location Problem"
// (SPAA 2020). It is the differential oracle internal/core's event-driven
// serve loop is tested against and the baseline the perf experiment times
// that loop against; no serving path imports it.
//
// It shares no code with internal/core: nearest facilities come from linear
// scans, distances from one matrix built at construction, and every raise
// event rescans every candidate. Its decisions still match core.PDOMFLP bit
// for bit, because it evaluates every value a decision reads the way core
// does:
//   - d(x, y) is space.Distance(x, y) in core's argument order: the
//     candidate first for candidate-to-point distances, the request point
//     first for nearest-facility queries.
//   - A nearest-facility query scans the large facilities, then the small
//     ones, each in opening order with a strict <, so the earliest-opened
//     facility wins a tie and a small facility wins only when strictly
//     closer than every large one. No facility reads as distance 1e308.
//   - Thresholds, tight predicates and the tolerance are written as core
//     writes them.
//
// The bid sums Σ_j (credit_j − d(m, j))_+ of Constraints (3) and (4) are
// kept in one of two modes. Running mode adds a credit's contribution to
// the whole row when the credit is recorded and subtracts what a lowered
// credit loses; a candidate at or beyond the credit gets nothing either
// way, so the rows equal core's, which visit only the nearer candidates.
// Naive mode rebuilds the rows from the credit history on every arrival;
// its sums associate differently, so it agrees with core only up to
// rounding.
package pdref

import (
	"math"
	"slices"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// Mode selects how a PD keeps its bid sums.
type Mode int

const (
	// Running updates the bid rows as credits are recorded and lowered.
	Running Mode = iota
	// Naive rebuilds the bid rows from the credit history on every arrival.
	Naive
)

// Credit is an earlier request's bid cap: min{a_je, d(F(e), j)} for a
// Constraint (3) credit, min{Σ_e a_je, d(F̂, j)} for a Constraint (4) one.
type Credit struct {
	Point int
	Value float64
}

// PD is one run of Algorithm 1.
type PD struct {
	mode   Mode
	noPred bool
	cands  []int
	dist   [][]float64 // dist[x][y] = space.Distance(x, y)
	single [][]float64 // single[e][ci] = f^{e} at cands[ci]
	full   []float64   // full[ci] = f^S at cands[ci]
	u      int

	sol     instance.Solution
	smallBy [][]int // smallBy[e]: facility indices of the small facilities for e
	large   []int   // facility indices of the large facilities

	duals       [][]float64
	dualTotal   float64
	creditSmall [][]Credit
	creditLarge []Credit
	bidSmall    [][]float64 // Running mode; nil until commodity e's first credit
	bidLarge    []float64   // Running mode
}

const (
	infinity = 1e308 // distance to a facility that does not exist
	eps      = 1e-9  // tightness tolerance, scaled by 1 + Σa
)

// New starts a run. cands lists the points where facilities may open (nil:
// every point); disablePrediction drops Constraints (2) and (4), so no
// large facility opens.
func New(space metric.Space, costs cost.Model, cands []int, disablePrediction bool, mode Mode) *PD {
	n, u := space.Len(), costs.Universe()
	if cands == nil {
		cands = make([]int, n)
		for i := range cands {
			cands[i] = i
		}
	}
	if len(cands) == 0 {
		panic("pdref: PD-OMFLP needs at least one candidate point")
	}
	pd := &PD{
		mode:        mode,
		noPred:      disablePrediction,
		cands:       cands,
		dist:        make([][]float64, n),
		single:      make([][]float64, u),
		full:        make([]float64, len(cands)),
		u:           u,
		smallBy:     make([][]int, u),
		creditSmall: make([][]Credit, u),
		bidSmall:    make([][]float64, u),
		bidLarge:    make([]float64, len(cands)),
	}
	for x := range pd.dist {
		pd.dist[x] = make([]float64, n)
		for y := range pd.dist[x] {
			pd.dist[x][y] = space.Distance(x, y)
		}
	}
	for e := range pd.single {
		pd.single[e] = make([]float64, len(cands))
		for ci, m := range cands {
			pd.single[e][ci] = costs.Cost(m, commodity.New(e))
		}
	}
	all := commodity.Full(u)
	for ci, m := range cands {
		pd.full[ci] = costs.Cost(m, all)
	}
	return pd
}

// Name identifies the run in reports.
func (pd *PD) Name() string {
	if pd.mode == Naive {
		return "pdref(naive)"
	}
	return "pdref(running)"
}

// Solution returns the facilities opened so far and each request's links.
func (pd *PD) Solution() *instance.Solution { return &pd.sol }

// Duals returns each served request's frozen duals, aligned with its
// demanded commodities in ascending order.
func (pd *PD) Duals() [][]float64 { return pd.duals }

// DualTotal returns Σ_r Σ_e a_re, summed row by row in arrival order.
func (pd *PD) DualTotal() float64 { return pd.dualTotal }

// SmallCredits returns commodity e's credits in the order they were recorded.
func (pd *PD) SmallCredits(e int) []Credit { return pd.creditSmall[e] }

// LargeCredits returns the Constraint (4) credits, one per served request.
func (pd *PD) LargeCredits() []Credit { return pd.creditLarge }

// SmallBids returns commodity e's Constraint (3) bid row in Running mode:
// nil before e's first credit, and always nil in Naive mode.
func (pd *PD) SmallBids(e int) []float64 { return pd.bidSmall[e] }

// LargeBids returns the Constraint (4) bid row in Running mode (all zero in
// Naive mode).
func (pd *PD) LargeBids() []float64 { return pd.bidLarge }

// Serve runs Algorithm 1 on request r: it raises the duals of r's unfrozen
// commodities until a constraint goes tight, freezes what it serves, and
// repeats until every commodity is served.
func (pd *PD) Serve(r instance.Request) {
	p := r.Point
	ids := r.Demands.IDs()
	k := len(ids)

	dFe := make([]float64, k)
	bid3 := make([][]float64, k)
	for i, e := range ids {
		_, dFe[i] = pd.nearestOffering(e, p)
		bid3[i] = pd.bids(pd.bidSmall[e], pd.creditSmall[e])
	}
	_, dLarge := pd.nearestLarge(p)
	bid4 := pd.bids(pd.bidLarge, pd.creditLarge)
	dCand := make([]float64, len(pd.cands))
	for ci, m := range pd.cands {
		dCand[ci] = pd.dist[m][p]
	}

	type temp struct{ i, m int } // a temporary small facility for ids[i] at m
	var temps []temp
	a := make([]float64, k)
	frozen := make([]bool, k)
	conn := make([]int, k) // the facility serving ids[i]
	sumA := 0.0
	unfrozen := k
	largeServed := -1

	for unfrozen > 0 {
		// The earliest event: every threshold is affine in the raise Δ,
		// with slope 1 for (1) and (3) and slope `unfrozen` for (2) and (4).
		delta := math.Inf(1)
		for i, e := range ids {
			if frozen[i] {
				continue
			}
			// Constraint (1): a_e + Δ = d(F(e), r).
			if d := dFe[i] - a[i]; d < delta {
				delta = d
			}
			// Constraint (3): a_e + Δ = f_m^{e} − bids + d(m, r).
			for ci := range pd.cands {
				need := pd.single[e][ci] - bid3[i][ci] + dCand[ci] - a[i]
				if need < 0 {
					need = 0
				}
				if need < delta {
					delta = need
				}
			}
		}
		if !pd.noPred {
			// Constraint (2): Σa + unfrozen·Δ = d(F̂, r).
			if dLarge < infinity {
				if d := (dLarge - sumA) / float64(unfrozen); d < delta {
					delta = d
				}
			}
			// Constraint (4): Σa + unfrozen·Δ = f_m^S − bids + d(m, r).
			for ci := range pd.cands {
				need := (pd.full[ci] - bid4[ci] + dCand[ci] - sumA) / float64(unfrozen)
				if need < 0 {
					need = 0
				}
				if need < delta {
					delta = need
				}
			}
		}
		if math.IsInf(delta, 1) {
			panic("pdref: no tight constraint; no candidate can serve the request")
		}
		if delta < 0 {
			delta = 0
		}
		for i := range a {
			if !frozen[i] {
				a[i] += delta
			}
		}
		sumA += float64(unfrozen) * delta
		tol := eps * (1 + sumA)
		unfrozenBefore := unfrozen

		// Lines 3–5: freeze the commodities whose (1) or (3) is tight.
		for i, e := range ids {
			if frozen[i] {
				continue
			}
			if a[i] >= dFe[i]-tol {
				conn[i], _ = pd.nearestOffering(e, p)
				frozen[i] = true
				unfrozen--
			} else if ci := tight(a[i], pd.single[e], bid3[i], dCand, tol); ci >= 0 {
				temps = append(temps, temp{i, pd.cands[ci]})
				frozen[i] = true
				unfrozen--
			}
		}
		if !pd.noPred {
			// Lines 6–9: serve the whole request by one large facility,
			// an open one (2) or a new one (4).
			if dLarge < infinity && sumA >= dLarge-tol {
				largeServed, _ = pd.nearestLarge(p)
				break
			}
			if ci := tight(sumA, pd.full, bid4, dCand, tol); ci >= 0 {
				largeServed = pd.open(pd.cands[ci], -1)
				break
			}
		}
		// A zero raise that froze nothing would repeat forever.
		if delta == 0 && unfrozen == unfrozenBefore {
			panic("pdref: the event loop stalled on a zero raise")
		}
	}

	pd.duals = append(pd.duals, a)
	for _, v := range a {
		pd.dualTotal += v
	}
	var links []int
	if largeServed >= 0 {
		// The temporaries vanish. Lowering against an already open large
		// facility changes nothing (credits never exceed their distance to
		// an open facility); it runs anyway, so the tests pin that.
		links = []int{largeServed}
		pd.lowerLarge(pd.sol.Facilities[largeServed].Point)
	} else {
		for _, t := range temps {
			conn[t.i] = pd.open(t.m, ids[t.i])
		}
		for _, f := range conn {
			if !slices.Contains(links, f) {
				links = append(links, f)
			}
		}
		for _, t := range temps {
			pd.lowerSmall(ids[t.i], t.m)
		}
	}
	pd.sol.Assign = append(pd.sol.Assign, links)

	// Record r's own credits against the facilities open now.
	for i, e := range ids {
		_, d := pd.nearestOffering(e, p)
		pd.record(&pd.creditSmall[e], &pd.bidSmall[e], Credit{p, math.Min(a[i], d)})
	}
	_, dHat := pd.nearestLarge(p)
	pd.record(&pd.creditLarge, &pd.bidLarge, Credit{p, math.Min(sumA, dHat)})
}

// record appends credit cr to a ledger and, in Running mode, adds it to the
// ledger's bid row, allocated on the first credit.
func (pd *PD) record(ledger *[]Credit, row *[]float64, cr Credit) {
	*ledger = append(*ledger, cr)
	if pd.mode == Running {
		if *row == nil {
			*row = make([]float64, len(pd.cands))
		}
		pd.addBids(*row, cr)
	}
}

// tight returns the nearest candidate ci (the lowest index on equal
// distance) with x − d(m_ci, r) + bids[ci] ≥ f[ci] − tol, or -1 if none.
func tight(x float64, f, bids, dCand []float64, tol float64) int {
	best, bestD := -1, math.Inf(1)
	for ci := range f {
		if x-dCand[ci]+bids[ci] >= f[ci]-tol && dCand[ci] < bestD {
			best, bestD = ci, dCand[ci]
		}
	}
	return best
}

// bids returns the bid row a constraint reads: the running row (all zero
// before its first credit) or, in Naive mode, a rebuild from credits.
func (pd *PD) bids(row []float64, credits []Credit) []float64 {
	if pd.mode == Naive || row == nil {
		row = make([]float64, len(pd.cands))
	}
	if pd.mode == Naive {
		for _, cr := range credits {
			pd.addBids(row, cr)
		}
	}
	return row
}

// addBids adds credit cr's contribution (cr.Value − d(m, cr.Point))_+ to
// every candidate m of a bid row.
func (pd *PD) addBids(row []float64, cr Credit) {
	for ci, m := range pd.cands {
		if b := cr.Value - pd.dist[m][cr.Point]; b > 0 {
			row[ci] += b
		}
	}
}

// lower lowers credit cr to d when d is smaller and, in Running mode,
// subtracts from its bid row what the credit's contribution loses.
func (pd *PD) lower(row []float64, cr *Credit, d float64) {
	if d >= cr.Value {
		return
	}
	if pd.mode == Running {
		for ci, m := range pd.cands {
			dm := pd.dist[m][cr.Point]
			if dm >= cr.Value {
				continue
			}
			ob := cr.Value - dm
			nb := d - dm
			if nb < 0 {
				nb = 0
			}
			row[ci] -= ob - nb
		}
	}
	cr.Value = d
}

// lowerSmall lowers commodity e's credits after a small facility for e
// opened at m.
func (pd *PD) lowerSmall(e, m int) {
	for j := range pd.creditSmall[e] {
		cr := &pd.creditSmall[e][j]
		pd.lower(pd.bidSmall[e], cr, pd.dist[m][cr.Point])
	}
}

// lowerLarge lowers every credit after a large facility at m opened: it
// offers every commodity.
func (pd *PD) lowerLarge(m int) {
	for j := range pd.creditLarge {
		cr := &pd.creditLarge[j]
		pd.lower(pd.bidLarge, cr, pd.dist[m][cr.Point])
	}
	for e := range pd.creditSmall {
		pd.lowerSmall(e, m)
	}
}

// open opens a facility at m, small for commodity e or large for e < 0,
// and returns its index.
func (pd *PD) open(m, e int) int {
	idx := len(pd.sol.Facilities)
	cfg := commodity.Full(pd.u)
	if e >= 0 {
		cfg = commodity.New(e)
		pd.smallBy[e] = append(pd.smallBy[e], idx)
	} else {
		pd.large = append(pd.large, idx)
	}
	pd.sol.Facilities = append(pd.sol.Facilities, instance.Facility{Point: m, Config: cfg})
	return idx
}

// nearestLarge returns the large facility nearest to p and its distance,
// or (-1, infinity).
func (pd *PD) nearestLarge(p int) (int, float64) {
	return pd.scan(-1, infinity, pd.large, p)
}

// nearestOffering returns the facility nearest to p that offers e, large
// or small for e, and its distance, or (-1, infinity).
func (pd *PD) nearestOffering(e, p int) (int, float64) {
	best, bestD := pd.nearestLarge(p)
	return pd.scan(best, bestD, pd.smallBy[e], p)
}

// scan folds the facilities of list, in order, into the nearest-so-far
// (best, bestD): one replaces it only when strictly nearer to p.
func (pd *PD) scan(best int, bestD float64, list []int, p int) (int, float64) {
	for _, f := range list {
		if d := pd.dist[p][pd.sol.Facilities[f].Point]; d < bestD {
			best, bestD = f, d
		}
	}
	return best, bestD
}
