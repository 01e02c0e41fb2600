package core

import (
	"encoding/binary"
	"math"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

// PDOMFLP is the deterministic primal-dual algorithm of Section 3
// (Algorithm 1). On each arriving request it simultaneously raises the dual
// variables a_re of the request's not-yet-served commodities until one of
// four constraints becomes tight:
//
//	(1) a_re = d(F(e), r)            — connect e to an existing facility
//	(2) Σ_e a_re = d(F̂, r)           — connect r to an existing large facility
//	(3) (a_re − d(m,r))_+ + Σ_j bids = f_m^{e} — tentatively open small at m
//	(4) (Σa − d(m,r))_+ + Σ_j bids   = f_m^S   — open a large facility at m
//
// where the bids reinvest earlier requests' frozen duals, capped by their
// distance to the nearest facility already serving them (the min-terms of
// the constraints). Tight (3) opens a temporary small facility; tight (2) or
// (4) serves the whole request with a single large facility and discards the
// temporaries.
//
// All raises happen event-driven: every threshold is affine in the raise Δ
// (slope 1 for (1)/(3), slope `unfrozen` for (2)/(4)), so the algorithm
// jumps straight to the earliest event. Serve exploits that d(F(e), r), the
// bid sums and the candidate costs are all static for the duration of one
// arrival's event loop — no real facility opens and no credit changes until
// the loop ends — by collapsing each candidate scan into one per-arrival
// threshold: T3[i] = min_m(f_m^{e_i} − bids + d(m, r)) per demanded
// commodity and the Constraint (4) analogue T4. Each event then costs O(k)
// over four scalars per commodity instead of O(k·|cands|); the full
// candidate scan runs only once per commodity at freeze time, to resolve
// the nearest-tight-candidate tie-break with the exact per-candidate
// predicate (see tightSmall). The tests hold this loop to
// internal/core/pdref, which rescans every candidate on every event.
type PDOMFLP struct {
	space metric.Space //omflp:nostate — constructor parameter; the restore contract requires an identically constructed instance
	costs cost.Model   //omflp:nostate — constructor parameter, ditto
	u     int
	opts  Options //omflp:nostate — constructor parameter, ditto
	fx    *facilityIndex
	ct    *costTable

	// recs holds every served arrival's state record back to back, in the
	// layout MarshalState writes for its arrival section (see there):
	// point, demanded commodities with their frozen duals, facilities
	// opened, assignment links and the large credit. recEnd[i] is the end
	// offset of arrival i's record. A record never changes after its
	// arrival except for its last 8 bytes, which refreshLargeAt rewrites
	// whenever it lowers that arrival's large credit, so a seal copies the
	// section as it stands. demanded and linked total the records'
	// commodity and link counts for the state header.
	recs             []byte
	recEnd           []int
	demanded, linked int

	// creditSmall[e] holds, per earlier request demanding e, the bid cap
	// min{a_je, d(F(e), j)} kept current as facilities open.
	creditSmall [][]pdCredit
	// creditLarge holds, per earlier request, min{Σ_e a_je, d(F̂, j)}.
	creditLarge []pdCredit
	// liveSmall lists the commodities with at least one recorded credit, in
	// first-credit order, so the refresh after a large opening touches only
	// live rows instead of sweeping all u of them. Derived state: rebuilt
	// (in ascending order — rows are independent, so order is irrelevant)
	// on UnmarshalState, never serialized.
	liveSmall []int

	// bidSmall[e][ci] = Σ_j (creditSmall[e][j].credit − d(m_ci, j.point))_+,
	// the Constraint (3) bid sum toward candidate ci, maintained
	// incrementally: contributions are added when a credit is recorded and
	// corrected when a credit is lowered, so Serve reads them in O(1) per
	// (commodity, candidate) instead of rescanning the request history.
	// A row is nil until the first credit for its commodity arrives.
	bidSmall [][]float64
	// bidLarge[ci] is the Constraint (4) analogue over creditLarge.
	bidLarge []float64
	// zeroBids is the shared all-zero row read for commodities that have no
	// credits yet. Callers never mutate bid rows mid-arrival, so sharing is
	// safe.
	zeroBids []float64 //omflp:nostate — shared all-zero constant, never mutated
	// scratch holds the per-arrival working buffers of the event-driven
	// serve path, reused across arrivals so the hot path allocates only
	// what it retains (the assignment links). Pure scratch: excluded from
	// MarshalState, never read across arrivals.
	scratch pdScratch //omflp:nostate — per-arrival scratch, never read across arrivals
	// boundSmall[e] and boundLarge bound the threshold terms of the bid rows
	// (bidSmall[e], or zeroBids while e has no credits, and bidLarge) so
	// the event loop's threshold scans can stop early; see pdBound. Derived
	// from the rows: folded in by addBid, recomputed after a lowering
	// refresh and on UnmarshalState.
	boundSmall []pdBound
	boundLarge pdBound
	// dualSum is DualTotal's running Σ a_re, added row by row in arrival
	// order by Serve and recomputed the same way on
	// UnmarshalState, so it is bit-identical to summing the rows afresh.
	dualSum float64
}

type pdCredit struct {
	point  int
	credit float64
}

// pdScratch is the reusable per-arrival working set of the event-driven
// serve path; see PDOMFLP.scratch.
type pdScratch struct {
	ids    []int     // the demanded commodities, ascending
	dFe    []float64 // d(F(e_i), r) per demanded commodity
	a      []float64 // duals being raised (written to the record once frozen)
	t3     []float64 // T3[i]: min Constraint (3) threshold per commodity
	m3     []float64 // magnitude bound for t3's rounding-safety margin
	frozen []bool
	serve  []pdServe
	bid3   [][]float64 // per-commodity bid-row views (aliases, not owned)
	temps  []pdTemp
	opened []int
	links  []int
	col    []float64 // distances from a newly opened facility to every point
}

// reset readies the scratch for an arrival demanding the commodities d:
// ids lists them, the fixed-size rows are grown as needed and zeroed, and
// append-driven buffers are truncated in place, keeping their capacity.
func (s *pdScratch) reset(d commodity.Set) {
	s.ids = s.ids[:0]
	d.ForEach(func(e int) { s.ids = append(s.ids, e) })
	k := len(s.ids)
	if cap(s.dFe) < k {
		s.dFe = make([]float64, k)
		s.a = make([]float64, k)
		s.t3 = make([]float64, k)
		s.m3 = make([]float64, k)
		s.frozen = make([]bool, k)
		s.serve = make([]pdServe, k)
		s.bid3 = make([][]float64, k)
	}
	s.dFe = s.dFe[:k]
	s.a = s.a[:k]
	s.t3 = s.t3[:k]
	s.m3 = s.m3[:k]
	s.frozen = s.frozen[:k]
	s.serve = s.serve[:k]
	s.bid3 = s.bid3[:k]
	for i := 0; i < k; i++ {
		s.a[i] = 0
		s.frozen[i] = false
		s.serve[i] = pdServe{}
	}
	s.temps = s.temps[:0]
	s.opened = s.opened[:0]
	s.links = s.links[:0]
}

// NewPDOMFLP constructs the deterministic algorithm.
func NewPDOMFLP(space metric.Space, costs cost.Model, opts Options) *PDOMFLP {
	u := costs.Universe()
	cands := opts.candidates(space)
	if len(cands) == 0 {
		panic("core: PD-OMFLP needs at least one candidate point")
	}
	pd := &PDOMFLP{
		space:       space,
		costs:       costs,
		u:           u,
		opts:        opts,
		fx:          newFacilityIndex(space, u),
		ct:          buildCostTable(space, costs, cands),
		creditSmall: make([][]pdCredit, u),
		bidSmall:    make([][]float64, u),
		bidLarge:    make([]float64, len(cands)),
		zeroBids:    make([]float64, len(cands)),
		boundSmall:  make([]pdBound, u),
	}
	pd.resetBounds()
	return pd
}

// resetBounds recomputes every bid row's scan bound from the rows.
func (pd *PDOMFLP) resetBounds() {
	for e := range pd.boundSmall {
		row := pd.bidSmall[e]
		if row == nil {
			row = pd.zeroBids
		}
		pd.boundSmall[e] = rowBound(pd.ct.single[e], row)
	}
	pd.boundLarge = rowBound(pd.ct.full, pd.bidLarge)
}

// Name implements online.Algorithm.
func (pd *PDOMFLP) Name() string {
	if pd.opts.DisablePrediction {
		return "pd-omflp(no-prediction)"
	}
	return "pd-omflp"
}

// Solution implements online.Algorithm. The returned solution is the
// algorithm's live state; callers must not mutate it.
func (pd *PDOMFLP) Solution() *instance.Solution { return pd.fx.sol }

// PDFactory returns an online.Factory for PD-OMFLP with the given options.
func PDFactory(opts Options) online.Factory {
	name := "pd-omflp"
	if opts.DisablePrediction {
		name = "pd-omflp(no-prediction)"
	}
	return online.Factory{
		Name: name,
		New: func(space metric.Space, costs cost.Model, seed int64) online.Algorithm {
			return NewPDOMFLP(space, costs, opts)
		},
	}
}

// serveState tracks how each demanded commodity of the current request got
// served.
type pdServe struct {
	mode int // 0 = unserved, 1 = existing facility, 2 = temporary small
	fac  int // facility index (mode 1)
	temp int // index into temps (mode 2)
}

type pdTemp struct {
	e, m int
	ci   int // candidate index of m
}

const pdEps = 1e-9

// pdMarginEps bounds, relative to the involved magnitudes, the disagreement
// between the scalar threshold comparison a ≥ T3 − tol and the exact
// per-candidate predicate a − d(m,r) + bids ≥ f_m − tol. The two are equal
// in real arithmetic but associate differently, so each may round a few ulps
// (≈ 2⁻⁵²) apart; 1e-12 is ~4500 ulps of slack — vastly conservative, yet
// small enough that the exact scan still runs only when a commodity is
// within a hair of freezing. The scalar form is therefore only ever a
// prefilter: whenever it says "possibly tight", the per-candidate scan
// decides, so freeze decisions are byte-identical to a loop that runs that
// scan on every event.
const pdMarginEps = 1e-12

// Serve implements online.Algorithm: Algorithm 1 on arrival of request r,
// event-driven — per-arrival threshold precomputation, a scalar event loop,
// and the zero-allocation scratch. Its facilities, assignments, duals,
// credits and bid rows are byte-identical to those of internal/core/pdref,
// the plain transcription that rescans every candidate on every event.
func (pd *PDOMFLP) Serve(r instance.Request) {
	p := r.Point
	s := &pd.scratch
	s.reset(r.Demands)
	ids := s.ids
	k := len(ids)
	cands := pd.ct.cands
	facsBefore := len(pd.fx.sol.Facilities)

	// Static per-arrival quantities: distances to nearest facilities and
	// the earlier requests' bid sums toward each candidate point. No real
	// facility opens and no credit changes mid-arrival, so these stay valid
	// for the whole event loop.
	dFe := s.dFe
	for i, e := range ids {
		_, dFe[i] = pd.fx.nearestOffering(e, p)
	}
	_, dLarge := pd.fx.nearestLarge(p)

	// The incremental accumulators hold exactly the bid sums the
	// constraints need; credits only change after the event loop, so
	// aliasing the live rows is safe.
	bid3 := s.bid3
	for i, e := range ids {
		if row := pd.bidSmall[e]; row != nil {
			bid3[i] = row
		} else {
			bid3[i] = pd.zeroBids
		}
	}
	bid4 := pd.bidLarge
	dCand, byDist := pd.ct.distTo(p)

	// Hoisted candidate thresholds, one bounded scan pair per bid row (see
	// pdBound): nearest-first for the minimum, farthest-first for the
	// magnitude, each stopping once no remaining candidate can change it.
	// t3[i] keeps the association order of the per-candidate delta
	// expression (single − bids + dCand), so t3[i] − a is bit-identical to
	// the minimum of single − bids + dCand − a over the candidates
	// (rounding is monotone).
	// m3[i]/m4 bound the magnitudes feeding the pdMarginEps safety margin
	// of the freeze prefilter.
	t3, m3 := s.t3, s.m3
	for i, e := range ids {
		t3[i], m3[i] = pd.boundSmall[e].scan(pd.ct.single[e], bid3[i], dCand, byDist)
	}
	t4, m4 := math.Inf(1), 0.0
	if !pd.opts.DisablePrediction {
		t4, m4 = pd.boundLarge.scan(pd.ct.full, bid4, dCand, byDist)
	}
	if invariantsEnabled {
		// Differential oracle: every bounded scan must be bit-equal to the
		// full scan over every candidate.
		for i, e := range ids {
			t, m := pdScanThresholds(pd.ct.single[e], bid3[i], dCand)
			if t != t3[i] || m != m3[i] { //omflp:floatexact — the bounded scan's contract is bit-equality with the oracle scan
				panic("core: PD-OMFLP bounded threshold scan diverged from the oracle scan (t3/m3)")
			}
		}
		if !pd.opts.DisablePrediction {
			t, m := pdScanThresholds(pd.ct.full, bid4, dCand)
			if t != t4 || m != m4 { //omflp:floatexact — the bounded scan's contract is bit-equality with the oracle scan
				panic("core: PD-OMFLP bounded threshold scan diverged from the oracle scan (t4/m4)")
			}
		}
	}

	a := s.a
	frozen := s.frozen
	serve := s.serve
	temps := s.temps
	sumA := 0.0
	unfrozen := k
	largeServed := -1 // facility index once the request is served large
	largeCi := -1     // candidate index when Constraint (4) opened it

	for unfrozen > 0 {
		unfrozenBefore := unfrozen
		// Find the earliest event over four scalars per commodity: slope-1
		// thresholds dFe[i] and t3[i], slope-`unfrozen` thresholds dLarge
		// and t4 on the sum.
		delta := math.Inf(1)
		for i := range a {
			if frozen[i] {
				continue
			}
			if d := dFe[i] - a[i]; d < delta {
				delta = d
			}
			need := t3[i] - a[i]
			if need < 0 {
				need = 0
			}
			if need < delta {
				delta = need
			}
		}
		if !pd.opts.DisablePrediction {
			if dLarge < infinity {
				if d := (dLarge - sumA) / float64(unfrozen); d < delta {
					delta = d
				}
			}
			need := (t4 - sumA) / float64(unfrozen)
			if need < 0 {
				need = 0
			}
			if need < delta {
				delta = need
			}
		}
		if math.IsInf(delta, 1) {
			panic("core: PD-OMFLP found no tight constraint; no candidate can serve the request")
		}
		if delta < 0 {
			delta = 0
		}

		// Raise all unfrozen duals by delta.
		for i := range a {
			if !frozen[i] {
				a[i] += delta
			}
		}
		sumA += float64(unfrozen) * delta
		tol := pdEps * (1 + sumA)

		// Lines 3–5: freeze commodities with tight Constraint (1) or (3).
		// The t3 comparison is only a prefilter (with the pdMarginEps
		// rounding margin): tightSmall re-evaluates the exact per-candidate
		// predicate and picks the facility a scan on every event would.
		for i := range a {
			if frozen[i] {
				continue
			}
			if a[i] >= dFe[i]-tol {
				// Constraint (1): connect to the nearest existing facility.
				fac, _ := pd.fx.nearestOffering(ids[i], p)
				frozen[i] = true
				unfrozen--
				serve[i] = pdServe{mode: 1, fac: fac}
				continue
			}
			if a[i]+pdMarginEps*(m3[i]+a[i]+tol) < t3[i]-tol {
				continue // no candidate can be tight yet
			}
			if bestM := pd.tightSmall(ids[i], a[i], bid3[i], dCand, tol); bestM >= 0 {
				// Constraint (3): temporary small facility at the
				// nearest tight point.
				frozen[i] = true
				unfrozen--
				serve[i] = pdServe{mode: 2, temp: len(temps)}
				temps = append(temps, pdTemp{e: ids[i], m: cands[bestM], ci: bestM})
			}
		}

		if !pd.opts.DisablePrediction {
			// Lines 6–9: Constraint (2) — existing large facility.
			if dLarge < infinity && sumA >= dLarge-tol {
				fac, _ := pd.fx.nearestLarge(p)
				largeServed = fac
				break
			}
			// Constraint (4): open a new large facility at the nearest
			// tight candidate. Scalar prefilter, exact scan on the rare
			// near-tight event — a spurious scan finds nothing and
			// continues, exactly like a scan on every event.
			if sumA+pdMarginEps*(m4+sumA+tol) >= t4-tol {
				if bestM := pd.tightLarge(sumA, bid4, dCand, tol); bestM >= 0 {
					largeServed = pd.fx.openLarge(cands[bestM])
					largeCi = bestM
					break
				}
			}
		}

		// Progress guard. A delta=0 iteration that froze nothing and served
		// nothing leaves the state bit-identical, so the next iteration
		// would repeat forever — reachable only when cost/bid magnitudes
		// are so extreme (≈ tol/ulp ≳ 4.5e6·(1+sumA)) that the clamped
		// threshold arithmetic and the exact tol-window predicates disagree
		// by more than tol. Fail loudly instead of wedging a serving shard.
		if delta == 0 && unfrozen == unfrozenBefore { //omflp:floatexact — delta is clamped to literal 0 above; this detects that exact case
			panic("core: PD-OMFLP event loop stalled on a zero-delta event (cost magnitudes exceed the pdEps tolerance's precision); rescale the cost model")
		}
	}

	// Materialize the outcome. Only the assignment links allocate; the
	// frozen duals go into the arrival's record.
	for _, v := range a {
		pd.dualSum += v
	}

	var links []int
	if largeServed >= 0 {
		// Whole request served by one large facility; temporaries vanish.
		links = []int{largeServed}
		if largeCi >= 0 {
			// Constraint (4): a genuinely new facility — sweep the credits.
			s.col = pd.ct.column(largeCi, s.col)
			pd.refreshLargeAt(s.col)
		}
		// Constraint (2) needs no sweep: every credit is recorded as
		// min{dual, d(F, ·)} against the then-open facilities and only ever
		// lowered when a new facility opens, so a credit is invariantly ≤
		// its distance to every already-open facility, and a sweep against
		// an existing facility is a provable no-op (pdref still runs it, so
		// the differential tests pin the equality).
	} else {
		// Open the surviving temporaries and connect each commodity.
		opened := s.opened
		for _, tmp := range temps {
			opened = append(opened, pd.fx.openSmall(tmp.e, tmp.m))
		}
		linkBuf := s.links
		for i := range ids {
			var fac int
			switch serve[i].mode {
			case 1:
				fac = serve[i].fac
			case 2:
				fac = opened[serve[i].temp]
			default:
				panic("core: PD-OMFLP left a commodity unserved")
			}
			dup := false
			for _, l := range linkBuf {
				if l == fac {
					dup = true
					break
				}
			}
			if !dup {
				linkBuf = append(linkBuf, fac)
			}
		}
		if len(linkBuf) > 0 {
			links = make([]int, len(linkBuf))
			copy(links, linkBuf)
		}
		for _, tmp := range temps {
			s.col = pd.ct.column(tmp.ci, s.col)
			pd.refreshSmallAt(tmp.e, s.col)
		}
		s.opened, s.links = opened[:0], linkBuf[:0]
	}
	pd.fx.sol.Assign = append(pd.fx.sol.Assign, links)
	s.temps = temps[:0]

	// Record this request's own credits against the updated facility sets.
	for i, e := range ids {
		_, d := pd.fx.nearestOffering(e, p)
		pd.addCreditSmall(e, p, math.Min(a[i], d))
	}
	_, dHat := pd.fx.nearestLarge(p)
	large := math.Min(sumA, dHat)
	pd.addCreditLarge(p, large)
	pd.appendRecord(p, ids, a, len(pd.fx.sol.Facilities)-facsBefore, links, large)
	if invariantsEnabled {
		pd.assertInvariants()
	}
}

// appendRecord appends an arrival's state record to recs; see PDOMFLP.recs.
// The bytes are exactly what codec.Writer's Uint and Float write.
func (pd *PDOMFLP) appendRecord(p int, ids []int, duals []float64, opened int, links []int, large float64) {
	b := binary.AppendUvarint(pd.recs, uint64(p))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for i, e := range ids {
		b = binary.AppendUvarint(b, uint64(e))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(duals[i]))
	}
	b = binary.AppendUvarint(b, uint64(opened))
	b = binary.AppendUvarint(b, uint64(len(links)))
	for _, f := range links {
		b = binary.AppendUvarint(b, uint64(f))
	}
	pd.recs = binary.LittleEndian.AppendUint64(b, math.Float64bits(large))
	pd.recEnd = append(pd.recEnd, len(pd.recs))
	pd.demanded += len(ids)
	pd.linked += len(links)
}

// pdRecord is one served arrival decoded from its state record.
type pdRecord struct {
	point  int
	ids    []int     // demanded commodities, ascending
	duals  []float64 // aligned with ids
	opened int       // facilities the arrival opened
	links  []int
	large  float64 // the large credit, as lowered so far
}

// decode reads the record at the start of b into rec, reusing its slices,
// and returns the bytes after it. b must come from a record section Serve
// wrote or UnmarshalState validated: decode checks nothing.
func (rec *pdRecord) decode(b []byte) []byte {
	next := func() int {
		v, n := binary.Uvarint(b)
		b = b[n:]
		return int(v)
	}
	float := func() float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return f
	}
	rec.point = next()
	k := next()
	rec.ids, rec.duals = rec.ids[:0], rec.duals[:0]
	for j := 0; j < k; j++ {
		rec.ids = append(rec.ids, next())
		rec.duals = append(rec.duals, float())
	}
	rec.opened = next()
	rec.links = rec.links[:0]
	for m := next(); m > 0; m-- {
		rec.links = append(rec.links, next())
	}
	rec.large = float()
	return b
}

// eachRecord decodes a record section in arrival order and calls fn with
// each arrival's index and record; rec's slices are reused from call to
// call, so fn copies what it keeps.
func eachRecord(recs []byte, fn func(i int, rec *pdRecord)) {
	var rec pdRecord
	for i := 0; len(recs) > 0; i++ {
		recs = rec.decode(recs)
		fn(i, &rec)
	}
}

// tightSmall is the Constraint (3) candidate scan: among the candidates
// inside the tol window it returns the nearest one
// (ties to the lowest index), or -1 when none is tight. Running it only at
// freeze time — once per commodity per arrival — instead of on every event
// is what the t3 thresholds buy.
func (pd *PDOMFLP) tightSmall(e int, a float64, bids, dCand []float64, tol float64) int {
	single := pd.ct.single[e]
	bestM, bestD := -1, math.Inf(1)
	for ci := range dCand {
		if a-dCand[ci]+bids[ci] >= single[ci]-tol {
			if dCand[ci] < bestD {
				bestM, bestD = ci, dCand[ci]
			}
		}
	}
	return bestM
}

// tightLarge is the Constraint (4) analogue of tightSmall.
func (pd *PDOMFLP) tightLarge(sumA float64, bids, dCand []float64, tol float64) int {
	full := pd.ct.full
	bestM, bestD := -1, math.Inf(1)
	for ci := range dCand {
		if sumA-dCand[ci]+bids[ci] >= full[ci]-tol {
			if dCand[ci] < bestD {
				bestM, bestD = ci, dCand[ci]
			}
		}
	}
	return bestM
}

// addBid folds one credit's contribution (credit − d(m_ci, p))_+ into a bid
// row; the single place the bid formula is written for accumulation. Only
// candidates nearer to p than the credit contribute (for finite floats,
// credit − d > 0 exactly when d < credit), so it walks p's candidates
// nearest-first and stops at the first one at or beyond the credit. Each
// raised entry is folded into the row's scan bound against its costs base.
func (pd *PDOMFLP) addBid(row, base []float64, bound *pdBound, p int, credit float64) {
	dRow, byDist := pd.ct.distTo(p)
	for _, ci := range byDist {
		if dRow[ci] >= credit {
			break
		}
		row[ci] += credit - dRow[ci]
		bound.fold(base[ci], row[ci])
	}
}

// addCreditSmall records a new small-facility credit for commodity e and
// folds its contribution into the per-candidate bid accumulators.
func (pd *PDOMFLP) addCreditSmall(e, p int, credit float64) {
	if len(pd.creditSmall[e]) == 0 {
		pd.liveSmall = append(pd.liveSmall, e)
	}
	pd.creditSmall[e] = append(pd.creditSmall[e], pdCredit{point: p, credit: credit})
	row := pd.bidSmall[e]
	if row == nil {
		row = make([]float64, len(pd.ct.cands))
		pd.bidSmall[e] = row
	}
	pd.addBid(row, pd.ct.single[e], &pd.boundSmall[e], p, credit)
}

// addCreditLarge records a new large-facility credit and folds its
// contribution into the Constraint (4) accumulators.
func (pd *PDOMFLP) addCreditLarge(p int, credit float64) {
	pd.creditLarge = append(pd.creditLarge, pdCredit{point: p, credit: credit})
	pd.addBid(pd.bidLarge, pd.ct.full, &pd.boundLarge, p, credit)
}

// lowerBid subtracts from row the contribution change of a credit at point p
// lowered from oldCredit to newCredit (oldCredit > newCredit ≥ 0). Like
// addBid it visits only the candidates nearer to p than the old credit. It
// leaves the row's scan bound to the event path's refreshes, which
// recompute it once their sweep is done.
func (pd *PDOMFLP) lowerBid(row []float64, p int, oldCredit, newCredit float64) {
	dRow, byDist := pd.ct.distTo(p)
	for _, ci := range byDist {
		if dRow[ci] >= oldCredit {
			break
		}
		ob := oldCredit - dRow[ci]
		nb := newCredit - dRow[ci]
		if nb < 0 {
			nb = 0
		}
		row[ci] -= ob - nb
	}
}

// naiveBidsOver recomputes Σ_j (credit − d(m, j))_+ over every candidate by
// rescanning a credit history: the oracle the invariants layer checks the
// incremental rows against. Distances are deliberately computed directly
// (not via the distTo cache) so the oracle stays independent.
func (pd *PDOMFLP) naiveBidsOver(credits []pdCredit) []float64 {
	row := make([]float64, len(pd.ct.cands))
	for _, cr := range credits {
		for ci, m := range pd.ct.cands {
			if b := cr.credit - pd.space.Distance(m, cr.point); b > 0 {
				row[ci] += b
			}
		}
	}
	return row
}

// refreshSmallAt lowers the small-facility credits of commodity e after a
// new facility for e opened, correcting the bid row by the exact
// contribution each lowered credit loses. col is the new facility's
// distance column (costTable.column), read once per credit instead of a
// distance row per credit; its values are the Distance(m, q) calls
// themselves.
func (pd *PDOMFLP) refreshSmallAt(e int, col []float64) {
	credits := pd.creditSmall[e]
	row := pd.bidSmall[e]
	lowered := false
	for j := range credits {
		d := col[credits[j].point]
		if d >= credits[j].credit {
			continue
		}
		pd.lowerBid(row, credits[j].point, credits[j].credit, d)
		credits[j].credit = d
		lowered = true
	}
	if lowered {
		pd.boundSmall[e] = rowBound(pd.ct.single[e], row)
	}
}

// refreshLargeAt lowers credits after a new large facility opened, given
// its distance column: the facility offers every commodity, so both the
// large credits and every live commodity's small credits shrink. Iterating
// liveSmall instead of all u rows skips commodities that never recorded a
// credit (rows are independent, so the order they are swept in cannot
// change any value).
func (pd *PDOMFLP) refreshLargeAt(col []float64) {
	lowered := false
	for j := range pd.creditLarge {
		d := col[pd.creditLarge[j].point]
		if d >= pd.creditLarge[j].credit {
			continue
		}
		pd.lowerBid(pd.bidLarge, pd.creditLarge[j].point, pd.creditLarge[j].credit, d)
		pd.creditLarge[j].credit = d
		// Credit j is arrival j's: its record ends with it.
		binary.LittleEndian.PutUint64(pd.recs[pd.recEnd[j]-8:], math.Float64bits(d))
		lowered = true
	}
	if lowered {
		pd.boundLarge = rowBound(pd.ct.full, pd.bidLarge)
	}
	for _, e := range pd.liveSmall {
		pd.refreshSmallAt(e, col)
	}
}

// DualTotal returns Σ_r Σ_{e∈s_r} a_re, the dual objective the analysis
// compares against 3·cost(ALG) (Corollary 8) and γ-scales for feasibility
// (Corollary 17). O(1): Serve keeps the sum running.
func (pd *PDOMFLP) DualTotal() float64 { return pd.dualSum }

// Duals returns the frozen dual variables: per served request, the demanded
// commodity IDs, the aligned dual values and the request's point. They are
// decoded copies of the arrivals' records, so each call costs O(history).
func (pd *PDOMFLP) Duals() (demandIDs [][]int, duals [][]float64, points []int) {
	n := len(pd.recEnd)
	demandIDs, duals, points = make([][]int, n), make([][]float64, n), make([]int, n)
	idFlat, dualFlat := make([]int, 0, pd.demanded), make([]float64, 0, pd.demanded)
	eachRecord(pd.recs, func(i int, rec *pdRecord) {
		d := len(idFlat)
		idFlat = append(idFlat, rec.ids...)
		dualFlat = append(dualFlat, rec.duals...)
		demandIDs[i] = idFlat[d:len(idFlat):len(idFlat)]
		duals[i] = dualFlat[d:len(dualFlat):len(dualFlat)]
		points[i] = rec.point
	})
	return demandIDs, duals, points
}
