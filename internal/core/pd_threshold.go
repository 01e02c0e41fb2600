package core

import "math"

// Serve needs, per demanded commodity e and arrival point p, the
// threshold minimum and its magnitude bound
//
//	t3 = min_ci (single[e][ci] − bids_e[ci] + dCand_p[ci])
//	m3 = max_ci (|single[e][ci]| + |bids_e[ci]| + dCand_p[ci])
//
// (and the Constraint (4) analogue t4/m4 over the large bid row). Rather
// than visiting every candidate, each bid row keeps a pdBound — a lower
// bound wmin on its terms single − bids and an upper bound amax on
// |single| + |bids| — and the scans walk the candidates in p's distance
// order: nearest-first for t until wmin + d ≥ t, farthest-first for m until
// amax + d ≤ m. No candidate past either stop can change the result.
//
// Byte-exactness. Each scan returns exactly the element pdScanThresholds
// returns: min/max select an element of their input (no accumulation), and
// floating-point addition is monotone in each argument under
// round-to-nearest, so a skipped candidate's term satisfies
// fl(w + d) ≥ fl(wmin + d) ≥ fl(wmin + d_stop) ≥ t (and the mirror image
// for m). The bounds only have to stay valid, not tight: addBid folds every
// raised entry in (bids only rise there, so the folded min/max are valid),
// and a refresh that lowered any credit recomputes its row's bound:
// lowering can turn a rounding residue of a bid negative and raise |bid|,
// and a bound left loose makes every later scan of the row visit more.
// pdScanThresholds is kept verbatim as the oracle: the invariants build
// compares every scan against it bit for bit (see Serve).
type pdBound struct {
	wmin float64 // ≤ base[ci] − bids[ci] for every candidate ci
	amax float64 // ≥ |base[ci]| + |bids[ci]| for every candidate ci
}

// rowBound computes the tight bound of one bid row against its candidate
// costs.
func rowBound(base, bids []float64) pdBound {
	b := pdBound{wmin: math.Inf(1)}
	for ci := range base {
		b.fold(base[ci], bids[ci])
	}
	return b
}

// fold widens the bound to cover one (cost, bid) entry; the terms are
// written exactly as the scans compute them.
func (b *pdBound) fold(base, bid float64) {
	if w := base - bid; w < b.wmin {
		b.wmin = w
	}
	if a := math.Abs(base) + math.Abs(bid); a > b.amax {
		b.amax = a
	}
}

// scan returns pdScanThresholds(base, bids, dCand) bit for bit, visiting
// the candidates in byDist order (dCand ascending) only until the bound
// shows that no remaining candidate can lower t or raise m.
func (b pdBound) scan(base, bids, dCand []float64, byDist []int32) (t, m float64) {
	t, m = math.Inf(1), 0
	for _, ci := range byDist {
		d := dCand[ci]
		if b.wmin+d >= t {
			break
		}
		if thr := base[ci] - bids[ci] + d; thr < t {
			t = thr
		}
	}
	for i := len(byDist) - 1; i >= 0; i-- {
		ci := byDist[i]
		d := dCand[ci]
		if b.amax+d <= m {
			break
		}
		if mm := math.Abs(base[ci]) + math.Abs(bids[ci]) + d; mm > m {
			m = mm
		}
	}
	return t, m
}

// pdScanThresholds is the full O(|cands|) threshold scan, verbatim: the
// differential oracle the bounded scans are validated against. t keeps the
// association order of the per-candidate delta expression
// (base − bids + dCand), so t − a stays bit-identical to the minimum of
// base − bids + dCand − a over the candidates.
func pdScanThresholds(base, bids, dCand []float64) (t, m float64) {
	t, m = math.Inf(1), 0
	for ci := range base {
		if thr := base[ci] - bids[ci] + dCand[ci]; thr < t {
			t = thr
		}
		if mm := math.Abs(base[ci]) + math.Abs(bids[ci]) + dCand[ci]; mm > m {
			m = mm
		}
	}
	return t, m
}
