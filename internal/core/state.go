package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codec"
	"repro/internal/instance"
	"repro/internal/online"
)

// This file implements online.StateCodec for the algorithms the engine
// hosts: the complete serving state of PD-OMFLP and RAND-OMFLP. The paper's
// algorithms are online — each arrival freezes a small, well-defined
// increment of state (duals and credits for PD, coin-flip position and open
// facilities for RAND) — so the state is exactly recoverable without
// replaying the arrival history, which is what the engine's checkpoint
// format v2 builds on.
//
// Both share the compact binary layout of internal/codec, which the engine
// seals every SealEvery arrivals; floats are stored as their IEEE-754 bits,
// so every value survives the round trip exactly. PD keeps the largest part
// of its state, one record per served arrival, already encoded in that
// layout (PDOMFLP.recs), so a seal copies those bytes instead of encoding
// them field by field, and a restore keeps the section it validated.
//
// Derived caches are deliberately NOT serialized: the facility-index nearest
// caches, the cost-table distance rows and their distance-ordered candidate
// lists, PD's live-credit commodity list, bid-row scan bounds, running dual
// sum and per-arrival scratch buffers, and RAND's per-point budget caches
// are pure functions of the serialized state (or pure scratch) and rebuild
// with the same tie-breaking (earliest-opened facility wins), so a restored
// instance serves any suffix bit-identically to the original.

// stateSchema versions the serialized state layouts: the schema byte that
// opens the binary PD and RAND layouts. Schema 1 was a JSON layout.
const stateSchema = 2

// readHeader checks the schema byte and the dimensions every binary state
// starts with. A leading '{' is a JSON document — the layout before the
// binary codec.
func readHeader(r *codec.Reader, universe, cands int) {
	if p := r.Peek(); len(p) > 0 && p[0] == '{' {
		r.Fail("JSON document of schema 1, the layout before binary schema %d; this build cannot read it", stateSchema)
		return
	}
	if s := r.Uint(); s != stateSchema && r.Err() == nil {
		r.Fail("schema %d, want %d", s, stateSchema)
		return
	}
	if u := r.Uint(); u != universe && r.Err() == nil {
		r.Fail("universe %d, want %d", u, universe)
		return
	}
	if c := r.Uint(); c != cands && r.Err() == nil {
		r.Fail("%d candidates, want %d", c, cands)
	}
}

// MarshalState implements online.StateCodec. It refuses instances running
// with TraceAnalysis: the Lemma 14 analysis history is diagnostic-only and
// deliberately outside the serving-state contract.
//
// Layout after the schema byte, universe and candidate count (uvarints
// unless marked f64):
//
//	facilities     count, then (point, kind) each; see encodeFacilities
//	arrivals n, demanded commodities D, assignment links L (totals)
//	n × arrival    point; k, then k × (commodity, strictly ascending; f64
//	               dual); facilities it opened; link count, then each
//	               link's facility index; f64 large credit. This record
//	               section is PDOMFLP.recs, copied as it stands.
//	small credits  per commodity e ascending, f64 credit of each arrival
//	               demanding e, in arrival order
//	bid rows       f64 × candidates: the large row, then the row of every
//	               commodity with credits, e ascending
//
// Credit points are not stored: credit j of a ledger belongs to the j-th
// arrival that recorded into it.
func (pd *PDOMFLP) MarshalState() ([]byte, error) {
	if pd.opts.TraceAnalysis {
		return nil, fmt.Errorf("core: PD-OMFLP state marshal does not support TraceAnalysis")
	}
	return codec.Encode(func(w *codec.Writer) {
		w.Uint(stateSchema)
		w.Uint(pd.u)
		w.Uint(len(pd.ct.cands))
		encodeFacilities(w, pd.fx)
		w.Uint(len(pd.recEnd))
		w.Uint(pd.demanded)
		w.Uint(pd.linked)
		w.Raw(pd.recs)
		// One small credit per demanded commodity, e by e.
		if sec := w.Reserve(8 * pd.demanded); sec != nil {
			for _, credits := range pd.creditSmall {
				for _, cr := range credits {
					binary.LittleEndian.PutUint64(sec, math.Float64bits(cr.credit))
					sec = sec[8:]
				}
			}
		}
		w.Floats(pd.bidLarge)
		for e, credits := range pd.creditSmall {
			if len(credits) > 0 {
				w.Floats(pd.bidSmall[e])
			}
		}
	}), nil
}

// UnmarshalState implements online.StateCodec; see the interface contract —
// the receiver must be freshly constructed with the parameters of the
// instance that was marshaled. The whole document is decoded and checked
// before the receiver changes: lengths are bounded by the bytes left, and
// points, commodities and facility indices are range-checked. The receiver
// keeps a copy of the record section it checked as its records.
func (pd *PDOMFLP) UnmarshalState(data []byte) error {
	if pd.opts.TraceAnalysis {
		return fmt.Errorf("core: PD-OMFLP state restore does not support TraceAnalysis")
	}
	if len(pd.recEnd) != 0 || len(pd.fx.sol.Facilities) != 0 {
		return fmt.Errorf("core: PD-OMFLP state restore needs a fresh instance")
	}
	r := codec.NewReader("core: PD-OMFLP state", data)
	readHeader(r, pd.u, len(pd.ct.cands))
	facs := decodeFacilities(r, pd.space.Len(), pd.u)
	n, demanded, links := r.Uint(), r.Uint(), r.Uint()
	// Minimum encoded sizes: 12 bytes per arrival (point, k, opened, link
	// count, large credit), 17 per demanded commodity (id, dual, small
	// credit), 1 per link.
	if rem := r.Len(); r.Err() == nil &&
		(n > rem/12 || demanded > rem/17 || links > rem || 12*n+17*demanded+links > rem) {
		r.Fail("%d arrivals, %d demands and %d links cannot fit in %d bytes", n, demanded, links, rem)
	}
	if r.Err() != nil {
		return r.Err()
	}

	sec := r.Peek()
	recEnd := make([]int, n)
	assign := make([][]int, n)
	creditLarge := make([]pdCredit, n)
	linkFlat := make([]int, links)
	perE := make([]int, pd.u)
	dualSum := 0.0
	opened, d, l := 0, 0, 0
	for i := 0; i < n && r.Err() == nil; i++ {
		p := r.Below(pd.space.Len(), "point")
		k := r.Below(demanded-d+1, "demanded commodity count")
		prev := -1
		for j := 0; j < k; j++ {
			e := r.Below(pd.u, "commodity")
			if e <= prev && r.Err() == nil {
				r.Fail("arrival %d demands commodities out of order", i)
			}
			prev = e
			perE[e]++
			// Summed in arrival order, as Serve adds them, so DualTotal
			// stays bit-identical across the round trip.
			dualSum += r.Float()
		}
		d += k
		// An arrival opens one facility per demanded commodity, or one
		// large facility.
		opened += r.Below(min(max(k, 1), len(facs)-opened)+1, "opened facility count")
		if m := r.Below(links-l+1, "link count"); m > 0 {
			row := linkFlat[l : l+m : l+m]
			for j := range row {
				row[j] = r.Below(opened, "assigned facility")
			}
			assign[i] = row
			l += m
		}
		creditLarge[i] = pdCredit{point: p, credit: r.Float()}
		recEnd[i] = len(sec) - r.Len()
	}
	if r.Err() == nil && (opened != len(facs) || d != demanded || l != links) {
		r.Fail("arrivals open %d of %d facilities and carry %d of %d demands and %d of %d links",
			opened, len(facs), d, demanded, l, links)
	}
	if r.Err() != nil {
		return r.Err()
	}
	sec = sec[:len(sec)-r.Len()]

	creditSmall := make([][]pdCredit, pd.u)
	live := 0
	for e, c := range perE {
		if c > 0 {
			creditSmall[e] = make([]pdCredit, 0, c)
			live++
		}
	}
	eachRecord(sec, func(_ int, rec *pdRecord) {
		for _, e := range rec.ids {
			creditSmall[e] = append(creditSmall[e], pdCredit{point: rec.point})
		}
	})
	for _, credits := range creditSmall {
		for j := range credits {
			credits[j].credit = r.Float()
		}
	}
	cands := len(pd.ct.cands)
	if r.Err() == nil && r.Len() != 8*cands*(1+live) {
		r.Fail("%d bytes of bid rows, want %d", r.Len(), 8*cands*(1+live))
	}
	if r.Err() != nil {
		return r.Err()
	}
	bidLarge := make([]float64, cands)
	r.Floats(bidLarge)
	bidSmall := make([][]float64, pd.u)
	for e, credits := range creditSmall {
		if len(credits) > 0 {
			bidSmall[e] = make([]float64, cands)
			r.Floats(bidSmall[e])
		}
	}
	if err := r.End(); err != nil {
		return err
	}

	restoreFacilities(pd.fx, facs)
	if n > 0 { // an empty state leaves the fresh instance's nil slices
		pd.fx.sol.Assign = assign
		pd.recs = append([]byte(nil), sec...)
		pd.recEnd = recEnd
		pd.creditLarge = creditLarge
	}
	pd.demanded, pd.linked = demanded, links
	pd.dualSum = dualSum
	pd.creditSmall = creditSmall
	for e, credits := range creditSmall {
		if len(credits) > 0 {
			// liveSmall is derived state (the commodities with credits);
			// ascending order here vs first-credit order on a live instance
			// is fine — refresh sweeps treat rows independently.
			pd.liveSmall = append(pd.liveSmall, e)
		}
	}
	pd.bidSmall = bidSmall
	pd.bidLarge = bidLarge
	// The threshold scans' bounds are derived from the bid rows.
	pd.resetBounds()
	return nil
}

// MarshalState implements online.StateCodec. The rng position is recorded
// as the number of coin flips drawn: a freshly constructed instance with the
// same seed fast-forwards its generator by that count to resume the
// identical random stream (a few ns per draw — cheap next to replaying
// arrivals, and the only way to serialize math/rand's opaque source).
//
// Layout after the schema byte, universe and candidate count (uvarints):
// facilities (see encodeFacilities); served arrivals n and assignment links
// L (total); n × (link count, then each link's facility index); draws.
func (ra *RandOMFLP) MarshalState() ([]byte, error) {
	assign := ra.fx.sol.Assign
	links := 0
	for _, row := range assign {
		links += len(row)
	}
	return codec.Encode(func(w *codec.Writer) {
		w.Uint(stateSchema)
		w.Uint(ra.u)
		w.Uint(ra.nCands)
		encodeFacilities(w, ra.fx)
		w.Uint(len(assign))
		w.Uint(links)
		for _, row := range assign {
			w.Uint(len(row))
			for _, f := range row {
				w.Uint(f)
			}
		}
		w.Uint(int(ra.draws))
	}), nil
}

// UnmarshalState implements online.StateCodec; the receiver must be freshly
// constructed with the same space, costs, options and rng seed.
func (ra *RandOMFLP) UnmarshalState(data []byte) error {
	if len(ra.fx.sol.Facilities) != 0 || len(ra.fx.sol.Assign) != 0 || ra.draws != 0 {
		return fmt.Errorf("core: RAND-OMFLP state restore needs a fresh instance")
	}
	r := codec.NewReader("core: RAND-OMFLP state", data)
	readHeader(r, ra.u, ra.nCands)
	facs := decodeFacilities(r, ra.space.Len(), ra.u)
	n, links := r.Uint(), r.Uint()
	if rem := r.Len(); r.Err() == nil && (n > rem || links > rem || n+links > rem) {
		r.Fail("%d arrivals and %d links cannot fit in %d bytes", n, links, rem)
	}
	if r.Err() != nil {
		return r.Err()
	}
	assign := make([][]int, n)
	linkFlat := make([]int, links)
	l := 0
	for i := 0; i < n && r.Err() == nil; i++ {
		if m := r.Below(links-l+1, "link count"); m > 0 {
			row := linkFlat[l : l+m : l+m]
			for j := range row {
				row[j] = r.Below(len(facs), "assigned facility")
			}
			assign[i] = row
			l += m
		}
	}
	if r.Err() == nil && l != links {
		r.Fail("arrivals carry %d of %d links", l, links)
	}
	// An arrival flips at most one coin per cost class of each commodity
	// and of the full configuration.
	flips := len(ra.largeClasses.values)
	for _, tc := range ra.smallClasses {
		flips += len(tc.values)
	}
	draws := r.Uint()
	if r.Err() == nil && draws > n*flips {
		r.Fail("%d coin flips exceed %d per arrival over %d arrivals", draws, flips, n)
	}
	if err := r.End(); err != nil {
		return err
	}

	restoreFacilities(ra.fx, facs)
	if n > 0 { // an empty state leaves the fresh instance's nil slice
		ra.fx.sol.Assign = assign
	}
	for _, f := range facs {
		if f.kind == 0 {
			ra.largeOpen[f.point] = true
		} else {
			ra.smallOpen[[2]int{f.kind - 1, f.point}] = true
		}
	}
	for i := 0; i < draws; i++ {
		ra.rng.Float64()
	}
	ra.draws = int64(draws)
	return nil
}

// facilityState is one open facility as decoded state: kind 0 is a large
// facility offering the full universe, kind 1+e a small one offering
// commodity e. The explicit kind matters: in a universe of size 1 a large
// facility's configuration equals the singleton's, so the configuration
// alone cannot distinguish them.
type facilityState struct {
	point, kind int
}

// encodeFacilities writes a facility index's open facilities in opening
// order: the count, then (point, kind) per facility.
func encodeFacilities(w *codec.Writer, fx *facilityIndex) {
	w.Uint(len(fx.sol.Facilities))
	large := fx.large // ascending facility indices
	for i, f := range fx.sol.Facilities {
		w.Uint(f.Point)
		if len(large) > 0 && large[0] == i {
			w.Uint(0)
			large = large[1:]
		} else {
			w.Uint(1 + f.Config.Min())
		}
	}
}

// decodeFacilities reads what encodeFacilities wrote, range-checking points
// and commodities.
func decodeFacilities(r *codec.Reader, points, universe int) []facilityState {
	facs := make([]facilityState, r.Count(2, "facilities"))
	for i := range facs {
		facs[i] = facilityState{point: r.Below(points, "facility point"), kind: r.Below(universe+1, "facility kind")}
	}
	return facs
}

// restoreFacilities replays the decoded opening sequence through a fresh
// facility index, rebuilding the per-commodity lists (and leaving the
// nearest caches to refill lazily with identical tie-breaking).
func restoreFacilities(fx *facilityIndex, facs []facilityState) {
	if len(facs) > 0 {
		fx.sol.Facilities = make([]instance.Facility, 0, len(facs))
	}
	for _, f := range facs {
		if f.kind == 0 {
			fx.openLarge(f.point)
		} else {
			fx.openSmall(f.kind-1, f.point)
		}
	}
}

// Interface conformance (compile-time): the algorithms the engine hosts
// satisfy online.StateCodec.
var (
	_ online.StateCodec = (*PDOMFLP)(nil)
	_ online.StateCodec = (*RandOMFLP)(nil)
)
