//go:build invariants

// Runtime assertion layer, enabled with `go test -tags invariants ./...`.
// After every served arrival it re-derives the two properties the PD
// implementation leans on and panics on the first violation:
//
//  1. Credit invariant: every recorded credit is at most the distance from
//     its request point to the nearest open facility that offers it
//     (small-for-its-commodity or large for Constraint (3) credits, large
//     for Constraint (4) credits). Credits are recorded as min{dual, d} and
//     only ever lowered to a new, smaller distance, so the invariant holds
//     by construction — it is exactly what lets the serve loop skip the
//     credit sweep when a request connects to an already open large
//     facility, which is why a violation must crash instead of silently
//     degrading the competitive ratio.
//  2. Bid-accumulator consistency: the incremental Constraint (3)/(4) bid
//     rows (bidSmall, bidLarge) must agree with a from-scratch recomputation
//     over the full credit history (naiveBidsOver) to within accumulation
//     tolerance.
//  3. Record consistency: the encoded arrival records (recs) agree with
//     the large-credit ledger and the assignment rows they duplicate, so a
//     seal that copies them writes the state the instance serves from.
//
// All three checks rescan the history, so arrivals past the first
// invariantsFullWindow are checked on a stride — dense coverage early (where
// differential tests live), bounded overhead on long workloads.
package core

import (
	"fmt"
	"math"
	"slices"
)

// invariantsEnabled gates the runtime assertion layer; see invariants_off.go
// for the default build.
const invariantsEnabled = true

// invariantsFullWindow is the arrival count up to which every arrival is
// checked; past it, checks run every invariantsStride-th arrival.
const (
	invariantsFullWindow = 256
	invariantsStride     = 16
)

// invariantsEps bounds the allowed drift between the incremental bid
// accumulators and their naive recomputation. Looser than pdEps: the
// incremental rows take one add and at most one subtract per (credit,
// candidate) pair, so cancellation error grows with history length.
const invariantsEps = 1e-6

func (pd *PDOMFLP) assertInvariants() {
	n := len(pd.recEnd)
	if n > invariantsFullWindow && n%invariantsStride != 0 {
		return
	}
	pd.assertCreditInvariant()
	pd.assertBidConsistency()
	pd.assertRecords()
}

// assertRecords checks property 3: each arrival's record holds the point
// and large credit of its credit ledger entry, bit for bit, and the links
// of its assignment row, and the records' totals match the header counts.
func (pd *PDOMFLP) assertRecords() {
	demanded, linked := 0, 0
	eachRecord(pd.recs, func(i int, rec *pdRecord) {
		cr := pd.creditLarge[i]
		if rec.point != cr.point || math.Float64bits(rec.large) != math.Float64bits(cr.credit) {
			panic(fmt.Sprintf("core: invariant violation: record %d holds point %d and large credit %g, ledger %d and %g",
				i, rec.point, rec.large, cr.point, cr.credit))
		}
		if !slices.Equal(rec.links, pd.fx.sol.Assign[i]) {
			panic(fmt.Sprintf("core: invariant violation: record %d links %v, assignment %v", i, rec.links, pd.fx.sol.Assign[i]))
		}
		demanded += len(rec.ids)
		linked += len(rec.links)
	})
	if demanded != pd.demanded || linked != pd.linked {
		panic(fmt.Sprintf("core: invariant violation: records carry %d demands and %d links, counted %d and %d",
			demanded, linked, pd.demanded, pd.linked))
	}
}

// assertCreditInvariant checks property 1. Distances are recomputed by a
// direct scan over the open facilities rather than through facilityIndex, so
// the assertion cannot mask a stale nearest-cache by reading through it.
func (pd *PDOMFLP) assertCreditInvariant() {
	for e, credits := range pd.creditSmall {
		for j, cr := range credits {
			d := pd.scanNearestOffering(e, cr.point)
			if cr.credit > d+pdEps*(1+d) {
				panic(fmt.Sprintf(
					"core: invariant violation: small credit %d of commodity %d at point %d is %g > %g (distance to nearest offering facility)",
					j, e, cr.point, cr.credit, d))
			}
		}
	}
	for j, cr := range pd.creditLarge {
		d := pd.scanNearestLarge(cr.point)
		if cr.credit > d+pdEps*(1+d) {
			panic(fmt.Sprintf(
				"core: invariant violation: large credit %d at point %d is %g > %g (distance to nearest large facility)",
				j, cr.point, cr.credit, d))
		}
	}
}

// assertBidConsistency checks property 2: incremental accumulators against
// rows recomputed from the credit history.
func (pd *PDOMFLP) assertBidConsistency() {
	for e, row := range pd.bidSmall {
		if row == nil {
			if len(pd.creditSmall[e]) != 0 {
				panic(fmt.Sprintf("core: invariant violation: commodity %d has %d credits but no bid row",
					e, len(pd.creditSmall[e])))
			}
			continue
		}
		assertBidRow("small", e, row, pd.naiveBidsOver(pd.creditSmall[e]))
	}
	assertBidRow("large", -1, pd.bidLarge, pd.naiveBidsOver(pd.creditLarge))
}

func assertBidRow(kind string, e int, got, want []float64) {
	for ci := range want {
		if diff := math.Abs(got[ci] - want[ci]); diff > invariantsEps*(1+math.Abs(want[ci])) {
			panic(fmt.Sprintf(
				"core: invariant violation: %s bid row (commodity %d) candidate %d: incremental %g vs naive %g (diff %g)",
				kind, e, ci, got[ci], want[ci], diff))
		}
	}
}

// scanNearestOffering is the assertion-layer counterpart of
// facilityIndex.nearestOffering: a full scan with no cache reads or writes.
func (pd *PDOMFLP) scanNearestOffering(e, p int) float64 {
	best := pd.scanNearestLarge(p)
	for _, idx := range pd.fx.smallBy[e] {
		if d := pd.space.Distance(p, pd.fx.sol.Facilities[idx].Point); d < best {
			best = d
		}
	}
	return best
}

// scanNearestLarge is the cache-free counterpart of
// facilityIndex.nearestLarge.
func (pd *PDOMFLP) scanNearestLarge(p int) float64 {
	best := infinity
	for _, idx := range pd.fx.large {
		if d := pd.space.Distance(p, pd.fx.sol.Facilities[idx].Point); d < best {
			best = d
		}
	}
	return best
}
