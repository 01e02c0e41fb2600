package core

import (
	"fmt"
	"slices"
)

// ServeMode describes how a commodity of a request got served (which
// constraint of Algorithm 1 became tight).
type ServeMode int

// Serve modes, aligned with the constraints of Algorithm 1.
const (
	// ServedExisting: Constraint (1) — connected to an already-open
	// facility offering the commodity.
	ServedExisting ServeMode = iota + 1
	// ServedNewSmall: Constraint (3) — a (surviving) temporary small
	// facility opened for the commodity.
	ServedNewSmall
	// ServedExistingLarge: Constraint (2) — the whole request connected
	// to an already-open large facility.
	ServedExistingLarge
	// ServedNewLarge: Constraint (4) — a new large facility opened and
	// serves the whole request.
	ServedNewLarge
)

func (m ServeMode) String() string {
	switch m {
	case ServedExisting:
		return "existing-facility (1)"
	case ServedNewSmall:
		return "new-small (3)"
	case ServedExistingLarge:
		return "existing-large (2)"
	case ServedNewLarge:
		return "new-large (4)"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ServeEvent records the outcome for one commodity of one request.
type ServeEvent struct {
	Request   int // arrival index
	Commodity int
	Mode      ServeMode
	Facility  int     // facility index in Solution().Facilities
	Dual      float64 // the frozen dual a_re
}

// ServeLog returns the per-commodity outcomes of every request served so
// far. The log is reconstructed from the arrivals' records: commodities
// linked to a large facility report the large mode variants; others
// distinguish "existing" vs "new" by whether their facility was opened
// during their own arrival.
func (pd *PDOMFLP) ServeLog() []ServeEvent {
	var log []ServeEvent
	sol := pd.fx.sol
	// Facility indices grow monotonically, so arrival ri opened exactly
	// the indices [before, after).
	after := 0
	eachRecord(pd.recs, func(ri int, rec *pdRecord) {
		before := after
		after += rec.opened
		largeIdx := -1
		for _, fi := range rec.links {
			// The configuration alone cannot tell a large facility from a
			// small one when |S| = 1, so ask the facility index.
			if _, ok := slices.BinarySearch(pd.fx.large, fi); ok {
				largeIdx = fi
				break
			}
		}
		for i, e := range rec.ids {
			ev := ServeEvent{Request: ri, Commodity: e, Dual: rec.duals[i]}
			if largeIdx >= 0 && len(rec.links) == 1 {
				ev.Facility = largeIdx
				if largeIdx >= before && largeIdx < after {
					ev.Mode = ServedNewLarge
				} else {
					ev.Mode = ServedExistingLarge
				}
			} else {
				// Find the linked facility offering e nearest to the
				// request.
				best, bestD := -1, 0.0
				for _, fi := range rec.links {
					if !sol.Facilities[fi].Config.Contains(e) {
						continue
					}
					d := pd.space.Distance(rec.point, sol.Facilities[fi].Point)
					if best < 0 || d < bestD {
						best, bestD = fi, d
					}
				}
				ev.Facility = best
				if best >= before && best < after {
					ev.Mode = ServedNewSmall
				} else {
					ev.Mode = ServedExisting
				}
			}
			log = append(log, ev)
		}
	})
	return log
}
