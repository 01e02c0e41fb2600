package core

import (
	"math/rand"
	"testing"

	"repro/internal/commodity"
	"repro/internal/core/pdref"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// pdFuzzCase is one decoded FuzzPDMatchesReference input.
type pdFuzzCase struct {
	space metric.Space
	costs cost.Model
	opts  Options
	cut   int // the arrival before which the state goes through a round trip
	reqs  []instance.Request
}

// decodePDFuzz reads a fuzz input as a small PD instance; bytes past the
// end read as 0:
//
//	n         2 + b%7 points on a line
//	n × pos   b%16 quarter units plus b/16%4 hairs of 1e-11, so points
//	          coincide, distances tie exactly, and thresholds sit inside
//	          the tightness tolerance of one another
//	u         |S| = 1 + b%4
//	costs     b%10 < 9: cost.PowerLaw with x = (b%10)/4; 9: all zero
//	flags     bit 0: a two-point candidate subset follows (the first point
//	          b%n, the second 1 + b%(n−1) points after it, cyclically);
//	          bit 1: DisablePrediction
//	cut       b % the number of requests
//	requests  up to 64 pairs: point b%n, then 1 + b%(2^u − 1) as a
//	          bitmask of demanded commodities
func decodePDFuzz(data []byte) pdFuzzCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	n := 2 + next()%7
	pos := make([]float64, n)
	for i := range pos {
		b := next()
		pos[i] = float64(b%16)/4 + float64(b/16%4)*1e-11
	}
	c := pdFuzzCase{space: metric.NewLine(pos)}
	u := 1 + next()%4
	if x := next() % 10; x < 9 {
		c.costs = cost.PowerLaw(u, float64(x)/4, 1)
	} else {
		// NewSizeCost skips the public constructors' positivity check:
		// zero opening costs make every event a Δ = 0 tie.
		c.costs = cost.NewSizeCost(u, func(int) float64 { return 0 }, "zero")
	}
	flags := next()
	if flags&1 != 0 {
		first := next() % n
		c.opts.Candidates = []int{first, (first + 1 + next()%(n-1)) % n}
	}
	c.opts.DisablePrediction = flags&2 != 0
	cut := next()
	for len(data) >= 2 && len(c.reqs) < 64 {
		p, mask := next()%n, 1+next()%(1<<u-1)
		var ids []int
		for e := 0; e < u; e++ {
			if mask&(1<<e) != 0 {
				ids = append(ids, e)
			}
		}
		c.reqs = append(c.reqs, instance.Request{Point: p, Demands: commodity.New(ids...)})
	}
	if len(c.reqs) > 0 {
		c.cut = cut % len(c.reqs)
	}
	return c
}

// pdFuzzSeed encodes what decodePDFuzz reads: the header bytes as given,
// then reqs random requests drawn from rng.
func pdFuzzSeed(rng *rand.Rand, reqs int, pos []byte, u, costs, flags byte, cands []byte, cut byte) []byte {
	data := append([]byte{byte(len(pos) - 2)}, pos...)
	data = append(data, u-1, costs, flags)
	data = append(data, cands...)
	data = append(data, cut)
	for i := 0; i < reqs; i++ {
		data = append(data, byte(rng.Intn(len(pos))), byte(rng.Intn(1<<u-1)))
	}
	return data
}

// FuzzPDMatchesReference serves small instances through the event-driven
// loop and pdref's running mode and requires them to agree bit for bit
// after every arrival: facilities, links, duals, credits, bid rows and
// DualTotal (comparePDExact). Before the arrival the input picks, the
// event-driven instance goes through MarshalState and UnmarshalState into
// a fresh instance, which must keep matching to the end. After every
// arrival, on both sides of that cut, MarshalState must equal the
// field-by-field encoder (pdOracle) fed pdref's duals.
//
// The seeds carry the spaces of pd_event_test.go: the tol-edges line, the
// zero-distance space (every point at 0) and the colocated points, the
// latter with all candidates and with two colocated candidates listed out
// of point order, so the nearest-tight-candidate tie-break is exercised.
func FuzzPDMatchesReference(f *testing.F) {
	tolEdges := []byte{0, 16, 32, 4, 20} // 0, 1e-11, 2e-11, 1, 1+1e-11
	colocated := []byte{0, 0, 5, 5, 6}   // 0, 0, 1.25, 1.25, 1.5
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(17)), 64, tolEdges, 2, 4, 0, nil, 40))
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(21)), 60, []byte{0, 0, 0, 0}, 3, 3, 0, nil, 30))
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(3)), 64, []byte{0, 0, 0, 0}, 4, 9, 0, nil, 20))
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(5)), 64, colocated, 3, 4, 0, nil, 50))
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(5)), 64, colocated, 3, 4, 1, []byte{1, 3}, 10)) // candidates {1, 0}
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(5)), 64, colocated, 3, 4, 1, []byte{4, 1}, 33)) // candidates {4, 1}
	f.Add(pdFuzzSeed(rand.New(rand.NewSource(11)), 64, colocated, 4, 9, 2, nil, 25))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodePDFuzz(data)
		ev := NewPDOMFLP(c.space, c.costs, c.opts)
		ref := newRef(c.space, c.costs, c.opts, pdref.Running)
		var oracle pdOracle
		for i, r := range c.reqs {
			if i == c.cut {
				blob, err := ev.MarshalState()
				if err != nil {
					t.Fatal(err)
				}
				ev = NewPDOMFLP(c.space, c.costs, c.opts)
				if err := ev.UnmarshalState(blob); err != nil {
					t.Fatalf("restore at arrival %d: %v", i, err)
				}
			}
			ev.Serve(r)
			ref.Serve(r)
			comparePDExact(t, "fuzz", i, ev, ref)
			oracle.served(ev, r, ref.Duals()[i])
			oracle.check(t, "fuzz", ev)
		}
	})
}
