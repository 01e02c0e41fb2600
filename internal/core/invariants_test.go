//go:build invariants

package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// serveRandom drives pd through n random arrivals; under -tags invariants
// every Serve re-derives the credit and bid invariants and panics on
// violation, so a clean return is the assertion.
func serveRandom(pd *PDOMFLP, rng *rand.Rand, space metric.Space, u, n int) {
	for i := 0; i < n; i++ {
		pd.Serve(instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
}

// TestInvariantsHoldOnRandomWorkloads runs the serve loop under the
// assertion layer.
func TestInvariantsHoldOnRandomWorkloads(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		u := 2 + rng.Intn(3)
		space := metric.RandomLine(rng, 5, 12)
		costs := cost.PowerLaw(u, 1, 1.5)
		serveRandom(NewPDOMFLP(space, costs, Options{}), rng, space, u, 40)
	}
}

// mustPanic runs f and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("expected panic containing %q, got %v", want, r)
		}
	}()
	f()
}

// TestCreditInvariantViolationPanics corrupts a recorded credit so it
// exceeds the distance to the nearest open facility and checks that the next
// arrival trips the credit assertion.
func TestCreditInvariantViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	if len(pd.creditLarge) == 0 {
		t.Fatal("workload recorded no large credits")
	}
	pd.creditLarge[0].credit += 1e6
	mustPanic(t, "invariant violation: large credit", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}

// TestBidConsistencyViolationPanics corrupts an incremental bid accumulator
// and checks that the next arrival trips the differential assertion. The
// row's scan bound is recomputed first so the bounded threshold scan's
// (earlier) oracle check sees a self-consistent — if corrupt — row and
// defers to the bid assertion.
func TestBidConsistencyViolationPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	pd.bidLarge[0] += 0.5
	pd.boundLarge = rowBound(pd.ct.full, pd.bidLarge)
	mustPanic(t, "invariant violation: large bid row", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}

// TestThresholdCacheDivergencePanics corrupts the large bid of the
// candidate farthest from the next arrival by a large amount without
// widening the row's scan bound, so the nearest-first bounded scan stops
// before it, and checks that the oracle cross-check — which fires before
// the bid assertion — catches the divergent minimum.
func TestThresholdCacheDivergencePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	u := 2
	space := metric.RandomLine(rng, 5, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1.5), Options{})
	serveRandom(pd, rng, space, u, 20)
	_, byDist := pd.ct.distTo(0)
	pd.bidLarge[byDist[len(byDist)-1]] += 1e6
	mustPanic(t, "bounded threshold scan diverged", func() {
		pd.Serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	})
}
