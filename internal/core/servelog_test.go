package core

import (
	"math/rand"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

func TestServeLogModes(t *testing.T) {
	// Scripted scenario covering all four modes.
	space := metric.NewLine([]float64{0, 100})
	costs := cost.PowerLaw(4, 1, 2) // singleton 2, full 4
	pd := NewPDOMFLP(space, costs, Options{})

	// Request 1: full demand at 0 → Constraint (4) fires (4Δ hits f^S=4
	// at Δ=1 before singletons at Δ=2): new large facility.
	pd.Serve(instance.Request{Point: 0, Demands: commodity.Full(4)})
	// Request 2: full demand at the same point → Constraint (2): existing
	// large at distance 0.
	pd.Serve(instance.Request{Point: 0, Demands: commodity.Full(4)})
	// Request 3: singleton at the same point → Constraint (1): connects to
	// the existing large facility (it offers everything).
	pd.Serve(instance.Request{Point: 0, Demands: commodity.New(1)})
	// Request 4: singleton far away → new small facility (Constraint (3):
	// dual would hit f^{e}=2 long before the distance 100).
	pd.Serve(instance.Request{Point: 1, Demands: commodity.New(2)})

	log := pd.ServeLog()
	byReq := map[int][]ServeEvent{}
	for _, ev := range log {
		byReq[ev.Request] = append(byReq[ev.Request], ev)
	}
	if len(byReq[0]) != 4 {
		t.Fatalf("request 0 events: %v", byReq[0])
	}
	for _, ev := range byReq[0] {
		if ev.Mode != ServedNewLarge {
			t.Errorf("request 0 commodity %d mode %v, want new-large", ev.Commodity, ev.Mode)
		}
	}
	for _, ev := range byReq[1] {
		if ev.Mode != ServedExistingLarge {
			t.Errorf("request 1 commodity %d mode %v, want existing-large", ev.Commodity, ev.Mode)
		}
	}
	// Request 2 connects to the large facility: with one link that is
	// still "existing large" from the log's perspective.
	if got := byReq[2][0].Mode; got != ServedExistingLarge && got != ServedExisting {
		t.Errorf("request 2 mode %v", got)
	}
	if got := byReq[3][0].Mode; got != ServedNewSmall {
		t.Errorf("request 3 mode %v, want new-small", got)
	}
	// Dual values recorded.
	if byReq[0][0].Dual <= 0 {
		t.Error("request 0 dual not recorded")
	}
	// Facility indices valid.
	for _, ev := range log {
		if ev.Facility < 0 || ev.Facility >= len(pd.Solution().Facilities) {
			t.Errorf("event %+v has invalid facility", ev)
		}
	}
}

func TestServeLogCompleteOnRandomRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := 4
	space := metric.RandomEuclidean(rng, 6, 2, 10)
	pd := NewPDOMFLP(space, cost.PowerLaw(u, 1, 1), Options{})
	total := 0
	for i := 0; i < 20; i++ {
		d := commodity.RandomSubset(rng, u, 1+rng.Intn(u))
		total += d.Len()
		pd.Serve(instance.Request{Point: rng.Intn(space.Len()), Demands: d})
	}
	log := pd.ServeLog()
	if len(log) != total {
		t.Errorf("log has %d events, want %d (one per demanded commodity)", len(log), total)
	}
	for _, ev := range log {
		if ev.Mode < ServedExisting || ev.Mode > ServedNewLarge {
			t.Errorf("invalid mode in %+v", ev)
		}
		// The named facility must actually offer the commodity.
		if !pd.Solution().Facilities[ev.Facility].Config.Contains(ev.Commodity) {
			t.Errorf("event %+v: facility does not offer the commodity", ev)
		}
	}
	if ServedNewSmall.String() == "" || ServeMode(99).String() == "" {
		t.Error("ServeMode.String broken")
	}
}

// TestServeLogOneCommodityLarge: with |S| = 1 a large facility's
// configuration equals a small one's, so ServeLog must take the kind from
// the facility index. Here both facilities open large; their openings are
// new-large and every later connection existing-large.
func TestServeLogOneCommodityLarge(t *testing.T) {
	space := metric.NewLine([]float64{0, 1, 2, 3, 10, 11})
	pd := NewPDOMFLP(space, cost.PowerLaw(1, 1, 2), Options{})
	for _, p := range []int{0, 0, 1, 4, 5, 5, 2} {
		pd.Serve(instance.Request{Point: p, Demands: commodity.New(0)})
	}
	if small, large := pd.FacilityCounts(); small != 0 || large != 2 {
		t.Fatalf("%d small and %d large facilities open, want 0 and 2", small, large)
	}
	newLarge := 0
	for _, ev := range pd.ServeLog() {
		switch ev.Mode {
		case ServedNewLarge:
			newLarge++
		case ServedExistingLarge:
		default:
			t.Errorf("request %d served by large facility %d logged %v", ev.Request, ev.Facility, ev.Mode)
		}
	}
	if newLarge != 2 {
		t.Errorf("%d new-large events, want one per large facility (2)", newLarge)
	}
}
