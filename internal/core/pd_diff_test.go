package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/commodity"
	"repro/internal/core/pdref"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// diffWorkload replays the same seeded random request sequence through the
// incremental algorithm and both modes of pdref and asserts that
// facilities, assignments and duals agree after every arrival: within
// tolerance against the naive mode, bit for bit against the running mode.
func diffWorkload(t *testing.T, seed int64, opts Options, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := 2 + rng.Intn(8)
	var space metric.Space
	switch rng.Intn(3) {
	case 0:
		space = metric.RandomEuclidean(rng, 4+rng.Intn(20), 2, 50)
	case 1:
		space = metric.RandomLine(rng, 4+rng.Intn(20), 30)
	default:
		space = metric.NewUniform(3+rng.Intn(8), rng.Float64()*4)
	}
	costs := cost.PowerLaw(u, rng.Float64()*2, 0.5+rng.Float64()*3)

	inc := NewPDOMFLP(space, costs, opts)
	naive := newRef(space, costs, opts, pdref.Naive)
	running := newRef(space, costs, opts, pdref.Running)
	for i := 0; i < n; i++ {
		r := instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		}
		inc.Serve(r)
		naive.Serve(r)
		running.Serve(r)
		compareStates(t, seed, i, inc, naive)
		// The running mode keeps the same bid rows, so it must agree bit
		// for bit with the event-driven loop, not just within tolerance.
		comparePDExact(t, "running-reference", i, inc, running)
		if t.Failed() {
			return
		}
	}
	if d := math.Abs(inc.DualTotal() - naive.DualTotal()); d > 1e-9*(1+naive.DualTotal()) {
		t.Errorf("seed %d: DualTotal diverged by %g (inc %g, naive %g)",
			seed, d, inc.DualTotal(), naive.DualTotal())
	}
}

func compareStates(t *testing.T, seed int64, step int, inc *PDOMFLP, ref *pdref.PD) {
	t.Helper()
	incSol, refSol := inc.Solution(), ref.Solution()
	if len(incSol.Facilities) != len(refSol.Facilities) {
		t.Errorf("seed %d step %d: %d facilities vs reference %d",
			seed, step, len(incSol.Facilities), len(refSol.Facilities))
		return
	}
	for fi := range incSol.Facilities {
		a, b := incSol.Facilities[fi], refSol.Facilities[fi]
		if a.Point != b.Point || !a.Config.Equal(b.Config) {
			t.Errorf("seed %d step %d: facility %d = (%d,%v) vs reference (%d,%v)",
				seed, step, fi, a.Point, a.Config, b.Point, b.Config)
			return
		}
	}
	la, lb := incSol.Assign[step], refSol.Assign[step]
	if len(la) != len(lb) {
		t.Errorf("seed %d step %d: links %v vs reference %v", seed, step, la, lb)
		return
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("seed %d step %d: links %v vs reference %v", seed, step, la, lb)
			return
		}
	}
	for i, d := range recordAt(inc, step).duals {
		if want := ref.Duals()[step][i]; math.Abs(d-want) > 1e-9*(1+want) {
			t.Errorf("seed %d step %d: dual[%d] = %g vs reference %g",
				seed, step, i, d, want)
			return
		}
	}
}

// TestPDIncrementalMatchesNaive is the differential test for the incremental
// bid accounting: across seeded random workloads the incremental Serve must
// produce identical facilities, assignments and (up to float tolerance)
// DualTotal to the naive per-arrival recomputation.
func TestPDIncrementalMatchesNaive(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		diffWorkload(t, seed, Options{}, 40)
	}
}

func TestPDIncrementalMatchesNaiveNoPrediction(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		diffWorkload(t, seed, Options{DisablePrediction: true}, 30)
	}
}

func TestPDIncrementalMatchesNaiveRestrictedCandidates(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		diffWorkload(t, seed, Options{Candidates: []int{0, 1, 2}}, 30)
	}
}

// TestPDIncrementalBidsMatchCreditSums cross-checks the live accumulators
// against the credit history directly (not just through observable behaviour).
func TestPDIncrementalBidsMatchCreditSums(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	u := 6
	space := metric.RandomEuclidean(rng, 12, 2, 40)
	costs := cost.PowerLaw(u, 1, 2)
	pd := NewPDOMFLP(space, costs, Options{})
	for i := 0; i < 60; i++ {
		pd.Serve(instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	for e := 0; e < u; e++ {
		want := pd.naiveBidsOver(pd.creditSmall[e])
		got := pd.bidSmall[e]
		if got == nil {
			got = pd.zeroBids
		}
		for ci := range want {
			if math.Abs(got[ci]-want[ci]) > 1e-9*(1+want[ci]) {
				t.Errorf("bidSmall[%d][%d] = %g, credit history says %g", e, ci, got[ci], want[ci])
			}
		}
	}
	want := pd.naiveBidsOver(pd.creditLarge)
	for ci := range want {
		if math.Abs(pd.bidLarge[ci]-want[ci]) > 1e-9*(1+want[ci]) {
			t.Errorf("bidLarge[%d] = %g, credit history says %g", ci, pd.bidLarge[ci], want[ci])
		}
	}
}
