package lp_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"

	"repro/internal/baseline"
	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/sim"
)

func tinyInstance(rng *rand.Rand) *instance.Instance {
	u := 2 + rng.Intn(3)
	in := &instance.Instance{
		Space: metric.RandomLine(rng, 2+rng.Intn(3), 8),
		Costs: cost.PowerLaw(u, 1, 1+rng.Float64()),
	}
	n := 2 + rng.Intn(4)
	for i := 0; i < n; i++ {
		in.Requests = append(in.Requests, instance.Request{
			Point:   rng.Intn(in.Space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	return in
}

func TestRelaxationOnKnownInstance(t *testing.T) {
	// Single point, two singleton requests, sqrt cost: the LP can open
	// y^{0,1} = 1 for √2 — which is also integral OPT here.
	in := &instance.Instance{
		Space: metric.SinglePoint(),
		Costs: cost.PowerLaw(2, 1, 1),
		Requests: []instance.Request{
			{Point: 0, Demands: commodity.New(0)},
			{Point: 0, Demands: commodity.New(1)},
		},
	}
	res, err := lp.OMFLPRelaxation(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Error("family should be complete for |S|=2")
	}
	if math.Abs(res.Value-math.Sqrt2) > 1e-6 {
		t.Errorf("LP value = %g, want √2", res.Value)
	}
}

func TestRelaxationLowerBoundsExactOPT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		in := tinyInstance(rng)
		res, err := lp.OMFLPRelaxation(in)
		if err != nil {
			t.Fatal(err)
		}
		exact := baseline.ExactSmall(in, 4)
		if res.Value > exact.Cost+1e-6 {
			t.Errorf("trial %d: LP %g exceeds exact OPT %g", trial, res.Value, exact.Cost)
		}
		gap := lp.IntegralityGap(exact.Cost, res.Value)
		if !math.IsNaN(gap) && gap < 1-1e-9 {
			t.Errorf("trial %d: integrality gap %g < 1", trial, gap)
		}
	}
}

func TestRelaxationRestrictedFamilyFlagged(t *testing.T) {
	in := &instance.Instance{
		Space: metric.SinglePoint(),
		Costs: cost.PowerLaw(10, 1, 1), // u=10 > maxFullEnum
		Requests: []instance.Request{
			{Point: 0, Demands: commodity.New(0, 9)},
		},
	}
	res, err := lp.OMFLPRelaxation(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Error("restricted family reported as exact")
	}
	if res.Value <= 0 {
		t.Errorf("LP value = %g", res.Value)
	}
}

func TestPDGammaScaledDualsAreLPFeasible(t *testing.T) {
	// The γ-scaled PD duals must be feasible for the dual LP, certifying
	// γ·Σa ≤ LP ≤ OPT — the executable version of Corollary 17 + weak
	// duality against the LP value.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		in := tinyInstance(rng)
		pd := core.NewPDOMFLP(in.Space, in.Costs, core.Options{})
		for _, r := range in.Requests {
			pd.Serve(r)
		}
		ids, duals, points := pd.Duals()
		gamma := sim.Gamma(in.Universe(), len(in.Requests))
		scaled := make([][]float64, len(duals))
		for i := range duals {
			scaled[i] = make([]float64, len(duals[i]))
			for j := range duals[i] {
				scaled[i][j] = gamma * duals[i][j]
			}
		}
		family := commodity.AllSubsets(in.Universe())
		obj, feasible := lp.DualObjective(in, scaled, ids, points, family, 1e-7)
		if !feasible {
			t.Fatalf("trial %d: scaled duals infeasible for the dual LP", trial)
		}
		res, err := lp.OMFLPRelaxation(in)
		if err != nil {
			t.Fatal(err)
		}
		if obj > res.Value+1e-6 {
			t.Errorf("trial %d: dual objective %g exceeds LP value %g (weak duality broken)",
				trial, obj, res.Value)
		}
	}
}

func TestDualObjectiveDetectsInfeasibility(t *testing.T) {
	in := &instance.Instance{
		Space: metric.SinglePoint(),
		Costs: cost.PowerLaw(2, 1, 1),
		Requests: []instance.Request{
			{Point: 0, Demands: commodity.New(0)},
		},
	}
	// A dual of 100 on a facility of cost 1 is blatantly infeasible.
	_, feasible := lp.DualObjective(in, [][]float64{{100}}, [][]int{{0}}, []int{0},
		commodity.AllSubsets(2), 1e-9)
	if feasible {
		t.Error("infeasible duals accepted")
	}
}

// Property: LP ≤ exact OPT ≤ offline proxy on random tiny instances — the
// full sandwich that validates solver, exact search and proxies against
// each other.
func TestQuickSandwich(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		res, err := lp.OMFLPRelaxation(in)
		if err != nil {
			return false
		}
		exact := baseline.ExactSmall(in, 4)
		proxy := baseline.BestOffline(in, 20)
		return res.Value <= exact.Cost+1e-6 && exact.Cost <= proxy.Cost+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOMFLPRelaxation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := tinyInstance(rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lp.OMFLPRelaxation(in); err != nil {
			b.Fatal(err)
		}
	}
}
