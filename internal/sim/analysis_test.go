package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// TestCoveringInstanceFromExecution closes the loop between Algorithm 1 and
// its analysis: the A/B partition extracted from an actual PD run must form
// a valid c-ordered covering instance (Definition 9), and the constructive
// covering must respect the 2c·H_n bound — the exact argument of Lemma 14.
func TestCoveringInstanceFromExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 6; trial++ {
		u := 2 + rng.Intn(3)
		space := metric.RandomLine(rng, 4, 10)
		costs := cost.PowerLaw(u, 1, 1+rng.Float64())
		run := newLem14Run(space, costs)
		n := 8 + rng.Intn(8)
		for i := 0; i < n; i++ {
			run.serve(instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		for e := 0; e < u; e++ {
			for m := 0; m < space.Len(); m++ {
				inst, ok := run.coveringInstance(e, m)
				if !ok {
					continue
				}
				if err := inst.Validate(); err != nil {
					t.Fatalf("trial %d e=%d m=%d: execution-derived instance invalid: %v",
						trial, e, m, err)
				}
				res := inst.Cover()
				if !res.Covered(inst.N()) {
					t.Fatalf("trial %d e=%d m=%d: covering incomplete", trial, e, m)
				}
				if res.Weight > inst.Bound()+1e-9 {
					t.Errorf("trial %d e=%d m=%d: weight %g exceeds 2cH_n %g",
						trial, e, m, res.Weight, inst.Bound())
				}
			}
		}
	}
	// A commodity no request demanded has no instance.
	run := newLem14Run(metric.SinglePoint(), cost.PowerLaw(2, 1, 1))
	run.serve(instance.Request{Point: 0, Demands: commodity.New(0)})
	if _, ok := run.coveringInstance(1, 0); ok {
		t.Error("covering instance for an unrequested commodity")
	}
	if _, ok := run.coveringInstance(0, 0); !ok {
		t.Error("no covering instance for a requested commodity")
	}
}

// Property: for arbitrary seeds, extracted B sets are monotone (the
// Definition 9 property the proof depends on).
func TestQuickExecutionBSetsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(3)
		space := metric.RandomLine(rng, 3, 8)
		run := newLem14Run(space, cost.PowerLaw(u, 1, 1))
		for i := 0; i < 10; i++ {
			run.serve(instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		for e := 0; e < u; e++ {
			inst, ok := run.coveringInstance(e, 0)
			if !ok {
				continue
			}
			if inst.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPDScaledDualFeasibility(t *testing.T) {
	// Corollary 17: duals scaled by γ = 1/(5√|S|·H_n) are dual-feasible.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		u := 2 + rng.Intn(4)
		space := metric.RandomLine(rng, 5, 12)
		costs := cost.PowerLaw(u, 1, 1)
		pd := core.NewPDOMFLP(space, costs, core.Options{})
		n := 10
		for i := 0; i < n; i++ {
			pd.Serve(instance.Request{
				Point:   rng.Intn(space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}
		rep := checkScaledDuals(pd, space, costs, Gamma(u, n), 8, 0, nil)
		if rep.MaxViolation > 1e-9 {
			t.Errorf("trial %d: scaled duals infeasible, max violation %g", trial, rep.MaxViolation)
		}
		if rep.Checked == 0 {
			t.Error("no constraints checked")
		}
	}
}

func TestGamma(t *testing.T) {
	// γ = 1/(5·√|S|·H_n).
	got := Gamma(16, 1)
	if want := 1.0 / (5 * 4 * 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("Gamma(16,1) = %g, want %g", got, want)
	}
	if Gamma(4, 0) != 1 {
		t.Errorf("Gamma(_, 0) = %g, want 1", Gamma(4, 0))
	}
}
