package sim

import (
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/lp"
	"repro/internal/metric"
	"repro/internal/online"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:         "lpgap",
		Title:      "LP relaxation of Section 1.1: integrality gap and certified ratios",
		Reproduces: "Section 1.1 (primal/dual LP) — certified competitive ratios via true LP lower bounds",
		Run:        runLPGap,
	})
}

// runLPGap solves the Section 1.1 LP relaxation exactly on small random
// instances (complete configuration family), sandwiching
//
//	γ·dual(PD) ≤ LP ≤ exact OPT ≤ cost(PD)
//
// and reporting the integrality gap and the *certified* competitive ratio
// cost(PD)/LP — unlike proxy-based ratios this one cannot understate.
func runLPGap(cfg Config) (*Result, error) {
	trials := pickInt(cfg, 4, 15)

	tab := report.NewTable("lpgap: per-instance sandwich on small random instances",
		"trial", "LP", "exact OPT", "gap OPT/LP", "pd cost", "pd/LP (certified)", "gamma*dual (≤LP)")
	tab.Note = "complete configuration family: the LP value is a true lower bound on OPT"

	// Each trial generates its instance from its own sub-seeded rng and
	// solves LP + exact + PD independently, so trials fan out across
	// workers; rows merge back in trial order.
	type lpRow struct{ lpVal, exact, gap, pdCost, cert, gammaDual float64 }
	rows, err := par.Map(cfg.Workers, trials, func(trial int) (lpRow, error) {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*104729))
		u := 2 + rng.Intn(3)
		in := &instance.Instance{
			Space: metric.RandomLine(rng, 2+rng.Intn(3), 10),
			Costs: cost.PowerLaw(u, 1, 1+rng.Float64()),
		}
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			in.Requests = append(in.Requests, instance.Request{
				Point:   rng.Intn(in.Space.Len()),
				Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
			})
		}

		relax, err := lp.OMFLPRelaxation(in)
		if err != nil {
			return lpRow{}, err
		}
		exact := baseline.ExactSmall(in, 4)

		pd := core.NewPDOMFLP(in.Space, in.Costs, core.Options{})
		for _, r := range in.Requests {
			pd.Serve(r)
		}
		if err := pd.Solution().Verify(in); err != nil {
			return lpRow{}, err
		}
		pdCost := pd.Solution().Cost(in)
		return lpRow{
			lpVal:     relax.Value,
			exact:     exact.Cost,
			gap:       lp.IntegralityGap(exact.Cost, relax.Value),
			pdCost:    pdCost,
			cert:      pdCost / relax.Value,
			gammaDual: Gamma(u, n) * pd.DualTotal(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var gaps, certified []float64
	for trial, r := range rows {
		tab.AddRow(trial, r.lpVal, r.exact, r.gap, r.pdCost, r.cert, r.gammaDual)
		gaps = append(gaps, r.gap)
		certified = append(certified, r.cert)
	}

	sum := report.NewTable("lpgap: summary over trials",
		"quantity", "mean", "max")
	gs := stats.Summarize(gaps)
	cs := stats.Summarize(certified)
	sum.AddRow("integrality gap OPT/LP", gs.Mean, gs.Max)
	sum.AddRow("certified ratio pd/LP", cs.Mean, cs.Max)

	// RAND too, on one fixed instance, to show the certified ratio of the
	// randomized algorithm.
	inFixed := &instance.Instance{
		Space: metric.NewLine([]float64{0, 2, 5, 9}),
		Costs: cost.PowerLaw(3, 1, 1.5),
		Requests: []instance.Request{
			{Point: 0, Demands: commodity.New(0, 1)},
			{Point: 1, Demands: commodity.New(1)},
			{Point: 2, Demands: commodity.New(2)},
			{Point: 3, Demands: commodity.New(0, 2)},
		},
	}
	relax, err := lp.OMFLPRelaxation(inFixed)
	if err != nil {
		return nil, err
	}
	reps := pickInt(cfg, 5, 20)
	raCost, err := par.MeanOf(cfg.Workers, reps, func(i int) (float64, error) {
		_, c, err := online.Run(core.RandFactory(core.Options{}), inFixed, cfg.Seed+int64(i), true)
		return c, err
	})
	if err != nil {
		return nil, err
	}
	sum.AddRow("rand/LP on fixed instance", raCost/relax.Value, raCost/relax.Value)

	return &Result{Tables: []*report.Table{tab, sum}}, nil
}
