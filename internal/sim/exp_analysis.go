package sim

import (
	"math"
	"math/rand"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/covering"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/workload"
)

func init() {
	register(Experiment{
		ID:         "lem12",
		Title:      "c-ordered covering: achieved weight vs the 2c·H_n bound",
		Reproduces: "Lemma 12 (constructive covering used in the dual feasibility proofs)",
		Run:        runLem12,
	})
	register(Experiment{
		ID:         "dual",
		Title:      "γ-scaled dual feasibility and Corollary 8 cost bound",
		Reproduces: "Corollaries 8 and 17 (primal-dual accounting of PD-OMFLP)",
		Run:        runDual,
	})
}

func runLem12(cfg Config) (*Result, error) {
	sizes := pick(cfg, []int{10, 50}, []int{10, 50, 200, 1000})
	trials := pickInt(cfg, 5, 25)

	tab := report.NewTable("lem12: covering weight vs bound",
		"n", "family", "weight", "2c*H_n", "utilization", "naive weight")
	tab.Note = "Lemma 12: the constructive covering never exceeds 2c·H_n"
	const c = 1.0
	type trialOut struct{ util, weight, naive float64 }
	for _, n := range sizes {
		// Random instances: report the worst utilization over trials. Each
		// trial derives its own rng from (seed, n, trial), so the fan-out
		// is order-independent.
		outs, err := par.Map(cfg.Workers, trials, func(t int) (trialOut, error) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(n)*1000003 + int64(t)*7919))
			in := covering.RandomInstance(rng, n, c, rng.Float64()*0.4)
			res := in.Cover()
			return trialOut{
				util:   res.Weight / in.Bound(),
				weight: res.Weight,
				naive:  in.GreedyNaive().Weight,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		worstU, worstW, worstNaive := 0.0, 0.0, 0.0
		for _, o := range outs {
			if o.util > worstU {
				worstU, worstW, worstNaive = o.util, o.weight, o.naive
			}
		}
		inR := covering.RandomInstance(rand.New(rand.NewSource(cfg.Seed+int64(n)*1000003-1)), n, c, 0.2)
		tab.AddRow(n, "random(worst)", worstW, inR.Bound(), worstU, worstNaive)

		chain := covering.ChainInstance(n, c)
		cres := chain.Cover()
		tab.AddRow(n, "chain", cres.Weight, chain.Bound(), cres.Weight/chain.Bound(),
			chain.GreedyNaive().Weight)

		wc := covering.WorstCaseInstance(n, c)
		wres := wc.Cover()
		tab.AddRow(n, "one-block", wres.Weight, wc.Bound(), wres.Weight/wc.Bound(),
			wc.GreedyNaive().Weight)
	}
	return &Result{Tables: []*report.Table{tab}}, nil
}

func runDual(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	tab := report.NewTable("dual: PD-OMFLP primal-dual accounting",
		"workload", "cost(ALG)", "dual total", "cost/dual (≤3)", "gamma", "max violation (≤0)", "constraints")
	tab.Note = "Corollary 8: cost ≤ 3·Σ duals; Corollary 17: γ-scaled duals are dual-feasible"

	type wl struct {
		name string
		mk   func() *instance.Instance
		u, n int
	}
	u := pickInt(cfg, 4, 6)
	n := pickInt(cfg, 15, 60)
	workloads := []wl{
		{
			name: "uniform-euclidean",
			mk: func() *instance.Instance {
				space := metric.RandomEuclidean(rng, pickInt(cfg, 6, 12), 2, 20)
				return workload.Uniform(rng, space, cost.PowerLaw(u, 1, 1.5), n, u).Instance
			},
		},
		{
			name: "zipf-line",
			mk: func() *instance.Instance {
				space := metric.RandomLine(rng, pickInt(cfg, 6, 12), 30)
				return workload.Zipf(rng, space, cost.PowerLaw(u, 0.8, 1.5), n, u/2+1, 1.3).Instance
			},
		},
		{
			name: "single-point-singles",
			mk: func() *instance.Instance {
				return workload.SinglePointSingles(rng, cost.CeilSqrt(16), 16).Instance
			},
		},
	}

	// Instances come out of the shared rng sequentially (the workload
	// streams are order-dependent); the PD runs and dual checks fan out.
	instances := make([]*instance.Instance, len(workloads))
	for wi, w := range workloads {
		instances[wi] = w.mk()
	}
	type dualRow struct {
		algCost, dual, gamma, maxViolation float64
		checked                            int
	}
	rows, err := par.Map(cfg.Workers, len(workloads), func(wi int) (dualRow, error) {
		in := instances[wi]
		pd := core.NewPDOMFLP(in.Space, in.Costs, core.Options{})
		for _, r := range in.Requests {
			pd.Serve(r)
		}
		sol := pd.Solution()
		if err := sol.Verify(in); err != nil {
			return dualRow{}, err
		}
		gamma := Gamma(in.Universe(), len(in.Requests))
		sampler := rand.New(rand.NewSource(cfg.Seed + int64(wi)*104729))
		rep := checkScaledDuals(pd, in.Space, in.Costs, gamma, 8, pickInt(cfg, 20, 100), sampler)
		return dualRow{
			algCost:      sol.Cost(in),
			dual:         pd.DualTotal(),
			gamma:        gamma,
			maxViolation: rep.MaxViolation,
			checked:      rep.Checked,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for wi, w := range workloads {
		r := rows[wi]
		tab.AddRow(w.name, r.algCost, r.dual, r.algCost/r.dual, r.gamma, r.maxViolation, r.checked)
	}

	// Show the sandwich OPT ≥ γ·dual explicitly on a tiny instance where
	// exact OPT is computable.
	tiny := &instance.Instance{
		Space: metric.NewLine([]float64{0, 1, 4}),
		Costs: cost.PowerLaw(3, 1, 1),
		Requests: []instance.Request{
			{Point: 0, Demands: commodity.New(0, 1)},
			{Point: 1, Demands: commodity.New(1, 2)},
			{Point: 2, Demands: commodity.New(0)},
		},
	}
	pd := core.NewPDOMFLP(tiny.Space, tiny.Costs, core.Options{})
	for _, r := range tiny.Requests {
		pd.Serve(r)
	}
	gamma := Gamma(3, 3)
	sand := report.NewTable("dual: weak-duality sandwich on a tiny exact instance",
		"gamma*dual (≤ OPT)", "exact OPT", "cost(ALG)", "ratio")
	// Local import cycle avoidance: exact solver lives in baseline.
	exact := exactTinyOPT(tiny)
	sand.AddRow(gamma*pd.DualTotal(), exact, pd.Solution().Cost(tiny), pd.Solution().Cost(tiny)/exact)
	return &Result{Tables: []*report.Table{tab, sand}}, nil
}

// Gamma returns the paper's scaling factor γ = 1/(5√|S|·H_n).
func Gamma(u, n int) float64 {
	if n == 0 {
		return 1
	}
	return 1 / (5 * math.Sqrt(float64(u)) * stats.Harmonic(n))
}

// dualReport summarizes a scaled-dual feasibility check (Corollary 17): the
// dual variables a_re produced by PD-OMFLP, scaled by γ, must satisfy every
// dual constraint
//
//	Σ_r ( Σ_{e∈s_r∩σ} γ·a_re − d(m, r) )_+ ≤ f_m^σ
//
// for every candidate point m and configuration σ ⊆ S.
type dualReport struct {
	Checked      int     // number of (m, σ) constraints evaluated
	MaxViolation float64 // max LHS − RHS over checked constraints (≤ 0 is feasible)
}

// checkScaledDuals evaluates the Corollary 17 constraints for the duals a
// PD-OMFLP run on space and costs has produced, every point a candidate.
// For universes of at most maxExhaustive commodities every σ ⊆ S is
// checked; otherwise `trials` random configurations are sampled (rng
// required), always including all singletons and the full set, which the
// analysis treats as the extreme cases (Lemmas 14 and 16).
func checkScaledDuals(pd *core.PDOMFLP, space metric.Space, costs cost.Model, gamma float64, maxExhaustive, trials int, rng *rand.Rand) dualReport {
	rep := dualReport{MaxViolation: math.Inf(-1)}
	u := costs.Universe()
	var configs []commodity.Set
	if u <= maxExhaustive {
		configs = commodity.AllSubsets(u)
	} else {
		for e := 0; e < u; e++ {
			configs = append(configs, commodity.New(e))
		}
		configs = append(configs, commodity.Full(u))
		for t := 0; t < trials; t++ {
			configs = append(configs, commodity.RandomSubset(rng, u, 1+rng.Intn(u)))
		}
	}

	demandIDs, duals, points := pd.Duals()
	for m := 0; m < space.Len(); m++ {
		for _, sigma := range configs {
			var lhs float64
			for ri, ids := range demandIDs {
				var scaled float64
				for i, e := range ids {
					if sigma.Contains(e) {
						scaled += gamma * duals[ri][i]
					}
				}
				if v := scaled - space.Distance(m, points[ri]); v > 0 {
					lhs += v
				}
			}
			rep.Checked++
			if viol := lhs - costs.Cost(m, sigma); viol > rep.MaxViolation {
				rep.MaxViolation = viol
			}
		}
	}
	return rep
}
