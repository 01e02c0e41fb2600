package core

import (
	"math"
	"math/rand"

	"repro/internal/commodity"
	"repro/internal/stats"
)

// DualReport summarizes a scaled-dual feasibility check (Corollary 17): the
// dual variables a_re produced by PD-OMFLP, scaled by γ = 1/(5·√|S|·H_n),
// must satisfy every dual constraint
//
//	Σ_r ( Σ_{e∈s_r∩σ} γ·a_re − d(m, r) )_+ ≤ f_m^σ
//
// for every candidate point m and configuration σ ⊆ S.
type DualReport struct {
	Gamma          float64
	Checked        int     // number of (m, σ) constraints evaluated
	MaxViolation   float64 // max LHS − RHS over checked constraints (≤ 0 is feasible)
	WorstSlackUsed float64 // max LHS/RHS ratio observed (diagnostics)
	DualTotal      float64 // Σ_r Σ_e a_re (unscaled)
}

// Gamma returns the paper's scaling factor γ = 1/(5√|S|·H_n).
func Gamma(u, n int) float64 {
	if n == 0 {
		return 1
	}
	return 1 / (5 * math.Sqrt(float64(u)) * stats.Harmonic(n))
}

// CheckScaledDuals evaluates the Corollary 17 constraints for the duals the
// algorithm has produced so far. For universes of at most maxExhaustive
// commodities every σ ⊆ S is checked; otherwise `trials` random
// configurations are sampled per point (rng required), always including all
// singletons and the full set, which the analysis treats as the extreme
// cases (Lemmas 14 and 16).
func (pd *PDOMFLP) CheckScaledDuals(gamma float64, maxExhaustive, trials int, rng *rand.Rand) DualReport {
	rep := DualReport{Gamma: gamma, MaxViolation: math.Inf(-1), DualTotal: pd.DualTotal()}

	var configs []commodity.Set
	if pd.u <= maxExhaustive {
		configs = commodity.AllSubsets(pd.u)
	} else {
		for e := 0; e < pd.u; e++ {
			configs = append(configs, commodity.New(e))
		}
		configs = append(configs, commodity.Full(pd.u))
		for t := 0; t < trials; t++ {
			configs = append(configs, commodity.RandomSubset(rng, pd.u, 1+rng.Intn(pd.u)))
		}
	}

	demandIDs, duals, points := pd.Duals()
	for ci, m := range pd.ct.cands {
		for _, sigma := range configs {
			var lhs float64
			for ri, ids := range demandIDs {
				var scaled float64
				for i, e := range ids {
					if sigma.Contains(e) {
						scaled += gamma * duals[ri][i]
					}
				}
				if v := scaled - pd.space.Distance(m, points[ri]); v > 0 {
					lhs += v
				}
			}
			rhs := pd.costs.Cost(m, sigma)
			rep.Checked++
			if viol := lhs - rhs; viol > rep.MaxViolation {
				rep.MaxViolation = viol
			}
			if rhs > 0 {
				if ratio := lhs / rhs; ratio > rep.WorstSlackUsed {
					rep.WorstSlackUsed = ratio
				}
			}
		}
		_ = ci
	}
	return rep
}
