package sim

import (
	"math/rand"
	"slices"

	"repro/internal/commodity"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/covering"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/par"
	"repro/internal/report"
)

func init() {
	register(Experiment{
		ID:         "lem14",
		Title:      "Lemma 14 bridge: covering instances extracted from live PD runs",
		Reproduces: "Lemma 14 (the A/B request partition of PD-OMFLP forms a c-ordered covering instance)",
		Run:        runLem14,
	})
}

// lem14Run is a PD-OMFLP run, every point a candidate, with the one thing
// the proof of Lemma 14 reads of it that PD does not keep: how many
// facilities were open when each request arrived.
type lem14Run struct {
	pd     *core.PDOMFLP
	space  metric.Space
	costs  cost.Model
	opened []int // opened[i]: len(Solution().Facilities) before arrival i
}

func newLem14Run(space metric.Space, costs cost.Model) *lem14Run {
	return &lem14Run{pd: core.NewPDOMFLP(space, costs, core.Options{}), space: space, costs: costs}
}

func (run *lem14Run) serve(r instance.Request) {
	run.opened = append(run.opened, len(run.pd.Solution().Facilities))
	run.pd.Serve(r)
}

// coveringInstance extracts, for commodity e and candidate point m, the
// c-ordered covering instance the proof of Lemma 14 builds from the run:
// the requests demanding e are numbered in arrival order, and request j
// belongs to B_i (for a later request i) once its reinvestment is capped by
// its distance to the nearest facility offering e — d(F(e), j) < a_je at
// the time i arrives. Facilities only open, so d(F(e), j) only falls and
// B_i ⊆ B_i' for i < i', which is Definition 9's monotonicity. The
// parameter c is f_m^{e} + λ with λ = 2·Σ_{j∈B} d(m, j), the proof's
// weight. ok is false when no request demands e.
func (run *lem14Run) coveringInstance(e, m int) (inst *covering.Instance, ok bool) {
	type req struct {
		point, open int // open: facilities open at its arrival
		dual        float64
	}
	var reqs []req
	ids, duals, points := run.pd.Duals()
	for i, d := range ids {
		if k, found := slices.BinarySearch(d, e); found {
			reqs = append(reqs, req{point: points[i], open: run.opened[i], dual: duals[i][k]})
		}
	}
	if len(reqs) == 0 {
		return nil, false
	}
	// dist[j] is d(F(e), j) over the facilities opened so far: 1e308, as
	// PD's query reads it, while none offers e.
	dist := make([]float64, len(reqs))
	for j := range dist {
		dist[j] = 1e308
	}
	inB := make([]bool, len(reqs))
	inst = &covering.Instance{B: make([][]int, len(reqs))}
	facs, seen := run.pd.Solution().Facilities, 0
	for i, r := range reqs {
		for _, f := range facs[seen:r.open] {
			if f.Config.Contains(e) {
				for j, q := range reqs {
					dist[j] = min(dist[j], run.space.Distance(q.point, f.Point))
				}
			}
		}
		seen = r.open
		for j := range i {
			inB[j] = inB[j] || dist[j] < reqs[j].dual
			if inB[j] {
				inst.B[i] = append(inst.B[i], j)
			}
		}
	}
	var lambda float64
	for j, q := range reqs {
		if inB[j] {
			lambda += 2 * run.space.Distance(m, q.point)
		}
	}
	inst.C = run.costs.Cost(m, commodity.New(e)) + lambda
	return inst, true
}

// runLem14 executes PD-OMFLP, extracts the Definition 9 instance for every
// (commodity, point) pair as the Lemma 14 proof does, and reports validity
// and covering weight vs the 2c·H_n bound — the bridge between the
// algorithm's execution and its competitive analysis.
func runLem14(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := pickInt(cfg, 3, 5)
	n := pickInt(cfg, 15, 50)
	points := pickInt(cfg, 4, 8)

	space := metric.RandomEuclidean(rng, points, 2, 15)
	costs := cost.PowerLaw(u, 1, 1.5)
	run := newLem14Run(space, costs)
	for i := 0; i < n; i++ {
		run.serve(instance.Request{
			Point:   rng.Intn(points),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}

	tab := report.NewTable("lem14: execution-derived c-ordered covering instances",
		"commodity", "point", "elements", "valid", "cover weight", "2c*H_n", "utilization")
	tab.Note = "Definition 9 monotonicity must emerge from PD's execution; weight ≤ 2c·H_n (Lemma 12)"

	// Extraction and covering are read-only on the finished PD run, so the
	// (commodity, point) grid fans out across workers; rows merge back in
	// (e, m) order.
	type cell struct {
		ok       bool
		valid    string
		elements int
		weight   float64
		bound    float64
		util     float64
	}
	cells, err := par.Map(cfg.Workers, u*points, func(i int) (cell, error) {
		e, m := i/points, i%points
		inst, ok := run.coveringInstance(e, m)
		if !ok {
			return cell{}, nil
		}
		valid := "yes"
		if err := inst.Validate(); err != nil {
			valid = "NO: " + err.Error()
		}
		res := inst.Cover()
		return cell{
			ok:       true,
			valid:    valid,
			elements: inst.N(),
			weight:   res.Weight,
			bound:    inst.Bound(),
			util:     res.Weight / inst.Bound(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	extracted, worstUtil := 0, 0.0
	for i, c := range cells {
		if !c.ok {
			continue
		}
		e, m := i/points, i%points
		if c.util > worstUtil {
			worstUtil = c.util
		}
		extracted++
		// Report a sample: first point per commodity plus any invalid.
		if m == 0 || c.valid != "yes" {
			tab.AddRow(e, m, c.elements, c.valid, c.weight, c.bound, c.util)
		}
	}

	sum := report.NewTable("lem14: summary", "quantity", "value")
	sum.AddRow("instances extracted", extracted)
	sum.AddRow("worst utilization (must be ≤ 1)", worstUtil)
	return &Result{Tables: []*report.Table{tab, sum}}, nil
}
