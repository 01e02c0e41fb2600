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

// TestThresholdCacheMatchesOracle drives workloads and, after every
// arrival, runs the bounded threshold scans of every bid row (each
// commodity's, including rows that still read zeroBids, and the large row)
// from every point, comparing them bit for bit against the full oracle
// scan. Long runs on small candidate sets make addBid fold many raises into
// the bounds; facility openings make refreshes lower credits and recompute
// them. The shapes cover distance ties (colocated points, so the distance
// order falls back to candidate indices), a candidate subset, |S| = 1 and
// runs without prediction.
func TestThresholdCacheMatchesOracle(t *testing.T) {
	type shape struct {
		name  string
		space metric.Space
		u     int
		opts  Options
	}
	var shapes []shape
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(4)
		shapes = append(shapes, shape{"random", metric.RandomEuclidean(rng, 4+rng.Intn(6), 2, 20), u, Options{}})
	}
	colocated := metric.NewEuclidean([][]float64{{0, 0}, {0, 0}, {3, 4}, {3, 4}, {3, 4}, {6, 0}, {0, 0}})
	subset := metric.RandomEuclidean(rand.New(rand.NewSource(4)), 9, 2, 20)
	shapes = append(shapes,
		shape{"colocated", colocated, 3, Options{}},
		shape{"candidate subset", subset, 3, Options{Candidates: []int{7, 2, 5, 0}}},
		shape{"singleton universe", metric.RandomEuclidean(rand.New(rand.NewSource(5)), 8, 2, 20), 1, Options{}},
		shape{"no prediction", metric.RandomEuclidean(rand.New(rand.NewSource(6)), 8, 2, 20), 4, Options{DisablePrediction: true}},
	)
	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(10 + si)))
		pd := NewPDOMFLP(sh.space, cost.PowerLaw(sh.u, 1, 1.5), sh.opts)
		for i := 0; i < 120; i++ {
			pd.Serve(instance.Request{
				Point:   rng.Intn(sh.space.Len()),
				Demands: commodity.RandomSubset(rng, sh.u, 1+rng.Intn(sh.u)),
			})
			for p := 0; p < sh.space.Len(); p++ {
				dCand, byDist := pd.ct.distTo(p)
				for e := 0; e < sh.u; e++ {
					row := pd.bidSmall[e]
					if row == nil {
						row = pd.zeroBids
					}
					gotT, gotM := pd.boundSmall[e].scan(pd.ct.single[e], row, dCand, byDist)
					wantT, wantM := pdScanThresholds(pd.ct.single[e], row, dCand)
					if gotT != wantT || gotM != wantM {
						t.Fatalf("%s: arrival %d: small[%d] at point %d = (%v,%v), oracle (%v,%v)",
							sh.name, i, e, p, gotT, gotM, wantT, wantM)
					}
				}
				gotT, gotM := pd.boundLarge.scan(pd.ct.full, pd.bidLarge, dCand, byDist)
				wantT, wantM := pdScanThresholds(pd.ct.full, pd.bidLarge, dCand)
				if gotT != wantT || gotM != wantM {
					t.Fatalf("%s: arrival %d: large at point %d = (%v,%v), oracle (%v,%v)",
						sh.name, i, p, gotT, gotM, wantT, wantM)
				}
			}
		}
	}
}

// TestThresholdCacheSurvivesRestore marshals an event instance mid-run,
// restores into a fresh instance, continues both, and requires both to end
// bit-identical to pdref — facilities, duals, credits and bid rows — the
// restored instance rebuilds its scan bounds from the restored bid rows.
func TestThresholdCacheSurvivesRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := 3
	space := metric.RandomEuclidean(rng, 8, 2, 30)
	costs := cost.PowerLaw(u, 1, 1.5)
	reqs := make([]instance.Request, 80)
	for i := range reqs {
		reqs[i] = instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		}
	}

	full := NewPDOMFLP(space, costs, Options{})
	ref := newRef(space, costs, Options{}, pdref.Running)
	for _, r := range reqs {
		full.Serve(r)
		ref.Serve(r)
	}

	half := NewPDOMFLP(space, costs, Options{})
	for _, r := range reqs[:40] {
		half.Serve(r)
	}
	blob, err := half.MarshalState()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resumed := NewPDOMFLP(space, costs, Options{})
	if err := resumed.UnmarshalState(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, r := range reqs[40:] {
		resumed.Serve(r)
	}
	comparePDExact(t, "full", len(reqs)-1, full, ref)
	comparePDExact(t, "restored", len(reqs)-1, resumed, ref)
}
