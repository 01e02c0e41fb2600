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

// bruteNearest is the pre-cache reference: a full scan over a facility list.
func bruteNearest(fx *facilityIndex, list []int, p int) (int, float64) {
	best, bestD := -1, infinity
	for _, idx := range list {
		if d := fx.space.Distance(p, fx.sol.Facilities[idx].Point); d < bestD {
			best, bestD = idx, d
		}
	}
	return best, bestD
}

// bruteNearestOffering mirrors the original nearestOffering semantics: start
// from the nearest large facility, then let a small facility win only if
// strictly closer.
func bruteNearestOffering(fx *facilityIndex, e, p int) (int, float64) {
	best, bestD := bruteNearest(fx, fx.large, p)
	if sb, sd := bruteNearest(fx, fx.smallBy[e], p); sd < bestD {
		best, bestD = sb, sd
	}
	return best, bestD
}

// TestNearestCacheMatchesBruteForce interleaves random openings with queries
// from random points and checks the incremental caches agree with a full
// rescan on every query — including the tie-breaking facility index.
func TestNearestCacheMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		u := 2 + rng.Intn(5)
		space := metric.RandomEuclidean(rng, 4+rng.Intn(12), 2, 10)
		fx := newFacilityIndex(space, u)
		for step := 0; step < 400; step++ {
			switch rng.Intn(4) {
			case 0:
				fx.openSmall(rng.Intn(u), rng.Intn(space.Len()))
			case 1:
				if rng.Intn(3) == 0 {
					fx.openLarge(rng.Intn(space.Len()))
				}
			default:
				p := rng.Intn(space.Len())
				e := rng.Intn(u)
				gotF, gotD := fx.nearestOffering(e, p)
				wantF, wantD := bruteNearestOffering(fx, e, p)
				if gotF != wantF || gotD != wantD {
					t.Fatalf("seed %d step %d: nearestOffering(%d,%d) = (%d,%g), brute force (%d,%g)",
						seed, step, e, p, gotF, gotD, wantF, wantD)
				}
				gotF, gotD = fx.nearestLarge(p)
				wantF, wantD = bruteNearest(fx, fx.large, p)
				if gotF != wantF || gotD != wantD {
					t.Fatalf("seed %d step %d: nearestLarge(%d) = (%d,%g), brute force (%d,%g)",
						seed, step, p, gotF, gotD, wantF, wantD)
				}
			}
		}
	}
}

// TestNearestCacheEmptyIndex pins the no-facility behaviour: (-1, +Inf).
func TestNearestCacheEmptyIndex(t *testing.T) {
	fx := newFacilityIndex(metric.NewLine([]float64{0, 1, 2}), 3)
	if f, d := fx.nearestOffering(1, 2); f != -1 || d != infinity {
		t.Errorf("empty index: nearestOffering = (%d, %g)", f, d)
	}
	if f, d := fx.nearestLarge(0); f != -1 || d != infinity {
		t.Errorf("empty index: nearestLarge = (%d, %g)", f, d)
	}
}

// TestPDSolutionsUnchangedByNearestCache replays a mixed workload through
// PD-OMFLP and checks the full solution remains feasible and identical to
// pdref's naive mode (which answers nearest-facility queries by linear
// scans) — the end-to-end guard that the query caches never change
// algorithmic decisions.
func TestPDSolutionsUnchangedByNearestCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := 5
	space := metric.RandomEuclidean(rng, 14, 2, 60)
	costs := cost.PowerLaw(u, 1, 2)
	fast := NewPDOMFLP(space, costs, Options{})
	ref := newRef(space, costs, Options{}, pdref.Naive)
	in := &instance.Instance{Space: space, Costs: costs}
	for i := 0; i < 250; i++ {
		r := instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		}
		in.Requests = append(in.Requests, r)
		fast.Serve(r)
		ref.Serve(r)
	}
	if err := fast.Solution().Verify(in); err != nil {
		t.Fatal(err)
	}
	fs, rs := fast.Solution(), ref.Solution()
	if len(fs.Facilities) != len(rs.Facilities) {
		t.Fatalf("facility count: fast %d, reference %d", len(fs.Facilities), len(rs.Facilities))
	}
	for i := range fs.Facilities {
		if fs.Facilities[i].Point != rs.Facilities[i].Point ||
			!fs.Facilities[i].Config.Equal(rs.Facilities[i].Config) {
			t.Fatalf("facility %d differs: %+v vs %+v", i, fs.Facilities[i], rs.Facilities[i])
		}
	}
	if fast.Solution().Cost(in) != ref.Solution().Cost(in) {
		t.Errorf("cost differs: %g vs %g", fast.Solution().Cost(in), ref.Solution().Cost(in))
	}
}
