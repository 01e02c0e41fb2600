package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
)

// hashShape describes a seeded serving stream in the shape of the serving
// benchmark's workloads: points uniform in the unit square under an explicit
// Euclidean distance matrix (as the engine's create op builds them), a
// concave facility cost f(k) = facility·k^0.6, and arrivals demanding
// 1..maxDemand distinct commodities by Zipf popularity.
type hashShape struct {
	universe, points, maxDemand int
	zipf, facility              float64
}

func (sh hashShape) substrate(rng *rand.Rand) (metric.Space, cost.Model) {
	xs := make([]float64, sh.points)
	ys := make([]float64, sh.points)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	d := make([][]float64, sh.points)
	for i := range d {
		d[i] = make([]float64, sh.points)
		for j := range d[i] {
			d[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	bySize := make([]float64, sh.universe+1)
	for k := 1; k <= sh.universe; k++ {
		bySize[k] = sh.facility * math.Pow(float64(k), 0.6)
	}
	table, err := cost.NewTable(bySize)
	if err != nil {
		panic(err)
	}
	return metric.NewMatrix(d), table
}

// arrival draws one request: a uniform point and 1..maxDemand distinct
// Zipf-popular commodities.
func (sh hashShape) arrival(rng *rand.Rand, zipf *rand.Zipf) instance.Request {
	k := 1 + rng.Intn(sh.maxDemand)
	ids := make([]int, 0, k)
	for len(ids) < k {
		if c := int(zipf.Uint64()); !slices.Contains(ids, c) {
			ids = append(ids, c)
		}
	}
	return instance.Request{Point: rng.Intn(sh.points), Demands: commodity.New(ids...)}
}

// TestPDStateHashPinned pins the serving state bytes of PD-OMFLP on a long
// single-tenant history (|S| = 32, 200 points) by comparing
// sha256(MarshalState()) and the bits of DualTotal with constants recorded
// from an earlier build. The differential suites compare serve paths that
// share the bid accumulators, and the naive reference only within a
// tolerance, so a change to how a bid or threshold is rounded would pass
// them; it cannot pass this test. The invariants build checks the first cut
// only: its per-arrival history rescans would take minutes on the full run.
func TestPDStateHashPinned(t *testing.T) {
	sh := hashShape{universe: 32, points: 200, maxDemand: 4, zipf: 1.2, facility: 1.5}
	cuts := []struct {
		at    int
		state string
		dual  uint64
	}{
		{2000, "aba08a15db870d69a0444dbd8937d93ad2820299567930bae6e84227def27a25", 0x4075ef7772682927},
		{20000, "8bce4ddde918900785f02d15d51034ed3858a88cba0b46e038f3ec1ca6121087", 0x4094d617aff2c7fe},
	}
	rng := rand.New(rand.NewSource(1))
	space, costs := sh.substrate(rng)
	zipf := rand.NewZipf(rng, sh.zipf, 1, uint64(sh.universe-1))
	pd := NewPDOMFLP(space, costs, Options{})
	served := 0
	for _, c := range cuts {
		if invariantsEnabled && c.at > 2000 {
			break
		}
		for ; served < c.at; served++ {
			pd.Serve(sh.arrival(rng, zipf))
		}
		blob, err := pd.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != c.state {
			t.Errorf("after %d arrivals: state sha256 %s, want %s", c.at, got, c.state)
		}
		if got := math.Float64bits(pd.DualTotal()); got != c.dual {
			t.Errorf("after %d arrivals: DualTotal bits %#x, want %#x", c.at, got, c.dual)
		}
	}
}

// TestPDStateHashPinnedManyTenants is the many-small-tenants analogue:
// 300 instances with 10 points and |S| = 4 share one arrival stream, every
// second one restricted to a candidate subset or running without
// prediction. One digest covers every tenant's state bytes followed by its
// DualTotal bits.
func TestPDStateHashPinnedManyTenants(t *testing.T) {
	const (
		tenants  = 300
		arrivals = 30000
		want     = "67dc8bb3d1c9fbecc84cb171ed86995b8e7b7e1d00c567620dd067626ceb6aba"
	)
	sh := hashShape{universe: 4, points: 10, maxDemand: 2, zipf: 1.5, facility: 1}
	rng := rand.New(rand.NewSource(2))
	pds := make([]*PDOMFLP, tenants)
	for i := range pds {
		space, costs := sh.substrate(rng)
		var opts Options
		switch i % 4 {
		case 1:
			opts.Candidates = []int{0, 3, 4, 7, 9}
		case 3:
			opts.DisablePrediction = true
		}
		pds[i] = NewPDOMFLP(space, costs, opts)
	}
	zipf := rand.NewZipf(rng, sh.zipf, 1, uint64(sh.universe-1))
	for i := 0; i < arrivals; i++ {
		pds[rng.Intn(tenants)].Serve(sh.arrival(rng, zipf))
	}
	h := sha256.New()
	for _, pd := range pds {
		blob, err := pd.MarshalState()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
		h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(pd.DualTotal())))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("state digest %s, want %s", got, want)
	}
}

// TestPDServeAllocationBudget: over a 20,000-arrival stream in the serving
// benchmark's `deep` shape, Serve allocates at most 1.2 times per arrival on
// average. Per arrival only the assignment row is new; the demand ids go
// through scratch and the duals straight into the arrival's record, whose
// buffer, like the credit ledgers, grows by doubling.
func TestPDServeAllocationBudget(t *testing.T) {
	if invariantsEnabled {
		t.Skip("the invariants build allocates in its assertions")
	}
	const arrivals = 20000
	sh := hashShape{universe: 32, points: 200, maxDemand: 4, zipf: 1.2, facility: 1.5}
	rng := rand.New(rand.NewSource(7))
	space, costs := sh.substrate(rng)
	zipf := rand.NewZipf(rng, sh.zipf, 1, uint64(sh.universe-1))
	reqs := make([]instance.Request, arrivals)
	for i := range reqs {
		reqs[i] = sh.arrival(rng, zipf)
	}
	allocs := testing.AllocsPerRun(1, func() {
		pd := NewPDOMFLP(space, costs, Options{})
		for _, r := range reqs {
			pd.Serve(r)
		}
	})
	if perArrival := allocs / arrivals; perArrival > 1.2 {
		t.Errorf("Serve made %.3f allocations per arrival, want at most 1.2", perArrival)
	}
}
