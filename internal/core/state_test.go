package core

import (
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/commodity"
	"repro/internal/cost"
	"repro/internal/instance"
	"repro/internal/metric"
	"repro/internal/online"
)

// stateTestRig builds a deterministic random workload on a shared substrate
// for the marshal/restore differential tests.
type stateTestRig struct {
	space    metric.Space
	costs    cost.Model
	u        int
	requests []instance.Request
}

func newStateRig(seed int64, n int) *stateTestRig {
	rng := rand.New(rand.NewSource(seed))
	u := 2 + rng.Intn(6)
	space := metric.RandomEuclidean(rng, 6+rng.Intn(14), 2, 60)
	rig := &stateTestRig{
		space: space,
		costs: cost.PowerLaw(u, 1, 0.5+rng.Float64()*3),
		u:     u,
	}
	for i := 0; i < n; i++ {
		rig.requests = append(rig.requests, instance.Request{
			Point:   rng.Intn(space.Len()),
			Demands: commodity.RandomSubset(rng, u, 1+rng.Intn(u)),
		})
	}
	return rig
}

// assertSuffixIdentical drives the original algorithm to `cut`, marshals it,
// restores the bytes into the freshly built clone, serves the identical
// suffix through both, and requires bit-identical solutions throughout —
// the online.StateCodec contract.
func assertSuffixIdentical(t *testing.T, rig *stateTestRig, cut int, orig online.Algorithm, fresh func() online.Algorithm) {
	t.Helper()
	for _, r := range rig.requests[:cut] {
		orig.Serve(r)
	}
	sc := orig.(online.StateCodec)
	blob, err := sc.MarshalState()
	if err != nil {
		t.Fatalf("cut %d: marshal: %v", cut, err)
	}
	restored := fresh()
	if err := restored.(online.StateCodec).UnmarshalState(blob); err != nil {
		t.Fatalf("cut %d: unmarshal: %v", cut, err)
	}
	if !reflect.DeepEqual(orig.Solution(), restored.Solution()) {
		t.Fatalf("cut %d: restored solution differs before any suffix arrival", cut)
	}
	for i, r := range rig.requests[cut:] {
		orig.Serve(r)
		restored.Serve(r)
		if !reflect.DeepEqual(orig.Solution(), restored.Solution()) {
			t.Fatalf("cut %d: solutions diverge at suffix arrival %d", cut, i)
		}
	}
	// A second marshal of both must agree byte-for-byte: the restored
	// instance carries the full serving state, not just the solution.
	a, err := orig.(online.StateCodec).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.(online.StateCodec).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("cut %d: post-suffix states differ", cut)
	}
}

func TestPDStateSuffixIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rig := newStateRig(seed, 60)
		for _, cut := range []int{0, 1, 17, 60} {
			for _, opts := range []Options{{}, {DisablePrediction: true}} {
				opts := opts
				assertSuffixIdentical(t, rig, cut,
					NewPDOMFLP(rig.space, rig.costs, opts),
					func() online.Algorithm { return NewPDOMFLP(rig.space, rig.costs, opts) })
			}
		}
	}
}

// TestPDStateDualsPreserved: the dual objective — the certified lower bound
// snapshots report — must survive the round trip exactly.
func TestPDStateDualsPreserved(t *testing.T) {
	rig := newStateRig(9, 50)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	for _, r := range rig.requests {
		pd.Serve(r)
	}
	blob, err := pd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewPDOMFLP(rig.space, rig.costs, Options{})
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if got, want := back.DualTotal(), pd.DualTotal(); got != want {
		t.Errorf("DualTotal = %v after restore, want %v (must be exact)", got, want)
	}
	ids1, duals1, pts1 := pd.Duals()
	ids2, duals2, pts2 := back.Duals()
	if !reflect.DeepEqual(ids1, ids2) || !reflect.DeepEqual(duals1, duals2) || !reflect.DeepEqual(pts1, pts2) {
		t.Error("frozen duals changed across the state round trip")
	}
	// ServeLog reconstructs from the restored history bookkeeping.
	if !reflect.DeepEqual(pd.ServeLog(), back.ServeLog()) {
		t.Error("ServeLog changed across the state round trip")
	}
}

func TestRandStateSuffixIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rig := newStateRig(seed, 60)
		for _, cut := range []int{0, 1, 23, 60} {
			for _, opts := range []Options{{}, {DisablePrediction: true}} {
				opts := opts
				assertSuffixIdentical(t, rig, cut,
					NewRandOMFLP(rig.space, rig.costs, opts, rand.New(rand.NewSource(seed*101))),
					func() online.Algorithm {
						return NewRandOMFLP(rig.space, rig.costs, opts, rand.New(rand.NewSource(seed*101)))
					})
			}
		}
	}
}

// TestStateRestoreErrors: mismatched or stale restores must refuse loudly.
func TestStateRestoreErrors(t *testing.T) {
	rig := newStateRig(2, 10)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	for _, r := range rig.requests {
		pd.Serve(r)
	}
	blob, err := pd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}

	// Restoring onto a non-fresh instance.
	used := NewPDOMFLP(rig.space, rig.costs, Options{})
	used.Serve(rig.requests[0])
	if err := used.UnmarshalState(blob); err == nil {
		t.Error("restore onto a non-fresh instance succeeded")
	}
	// Restoring under a different universe.
	other := NewPDOMFLP(rig.space, cost.PowerLaw(rig.u+1, 1, 1), Options{})
	if err := other.UnmarshalState(blob); err == nil {
		t.Error("restore under a different universe succeeded")
	}
	// Restoring under a different candidate set.
	cands := NewPDOMFLP(rig.space, rig.costs, Options{Candidates: []int{0, 1}})
	if err := cands.UnmarshalState(blob); err == nil {
		t.Error("restore under a different candidate set succeeded")
	}
	// Garbage bytes.
	fresh := NewPDOMFLP(rig.space, rig.costs, Options{})
	if err := fresh.UnmarshalState([]byte("{")); err == nil {
		t.Error("restore of corrupt bytes succeeded")
	}

	// RAND: wrong candidate count and non-fresh instance.
	ra := NewRandOMFLP(rig.space, rig.costs, Options{}, rand.New(rand.NewSource(1)))
	for _, r := range rig.requests {
		ra.Serve(r)
	}
	rblob, err := ra.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if err := ra.UnmarshalState(rblob); err == nil {
		t.Error("RAND restore onto a non-fresh instance succeeded")
	}
	raCands := NewRandOMFLP(rig.space, rig.costs, Options{Candidates: []int{0}}, rand.New(rand.NewSource(1)))
	if err := raCands.UnmarshalState(rblob); err == nil {
		t.Error("RAND restore under a different candidate set succeeded")
	}
}

// TestStateSingletonUniverse: with |S| = 1 a large facility's configuration
// equals the singleton's, so the explicit large flag in the serialized
// facility list is load-bearing — a restore must preserve facility kinds.
func TestStateSingletonUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	space := metric.RandomEuclidean(rng, 8, 2, 40)
	costs := cost.PowerLaw(1, 1, 2)
	var reqs []instance.Request
	for i := 0; i < 30; i++ {
		reqs = append(reqs, instance.Request{Point: rng.Intn(space.Len()), Demands: commodity.New(0)})
	}
	rig := &stateTestRig{space: space, costs: costs, u: 1, requests: reqs}
	assertSuffixIdentical(t, rig, 15,
		NewPDOMFLP(space, costs, Options{}),
		func() online.Algorithm { return NewPDOMFLP(space, costs, Options{}) })
	assertSuffixIdentical(t, rig, 15,
		NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(4))),
		func() online.Algorithm { return NewRandOMFLP(space, costs, Options{}, rand.New(rand.NewSource(4))) })
}

// TestPDDualTotalIsRowSum: DualTotal is a running sum, so it must stay
// bit-identical to summing the frozen dual rows afresh in arrival order,
// also after a restore.
func TestPDDualTotalIsRowSum(t *testing.T) {
	rowSum := func(pd *PDOMFLP) float64 {
		_, duals, _ := pd.Duals()
		var sum float64
		for _, row := range duals {
			for _, v := range row {
				sum += v
			}
		}
		return sum
	}
	rig := newStateRig(9, 120)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	for i, r := range rig.requests {
		pd.Serve(r)
		if got, want := math.Float64bits(pd.DualTotal()), math.Float64bits(rowSum(pd)); got != want {
			t.Fatalf("after arrival %d DualTotal bits %#x, row sum bits %#x", i, got, want)
		}
	}
	blob, err := pd.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	back := NewPDOMFLP(rig.space, rig.costs, Options{})
	if err := back.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(back.DualTotal()), math.Float64bits(rowSum(pd)); got != want {
		t.Fatalf("restored DualTotal bits %#x, row sum bits %#x", got, want)
	}
}

// TestStateRejectsSchema1JSON: a PD state in the JSON layout that preceded
// the binary codec (testdata/pd_state_schema1.json, marshaled from
// newStateRig(2, 10) by that build) fails with an error naming the old
// schema rather than misparsing.
func TestStateRejectsSchema1JSON(t *testing.T) {
	blob, err := os.ReadFile("testdata/pd_state_schema1.json")
	if err != nil {
		t.Fatal(err)
	}
	rig := newStateRig(2, 10)
	err = NewPDOMFLP(rig.space, rig.costs, Options{}).UnmarshalState(blob)
	if err == nil || !strings.Contains(err.Error(), "schema 1") {
		t.Fatalf("restore of a schema-1 JSON state: err = %v, want one naming schema 1", err)
	}
}

// TestStateMarshalIsOneAllocation: the engine seals a tenant's state every
// SealEvery arrivals, so the encoders size their output exactly and
// allocate nothing else.
func TestStateMarshalIsOneAllocation(t *testing.T) {
	rig := newStateRig(3, 200)
	pd := NewPDOMFLP(rig.space, rig.costs, Options{})
	ra := NewRandOMFLP(rig.space, rig.costs, Options{}, rand.New(rand.NewSource(3)))
	for _, r := range rig.requests {
		pd.Serve(r)
		ra.Serve(r)
	}
	for _, sc := range []online.StateCodec{pd, ra} {
		var blob []byte
		allocs := testing.AllocsPerRun(10, func() { blob, _ = sc.MarshalState() })
		if allocs != 1 || len(blob) != cap(blob) {
			t.Errorf("%T: marshal made %v allocations for %d bytes (cap %d), want 1 exactly sized", sc, allocs, len(blob), cap(blob))
		}
	}
}
